"""Batch driver: read a JSON run configuration, execute one named experiment
and write deterministic CSV tables plus a machine-readable run manifest.

Config layout (schema_version 1):

    {
      "schema_version": 1,
      "experiment": "VanillaSmile",
      "output": "smile",
      "sentinel": "inf",                  # optional, for diverging implied vols
      "tolerances": {"psd": 1e-10, "eig": 1e-12},   # optional
      "parameters": { ... experiment specific ... }
    }

Grids are given either as explicit arrays or as {"start", "stop", "count"}.
Unknown keys, non-finite numbers and integers above ``MAX_COUNT`` are
rejected everywhere.  Parameter ranges are validated by the library:
loading a config builds the library's own values (models, asset moments, FX
legs, curve slices, partitions, strike grids), and the errors they raise are
config errors.  A run executes the read-only plan of those values built at
load, so it cannot raise a config error.  Outputs are CSV (LF line endings,
header row, 12 significant digits) plus ``<output>_manifest.json`` carrying
the config hash, effective tolerances and summary statistics.  Re-running an
identical config reproduces the outputs byte for byte.  Every run is
single-threaded: strike sweeps are batched into one solve per fixed moment
matrix instead.

Exit codes: 0 success, 2 config error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attainment import implied_root_variance_curve, local_attainment_scan
from .engine import DEFAULT_TOLERANCES, Tolerances, _checked_grid, _frozen_array
from .errors import ConfigError, MomentBoundsError, ParameterOutOfRange
from .markets import (
    FxLegMoments,
    SwapCurveSlice,
    annuity_weights,
    caplet_cdf_scan,
    caplet_point_mass,
)
from .models import LognormalModel, bs_call_prices, implied_normal_vols
from .moments import AssetMoments
from .partition import (
    LinearPartition,
    flat_conditional_moments,
    linear_conditional_moments,
    refined_bounds,
)
from .vanilla import check_decreasing_convex, smile_curves, vanilla_bounds

__all__ = ["RunConfig", "load_config", "run", "main", "EXPERIMENTS"]

SCHEMA_VERSION = 1
DEFAULT_SENTINEL = "inf"
# Largest integer a config may give: integers size grids and curves, and a
# bigger one would only exhaust memory.
MAX_COUNT = 1_000_000


# ---------------------------------------------------------------------------
# Config parsing


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    return obj


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _number(obj, where: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(f"{where} must be a number, got {obj!r}")
    # JSON admits NaN and Infinity; the comparison also rejects integers
    # too large for a float.
    if not -sys.float_info.max <= obj <= sys.float_info.max:
        raise ConfigError(f"{where} must be finite, got {obj!r}")
    return float(obj)


def _integer(obj, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{where} must be an integer, got {obj!r}")
    if obj > MAX_COUNT:
        raise ConfigError(f"{where} must be at most {MAX_COUNT}, got {obj}")
    return int(obj)


def _grid(obj, where: str) -> np.ndarray:
    """Parse a grid, read-only: explicit array or {"start", "stop", "count"}."""
    if isinstance(obj, list):
        if not obj:
            raise ConfigError(f"{where} must not be empty")
        return _frozen_array([_number(v, f"{where}[{i}]") for i, v in enumerate(obj)])
    if isinstance(obj, dict):
        _reject_unknown(obj, {"start", "stop", "count"}, where)
        for key in ("start", "stop", "count"):
            if key not in obj:
                raise ConfigError(f"{where} needs '{key}'")
        count = _integer(obj["count"], f"{where}.count")
        if count < 2:
            raise ConfigError(f"{where}.count must be >= 2")
        start, stop = _number(obj["start"], where), _number(obj["stop"], where)
        return _frozen_array(np.linspace(start, stop, count))
    raise ConfigError(f"{where} must be an array or a start/stop/count object")


def _float_list(obj, where: str) -> list:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{where} must be a non-empty array")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(obj)]


def _take(params: dict, where: str, required: dict, optional: dict | None = None) -> dict:
    """Validate a parameter block against converter maps and apply defaults."""
    optional = optional or {}
    _reject_unknown(params, set(required) | set(optional), where)
    out = {}
    for name, convert in required.items():
        if name not in params:
            raise ConfigError(f"missing key '{name}' in {where}")
        out[name] = convert(params[name], f"{where}.{name}")
    for name, (convert, default) in optional.items():
        out[name] = convert(params[name], f"{where}.{name}") if name in params else default
    return out


def _root_variance_of(params: dict, where: str) -> float:
    """Accept root_variance directly, or sigma + expiry via the lognormal identity."""
    has_nu = "root_variance" in params
    has_sigma = "sigma" in params
    if has_nu == has_sigma:
        raise ConfigError(f"{where} needs exactly one of 'root_variance' or 'sigma'")
    if has_nu:
        return _number(params.pop("root_variance"), f"{where}.root_variance")
    sigma = _number(params.pop("sigma"), f"{where}.sigma")
    expiry = _number(params.get("expiry", 1.0), f"{where}.expiry")
    return LognormalModel(1.0, sigma, expiry).root_variance


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration, its raw dict and its read-only plan."""

    experiment: str
    plan: dict = field(compare=False, repr=False)
    output: str
    tolerances: Tolerances
    sentinel: str
    raw: dict

    @property
    def sha256(self) -> str:
        canonical = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def load_config(path) -> RunConfig:
    """Read and validate a config file; raises ConfigError on any defect."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require_mapping(raw, "config")
    _reject_unknown(
        raw,
        {"schema_version", "experiment", "output", "parameters", "tolerances", "sentinel"},
        "config",
    )
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose one of {', '.join(sorted(EXPERIMENTS))}"
        )
    output = raw.get("output")
    if not isinstance(output, str) or not output or "/" in output or "\\" in output:
        raise ConfigError("'output' must be a non-empty file stem without path separators")
    tol_block = _require_mapping(raw.get("tolerances", {}), "tolerances")
    _reject_unknown(tol_block, {"psd", "eig"}, "tolerances")
    try:
        tolerances = Tolerances(
            psd=_number(tol_block.get("psd", DEFAULT_TOLERANCES.psd), "tolerances.psd"),
            eig=_number(tol_block.get("eig", DEFAULT_TOLERANCES.eig), "tolerances.eig"),
        )
    except ParameterOutOfRange as exc:
        raise ConfigError(f"invalid tolerances: {exc}") from exc
    sentinel = raw.get("sentinel", DEFAULT_SENTINEL)
    if not isinstance(sentinel, str) or not sentinel:
        raise ConfigError("'sentinel' must be a non-empty string")
    parameters = _require_mapping(raw.get("parameters", {}), "parameters")
    # Fail fast so --validate-only means something; a run executes this plan.
    try:
        plan = EXPERIMENTS[experiment].prepare(parameters)
    except MomentBoundsError as exc:
        raise ConfigError(f"invalid parameters for {experiment}: {exc}") from exc
    return RunConfig(experiment, plan, output, tolerances, sentinel, raw)


# ---------------------------------------------------------------------------
# Experiment runners.  Each prepare() checks the parameters' syntax and builds
# the library's validated values into a plan, so a value out of range raises
# the library's own error; execute() turns a plan into (columns, values,
# summary), with one array of values per column.


@dataclass(frozen=True)
class Experiment:
    name: str
    prepare: callable
    execute: callable


def _prepare_vanilla_smile(parameters: dict):
    p = _take(
        parameters,
        "parameters",
        {
            "forward": _number,
            "root_variances": _float_list,
            "strikes": _grid,
        },
        {"expiry": (_number, 1.0)},
    )
    LognormalModel(p["forward"], 0.0, p["expiry"])  # a positive forward and expiry
    for nu in p["root_variances"]:
        AssetMoments(p["forward"], nu)
    _checked_grid(p["strikes"], min_size=2)  # a curve's shape needs two strikes
    return p


def _run_vanilla_smile(plan, config: RunConfig):
    strikes, nus = plan["strikes"], plan["root_variances"]
    # Each curve checks its own shape on construction.
    curves = smile_curves(plan["forward"], nus, strikes, plan["expiry"])
    values = [np.repeat(nus, strikes.size), np.tile(strikes, len(curves))] + [
        np.ravel([getattr(c, name) for c in curves]) for name in ("bounds", "implied_vols", "cdf")
    ]
    summary = {
        "curve_count": len(curves),
        "strike_count": int(strikes.size),
        "max_bound": max(float(np.max(c.bounds)) for c in curves),
    }
    return ["nu", "strike", "bound", "implied_vol", "cdf"], values, summary


def _prepare_refine(parameters: dict, kind: str):
    key = "partitions" if kind == "flat" else "strike_sets"
    p = _take(
        parameters,
        "parameters",
        {"forward": _number, "sigma": _number, key: lambda v, w: v, "eval_strikes": _grid},
        {"expiry": (_number, 1.0)},
    )
    model = LognormalModel(p["forward"], p["sigma"], p["expiry"])
    # Held by no library value: partition moments need a density.
    if not p["sigma"] > 0.0:
        raise ConfigError("sigma must be positive")
    sets = p[key]
    if not isinstance(sets, list) or not sets:
        raise ConfigError(f"parameters.{key} must be a non-empty array of grids")
    parsed = []
    for i, grid in enumerate(sets):
        if not isinstance(grid, list):
            raise ConfigError(f"parameters.{key}[{i}] must be an array")
        values = _frozen_array([_number(v, f"{key}[{i}]") for v in grid])
        # An empty linear set is the unrefined (vanilla) bound.
        if kind == "linear" and values.size:
            LinearPartition(values)
        else:
            _checked_grid(values, f"{key}[{i}]", min_size=0)
        parsed.append(values)
    strikes = _checked_grid(p["eval_strikes"], "eval_strikes", min_size=2)
    return {"model": model, "sets": parsed, "strikes": strikes, "kind": kind}


def _run_refine(plan, config: RunConfig):
    model, strikes = plan["model"], plan["strikes"]
    tol = config.tolerances
    columns = ["strike"]
    curves = []
    for grid in plan["sets"]:
        if plan["kind"] == "flat":
            moments = flat_conditional_moments(model, grid, tol=tol)
            columns.append(f"bound_N{moments.cells}")
        elif grid.size == 0:
            moments = flat_conditional_moments(model, [], tol=tol)
            columns.append("bound_K0")
        else:
            moments = linear_conditional_moments(model, grid, tol=tol)
            columns.append(f"bound_K{grid.size}")
        curves.append(refined_bounds(moments, strikes, tol))
    reference = bs_call_prices(model.forward, strikes, model.sigma, model.expiry)
    columns.append("bs_price")
    for name, curve in zip(columns[1:], curves + [reference]):
        check_decreasing_convex(strikes, curve, label=name)
    gaps = [float(np.max(curve - reference)) for curve in curves]
    summary = {
        "max_gap_by_column": dict(zip(columns[1:-1], gaps)),
        "convergence_ratio": gaps[-1] / gaps[0] if gaps[0] > 0.0 else 0.0,
        "reference_dominated": bool(all(float(np.min(c - reference)) >= -1e-10 for c in curves)),
    }
    return columns, [strikes, *curves, reference], summary


def _prepare_fx_cross(parameters: dict):
    p = _take(
        parameters,
        "parameters",
        {
            "forward": _number,
            "nu1": _number,
            "nu2": _number,
            "correlations": _float_list,
            "strikes": _grid,
        },
    )
    legs = [FxLegMoments(p["nu1"], p["nu2"], rho, p["forward"]) for rho in p["correlations"]]
    return {"legs": legs, "strikes": _checked_grid(p["strikes"])}


def _run_fx_cross(plan, config: RunConfig):
    strikes, legs = plan["strikes"], plan["legs"]
    curves = []
    for leg in legs:
        curves.append(vanilla_bounds(leg.forward, leg.cross_nu, strikes))
        check_decreasing_convex(strikes, curves[-1], label=f"fx bound (rho={leg.rho})")
    rises = [float(np.max(later - earlier)) for earlier, later in zip(curves, curves[1:])]
    size = strikes.size
    values = [np.repeat([leg.rho for leg in legs], size), np.tile(strikes, len(legs))]
    values += [np.repeat([leg.cross_nu for leg in legs], size), np.ravel(curves)]
    summary = {"max_bound_increase_with_rho": max(rises, default=-math.inf)}
    return ["rho", "strike", "cross_nu", "bound"], values, summary


def _prepare_caplet(parameters: dict, scan_shifts: bool):
    params = dict(parameters)
    nu = _root_variance_of(params, "parameters")
    required = {
        "discount_rate": _number,
        "periods": _integer,
        "period_index": _integer,
        "swap_rate": _number,
        "strikes": _grid,
    }
    if scan_shifts:
        required["correlation"] = _number
        required["shifts"] = _float_list
        optional = {"daycount": (_number, 1.0), "expiry": (_number, 1.0)}
    else:
        required["correlations"] = _float_list
        optional = {
            "daycount": (_number, 1.0),
            "shift": (_number, 0.0),
            "expiry": (_number, 1.0),
        }
    p = _take(params, "parameters", required, optional)
    n = p["period_index"]
    # No library value holds this rule; the scan checks it only as it runs.
    if not 2 <= n <= p["periods"]:
        raise ConfigError(f"period_index must lie in 2..{p['periods']}")
    shifts = p["shifts"] if scan_shifts else [p["shift"]]
    rhos = [p["correlation"]] if scan_shifts else p["correlations"]
    slices = {}
    for alpha in shifts:
        for rho in rhos:
            slices[(alpha, rho)] = SwapCurveSlice.with_flat_discounting(
                p["discount_rate"], p["periods"], p["daycount"], p["swap_rate"], nu, rho, alpha
            )
    return {
        "slices": slices,
        "n": n,
        # The scan's central differences need three strikes.
        "strikes": _checked_grid(p["strikes"], positive=False, min_size=3),
        "expiry": p["expiry"],
        "shifts": shifts,
        "rhos": rhos,
        "scan_shifts": scan_shifts,
    }


def _run_caplet(plan, config: RunConfig):
    tol, strikes, n = config.tolerances, plan["strikes"], plan["n"]
    scan_shifts = plan["scan_shifts"]
    columns = ["alpha" if scan_shifts else "rho", "strike", "bound", "implied_normal_vol", "cdf"]
    summary = {"switch_strikes": {}, "point_mass_at_zero": {}} if scan_shifts else {"switch_strikes": {}}
    keys = [(a, r) for a in plan["shifts"] for r in plan["rhos"]]
    scans, forwards = [], []
    try:
        for alpha, rho in keys:
            slice_ = plan["slices"][(alpha, rho)]
            scan = caplet_cdf_scan(slice_, n, strikes, tol)
            curve = f"caplet bound (alpha={alpha}, rho={rho})"
            check_decreasing_convex(strikes, scan.bounds, label=curve)
            scans.append(scan)
            swap, previous_swap = slice_.forwards[n - 1], slice_.forwards[n - 2]
            forwards.append(annuity_weights(slice_, n).forward_from_swaps(swap, previous_swap))
            label = f"alpha={alpha:g}" if scan_shifts else f"rho={rho:g}"
            summary["switch_strikes"][label] = list(scan.switch_strikes)
            if scan_shifts:
                summary["point_mass_at_zero"][label] = caplet_point_mass(slice_, n, 0.0, tol=tol)
    finally:
        # The scanned slices invert in one call, also when a later slice
        # failed: an earlier slice's vol error then wins, as slice by slice.
        bounds = np.ravel([scan.bounds for scan in scans])
        vols = implied_normal_vols(
            np.repeat(forwards, strikes.size), np.tile(strikes, len(scans)), plan["expiry"], bounds
        )
    leads = [alpha if scan_shifts else rho for alpha, rho in keys]
    values = [np.repeat(leads, strikes.size), np.tile(strikes, len(keys)), bounds, vols]
    values.append(np.ravel([scan.cdf for scan in scans]))
    if scan_shifts:
        columns.append("positive_eigenvalues")
        values.append(np.ravel([scan.positive_counts for scan in scans]))
    return columns, values, summary


def _prepare_local_attain(parameters: dict):
    p = _take(
        parameters,
        "parameters",
        {"forward": _number, "root_variance": _number, "strikes": _grid},
        {"attain_tol": (_number, 1e-9)},
    )
    AssetMoments(p["forward"], p["root_variance"])
    # Held by no library value: a two-state model needs an interior nu.
    if not 0.0 < p["root_variance"] < 1.0:
        raise ConfigError("root_variance must lie strictly inside (0, 1)")
    _checked_grid(p["strikes"])
    return p


def _run_local_attain(plan, config: RunConfig):
    report = local_attainment_scan(
        plan["forward"],
        plan["root_variance"],
        plan["strikes"],
        attain_tol=plan["attain_tol"],
        tol=config.tolerances,
    )
    check_decreasing_convex(report.strikes, report.bounds, label="attainment bound")
    fields = ("strikes", "angles", "lows", "highs", "binomial_prices", "bounds", "gaps")
    values = [getattr(report, name) for name in fields]
    summary = {
        "max_gap": report.max_gap,
        "implied_nu": report.implied_nu,
        "constraint_nu": report.constraint_nu,
    }
    columns = ["strike", "angle", "low_state", "high_state", "binomial_price", "bound", "gap"]
    return columns, values, summary


def _prepare_global_attain(parameters: dict):
    p = _take(parameters, "parameters", {"root_variances": _grid})
    grid = _checked_grid(p["root_variances"], "root_variances", positive=False)
    for nu in (grid[0], grid[-1]):  # the grid increases, so its ends bound it
        AssetMoments(1.0, nu)
    return p


def _run_global_attain(plan, config: RunConfig):
    curve = implied_root_variance_curve(plan["root_variances"])
    interior = curve.margins[1:-1] if curve.constraint_nu.size > 2 else curve.margins
    summary = {
        "min_interior_margin": float(np.min(interior)) if interior.size else None,
        "endpoint_errors": [
            float(abs(curve.implied_nu[0] - curve.constraint_nu[0])),
            float(abs(curve.implied_nu[-1] - curve.constraint_nu[-1])),
        ],
    }
    values = [curve.constraint_nu, curve.sqrt_moment, curve.implied_nu]
    return ["nu", "implied_sqrt_moment", "implied_nu"], values, summary


EXPERIMENTS = {
    "VanillaSmile": Experiment(
        "VanillaSmile", _prepare_vanilla_smile, _run_vanilla_smile
    ),
    "FlatRefine": Experiment(
        "FlatRefine", lambda p: _prepare_refine(p, "flat"), _run_refine
    ),
    "LinearRefine": Experiment(
        "LinearRefine", lambda p: _prepare_refine(p, "linear"), _run_refine
    ),
    "FxCross": Experiment("FxCross", _prepare_fx_cross, _run_fx_cross),
    "CapletBound": Experiment(
        "CapletBound", lambda p: _prepare_caplet(p, scan_shifts=False), _run_caplet
    ),
    "CapletCdf": Experiment(
        "CapletCdf", lambda p: _prepare_caplet(p, scan_shifts=True), _run_caplet
    ),
    "LocalAttain": Experiment("LocalAttain", _prepare_local_attain, _run_local_attain),
    "GlobalAttain": Experiment("GlobalAttain", _prepare_global_attain, _run_global_attain),
}


# ---------------------------------------------------------------------------
# Output


def _format_column(values, sentinel: str) -> list:
    """CSV cells of one column: integers as they are, other values to 12
    significant digits and infinities as the sentinel."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return [str(v) for v in arr.tolist()]
    return [sentinel if math.isinf(v) else f"{v:.11e}" for v in arr.astype(float).tolist()]


def _write_csv(path: Path, columns, values, sentinel: str) -> None:
    cells = [_format_column(column, sentinel) for column in values]
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    path.write_text("\n".join(lines) + "\n", newline="")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def run(config: RunConfig, out_dir) -> Path:
    """Execute the plan ``load_config`` built; returns the manifest path.

    The config was validated as it was loaded, so a run raises no config
    error.  Earlier outputs are removed first, so a failed run leaves none.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{config.output}.csv"
    manifest_path = out / f"{config.output}_manifest.json"
    for path in (csv_path, manifest_path):
        path.unlink(missing_ok=True)
    try:
        columns, values, summary = EXPERIMENTS[config.experiment].execute(config.plan, config)
        _write_csv(csv_path, columns, values, config.sentinel)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "experiment": config.experiment,
            "config_sha256": config.sha256,
            "tolerances": {
                "psd": config.tolerances.psd,
                "eig": config.tolerances.eig,
            },
            "outputs": [csv_path.name],
            "rows": len(values[0]),
            "summary": _jsonable(summary),
        }
        manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    except BaseException:
        for path in (csv_path, manifest_path):
            path.unlink(missing_ok=True)
        raise
    return manifest_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="momentbounds",
        description="Run moment-bound experiments from a JSON config and write CSV tables.",
    )
    parser.add_argument("--config", type=Path, help="path to the run configuration")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument(
        "--list-experiments", action="store_true", help="list experiment names and exit"
    )
    parser.add_argument(
        "--validate-only", action="store_true", help="validate the config and exit"
    )
    args = parser.parse_args(argv)

    if args.list_experiments:
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.config is None:
        print("error: ConfigError: --config is required", file=sys.stderr)
        return 2
    try:
        config = load_config(args.config)
        if args.validate_only:
            print(f"config ok: {config.experiment} -> {config.output}")
            return 0
        if args.out is None:
            print("error: ConfigError: --out is required", file=sys.stderr)
            return 2
        manifest = run(config, args.out)
    except ConfigError as exc:
        print(f"error: ConfigError: {exc}", file=sys.stderr)
        return 2
    except MomentBoundsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: IOError: {exc}", file=sys.stderr)
        return 4
    print(manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
