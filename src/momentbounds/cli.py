"""Batch driver: read a JSON run configuration, execute one named experiment
and write deterministic CSV tables plus a machine-readable run manifest.

Config layout (schema_version 1):

    {
      "schema_version": 1,
      "experiment": "VanillaSmile",
      "output": "smile",
      "parameters": { ... experiment specific ... }
    }

Grids are given either as explicit arrays or as {"start", "stop", "count"}.
Unknown keys, non-finite numbers and integers above ``MAX_COUNT`` are
rejected everywhere.  Parameter ranges are validated by the library:
loading a config builds the library's own values (models, asset moments,
cross root-variances, caplet baskets, partitions, strike grids), and the
errors they raise are config errors.  A caplet basket holds its moment
matrix's invariants, computed once per config, and the forward rate.  A
run executes the read-only plan of those values built at load, so it cannot
raise a config error.  The config file is read as UTF-8, and the ``output``
stem must have a file name in the locale's file-system encoding.

Outputs are ASCII files, whatever the locale: a CSV (LF line endings, header
row, 12 significant digits, an infinite value, such as a diverging implied
vol, written ``inf`` or ``-inf``) plus ``<output>_manifest.json`` carrying
the config hash, the fixed tolerances and summary statistics.  The manifest is strict
JSON: a summary value that does not exist (an FX cross's increase with one
correlation) is ``null``, and a non-finite one fails the run with
``NonFiniteResult``.  The config hash is taken once, as the config loads.
A table of at least ``_ARRAY_MIN_CELLS`` cells is formatted in one array
pass, with the same bytes as cell by cell: the pass writes the floats in
range, the zeros and the integers below ``_SMALL_INTEGERS``, and only the
rest (non-finite or subnormal values, near ties, other integers) are
formatted one by one.  Re-running an identical config reproduces the
outputs byte for byte.  Every run is single-threaded: strike sweeps are
batched into one solve per fixed moment matrix instead.  A run makes a
missing output directory, removes earlier outputs first, writes each file
with one ``os.open`` and removes both outputs if anything fails.

Exit codes: 0 success, 2 config error, 3 numerical error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attainment import implied_root_variance_curve, local_attainment_scan
from .engine import EIG_TOL, PSD_TOL, _checked_grid, _frozen_array
from .errors import ConfigError, MomentBoundsError, NonFiniteResult
from .markets import (
    SwapCurveSlice,
    caplet_basket,
    caplet_cdf_scan,
    caplet_point_mass,
    cross_root_variance,
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
        if not math.isfinite(stop - start):
            raise ConfigError(f"{where} spans {start} to {stop}, wider than the float range")
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


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration and its read-only plan.  ``sha256``
    hashes the raw config's canonical JSON (sorted keys, no spaces), once as
    the config loads."""

    experiment: str
    plan: dict = field(compare=False, repr=False)
    output: str
    sha256: str


def load_config(path) -> RunConfig:
    """Read and validate a config file; raises ConfigError on any defect."""
    data = Path(path).read_bytes()
    try:
        raw = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _require_mapping(raw, "config")
    _reject_unknown(raw, {"schema_version", "experiment", "output", "parameters"}, "config")
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
    try:
        os.fsencode(output)
    except UnicodeEncodeError as exc:
        raise ConfigError(f"'output' {output!r} has no file name in this locale: {exc}") from exc
    parameters = _require_mapping(raw.get("parameters", {}), "parameters")
    # Fail fast so --validate-only means something; a run executes this plan.
    try:
        plan = EXPERIMENTS[experiment].prepare(parameters)
    except MomentBoundsError as exc:
        raise ConfigError(f"invalid parameters for {experiment}: {exc}") from exc
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return RunConfig(experiment, plan, output, hashlib.sha256(canonical.encode()).hexdigest())


# ---------------------------------------------------------------------------
# Experiment runners.  Each prepare() checks the parameters' syntax and builds
# the library's validated values into a plan, so a value out of range raises
# the library's own error; execute() turns a plan into (columns, values,
# summary), with one array of values per column.


@dataclass(frozen=True)
class Experiment:
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


def _run_vanilla_smile(plan):
    strikes, nus = plan["strikes"], plan["root_variances"]
    curve = smile_curves(plan["forward"], nus, strikes, plan["expiry"])
    values = [np.repeat(nus, strikes.size), np.tile(strikes, len(nus))]
    values += [curve.bounds.ravel(), curve.implied_vols.ravel(), curve.cdf.ravel()]
    summary = {"curve_count": len(nus), "strike_count": int(strikes.size), "max_bound": float(np.max(curve.bounds))}
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
    # Held by no library value: partition moments need a density and a finite sigma^2 T.
    if not (p["sigma"] > 0.0 and math.isfinite(model.total_variance)):
        raise ConfigError("sigma must be positive, with sigma^2 * expiry finite")
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


def _run_refine(plan):
    model, strikes = plan["model"], plan["strikes"]
    columns = ["strike"]
    curves = []
    for grid in plan["sets"]:
        if plan["kind"] == "flat":
            moments = flat_conditional_moments(model, grid)
            columns.append(f"bound_N{moments.cells}")
        elif grid.size == 0:
            moments = flat_conditional_moments(model, [])
            columns.append("bound_K0")
        else:
            moments = linear_conditional_moments(model, grid)
            columns.append(f"bound_K{grid.size}")
        curves.append(refined_bounds(moments, strikes))
    reference = bs_call_prices(model.forward, strikes, model.sigma, model.expiry)
    columns.append("bs_price")
    check_decreasing_convex(strikes, [*curves, reference], label=columns[1:])
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
    # cross_root_variance checks each leg's root-variance and each correlation.
    rhos = p["correlations"]
    nus = _frozen_array([cross_root_variance(p["nu1"], p["nu2"], rho) for rho in rhos])
    AssetMoments(p["forward"], 0.0)  # a positive forward
    strikes = _checked_grid(p["strikes"], min_size=2)  # a curve's shape needs two strikes
    return {"forward": p["forward"], "rhos": rhos, "nus": nus, "strikes": strikes}


def _run_fx_cross(plan):
    strikes, rhos, nus = plan["strikes"], plan["rhos"], plan["nus"]
    curves = vanilla_bounds(plan["forward"], nus[:, None], strikes)
    check_decreasing_convex(strikes, curves, label=[f"fx bound (rho={rho})" for rho in rhos])
    rises = [float(np.max(later - earlier)) for earlier, later in zip(curves, curves[1:])]
    values = [np.repeat(rhos, strikes.size), np.tile(strikes, len(rhos))]
    values += [np.repeat(nus, strikes.size), curves.ravel()]
    summary = {"max_bound_increase_with_rho": max(rises, default=None)}
    return ["rho", "strike", "cross_nu", "bound"], values, summary


def _prepare_caplet(parameters: dict, scan_shifts: bool):
    required = {
        "discount_rate": _number,
        "periods": _integer,
        "period_index": _integer,
        "swap_rate": _number,
        "sigma": _number,
        "strikes": _grid,
    }
    optional = {"daycount": (_number, 1.0), "expiry": (_number, 1.0)}
    if scan_shifts:
        required["correlation"] = _number
        required["shifts"] = _float_list
    else:
        required["correlations"] = _float_list
        optional["shift"] = (_number, 0.0)
    p = _take(parameters, "parameters", required, optional)
    nu = LognormalModel(1.0, p["sigma"], p["expiry"]).root_variance
    n = p["period_index"]
    # markets.caplet_basket below holds this rule too; checked first so that
    # the message names the config key.
    if not 2 <= n <= p["periods"]:
        raise ConfigError(f"period_index must lie in 2..{p['periods']}")
    shifts = p["shifts"] if scan_shifts else [p["shift"]]
    rhos = [p["correlation"]] if scan_shifts else p["correlations"]
    # Each slice's label keys its summary entries, so no two may share one.
    slices, leads = [], {}
    for alpha in shifts:
        for rho in rhos:
            lead = alpha if scan_shifts else rho
            label = f"alpha={alpha:g}" if scan_shifts else f"rho={rho:g}"
            if label in leads:
                raise ConfigError(f"{leads[label]!r} and {lead!r} share the summary label {label}")
            leads[label] = lead
            slice_ = SwapCurveSlice.with_flat_discounting(
                p["discount_rate"], p["periods"], p["daycount"], p["swap_rate"], nu, rho, alpha
            )
            slices.append((alpha, rho, label, caplet_basket(slice_, n)))
    return {
        "slices": slices,
        # The scan's central differences need three strikes.
        "strikes": _checked_grid(p["strikes"], positive=False, min_size=3),
        "expiry": p["expiry"],
        "scan_shifts": scan_shifts,
    }


def _run_caplet(plan):
    strikes, slices = plan["strikes"], plan["slices"]
    scan_shifts = plan["scan_shifts"]
    columns = ["alpha" if scan_shifts else "rho", "strike", "bound", "implied_normal_vol", "cdf"]
    summary = {"switch_strikes": {}, "point_mass_at_zero": {}} if scan_shifts else {"switch_strikes": {}}
    baskets = [basket for *_, basket in slices]
    scan = caplet_cdf_scan(baskets, strikes)
    check_decreasing_convex(strikes, scan.bounds, [f"caplet bound (alpha={a}, rho={r})" for a, r, _, _ in slices])
    for (_, _, label, basket), switches in zip(slices, scan.switch_strikes):
        summary["switch_strikes"][label] = list(switches)
        if scan_shifts:
            summary["point_mass_at_zero"][label] = caplet_point_mass(basket, 0.0)
    # Every slice is scanned and checked first; then all of them invert in one call.
    bounds = scan.bounds.ravel()
    forwards = np.repeat([basket.forward for basket in baskets], strikes.size)
    vols = implied_normal_vols(forwards, np.tile(strikes, len(slices)), plan["expiry"], bounds)
    leads = [alpha if scan_shifts else rho for alpha, rho, _, _ in slices]
    values = [np.repeat(leads, strikes.size), np.tile(strikes, len(slices)), bounds, vols, scan.cdf.ravel()]
    if scan_shifts:
        columns.append("positive_eigenvalues")
        values.append(scan.positive_counts.ravel())
    return columns, values, summary


def _prepare_local_attain(parameters: dict):
    p = _take(
        parameters,
        "parameters",
        {"forward": _number, "root_variance": _number, "strikes": _grid},
    )
    AssetMoments(p["forward"], p["root_variance"])
    # Held by no library value: a two-state model needs an interior nu.
    if not 0.0 < p["root_variance"] < 1.0:
        raise ConfigError("root_variance must lie strictly inside (0, 1)")
    _checked_grid(p["strikes"], min_size=2)  # a curve's shape needs two strikes
    return p


def _run_local_attain(plan):
    report = local_attainment_scan(plan["forward"], plan["root_variance"], plan["strikes"])
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


def _run_global_attain(plan):
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
    "VanillaSmile": Experiment(_prepare_vanilla_smile, _run_vanilla_smile),
    "FlatRefine": Experiment(lambda p: _prepare_refine(p, "flat"), _run_refine),
    "LinearRefine": Experiment(lambda p: _prepare_refine(p, "linear"), _run_refine),
    "FxCross": Experiment(_prepare_fx_cross, _run_fx_cross),
    "CapletBound": Experiment(lambda p: _prepare_caplet(p, scan_shifts=False), _run_caplet),
    "CapletCdf": Experiment(lambda p: _prepare_caplet(p, scan_shifts=True), _run_caplet),
    "LocalAttain": Experiment(_prepare_local_attain, _run_local_attain),
    "GlobalAttain": Experiment(_prepare_global_attain, _run_global_attain),
}


# ---------------------------------------------------------------------------
# Output


def _format_column(values) -> list:
    """CSV cells of one column, one by one: integers as they are, other
    values to 12 significant digits and infinities as ``inf`` or ``-inf``.
    This is the reference the array kernel below reproduces byte for byte."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return [str(v) for v in arr.tolist()]
    return [f"{v:.11e}" for v in arr.astype(float).tolist()]


# A table of at least this many cells is formatted by the array kernel.  Its
# fixed cost of 50-65 us makes it slower than formatting cell by cell, at about
# 0.6 us a cell, below 80-125 cells on the benchmark workloads' own 3- to
# 7-column tables cut to 42-160 cells; from 128 cells on it was never slower
# (best of 15 x 100 calls a path, on a 2-core Xeon, Python 3.11, NumPy 2.4).
_ARRAY_MIN_CELLS = 128
# The kernel decides cells whose decimal exponent lies within this of 0, so
# that every power of ten it reads is a normal double.
_MAX_EXPONENT = 278
# A cell whose scaled value has a fraction this close to 0.5 is left to the
# reference: the kernel's value is within 2.3e-4 of the exact one, too close
# to tell which way a (round-half-even) tie goes.
_TIE_MARGIN = 1e-3
# _POWERS[p + _POWER_OFFSET] is 10**p correctly rounded, p in [1 - E, 11 + E].
_POWER_OFFSET = _MAX_EXPONENT - 1
# Integer cells from 0 to one below this (at most 10000) are written from a
# table: they hold counts, such as a caplet's positive eigenvalues.
_SMALL_INTEGERS = 1000


def _build_format_tables():
    """Lookup tables of the kernel, built as whole arrays.  The texts are
    padded with NUL bytes, which the writer drops."""
    powers = np.array([float(f"1e{p}") for p in range(1 - _MAX_EXPONENT, 12 + _MAX_EXPONENT)])
    biased = np.arange(2048)
    # An |x| with biased binary exponent b lies in [2**(b-1023), 2**(b-1022)),
    # so its decimal exponent is floor((b - 1022) * log10(2)) or one less.
    estimate = np.floor((biased - 1022) * math.log10(2.0)).astype(np.int64)
    normal = (biased > 0) & (biased < 2047)
    in_range = normal & (estimate > -_MAX_EXPONENT) & (estimate <= _MAX_EXPONENT)
    # Cells out of range are computed as 1.0, whose estimate is 0.
    estimate[~in_range] = 0
    ascii_ = np.frombuffer(b"0123456789", np.uint8)
    # The four ASCII digits of each number below 10000.
    digits = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k, shape in enumerate([(10, 1, 1, 1), (10, 1, 1), (10, 1), (10,)]):
        digits[..., k] = ascii_.reshape(shape)
    digits = digits.reshape(10000, 4)
    quads = digits.view("<u4").ravel()
    # "NUL NUL s d . d d d" for the sign s (NUL when positive) and 4 digits.
    quad = quads.astype("<u8")
    head = (quad & 0xFF) << 24 | ord(".") << 32 | (quad >> 8) << 40
    head = np.concatenate([head, head | ord("-") << 16])
    # "e s d d d sep" for each exponent in [-E, E] and each separator, with
    # the first of three digits dropped when two suffice.
    exponent = np.arange(-_MAX_EXPONENT, _MAX_EXPONENT + 1)
    magnitude = np.abs(exponent)
    tail = np.zeros((exponent.size, 2, 8), np.uint8)
    tail[..., 0] = ord("e")
    tail[..., 1] = np.where(exponent < 0, ord("-"), ord("+"))[:, None]
    tail[..., 2:5] = digits[magnitude, None, 1:]
    tail[magnitude < 100, :, 2] = 0
    tail[..., 5] = np.frombuffer(b",\n", np.uint8)
    # "d[d[d[d]]] sep" as a whole slot for each small integer and separator:
    # its four digits with the leading zeros dropped.
    number = np.arange(_SMALL_INTEGERS)
    drop = np.sum(number[:, None] < [10, 100, 1000], axis=1, dtype="<u8")
    seps = np.array([ord(","), ord("\n")], "<u8")
    integers = np.zeros((_SMALL_INTEGERS, 2, 3), "<u8")
    text = quad[:_SMALL_INTEGERS] >> 8 * drop
    integers[..., 0] = text[:, None] | seps << 8 * (4 - drop)[:, None]
    return powers, estimate, in_range, quads, head, tail.view("<u8").ravel(), integers


_POWERS, _EXPONENT_ESTIMATES, _IN_RANGE, _QUADS, _HEADS, _TAILS, _INTEGER_SLOTS = (
    _build_format_tables()
)


def _kernel_slots(table: np.ndarray):
    """Format the float64 cells of a (rows, columns) table as ``f"{v:.11e}"``,
    each followed by its separator (a newline in the last column) and padded
    with NUL bytes to a 24-byte slot; returns the (rows, columns, 3) uint64
    slots and the mask of cells left to the reference.

    With ``e`` the decimal exponent of ``|x|`` and ``s = |x| * 10**(11 - e)``,
    the 12 digits are ``s`` rounded; ``+0.0`` and ``-0.0`` are written too.
    The power of ten is correctly rounded,
    so ``s`` is within 2.3e-4 of exact, and the cell is left to the reference
    when ``s`` is that close to a half integer, or rounds up to 1e12.
    Correcting the exponent makes ``10**e <= |x|`` hold for the rounded power,
    so ``s`` rounds to at least 1e11, and to exactly 1e11 when ``|x|`` lies a
    rounding below ``10**e``, which is also what the reference prints.
    """
    a = np.abs(table)
    biased = a.view(np.int64) >> 52  # the sign bit is clear
    ok = _IN_RANGE[biased]
    zero = a == 0.0
    a = np.where(ok, a, 1.0)
    e = _EXPONENT_ESTIMATES[biased]
    e -= a < _POWERS[e + _POWER_OFFSET]  # the exponent correction
    s = a * _POWERS[11 - e + _POWER_OFFSET]
    whole = np.floor(s)
    fraction = s - whole
    ok &= (s < 1e12 - 0.5) & (np.abs(fraction - 0.5) >= _TIE_MARGIN)
    # A cell out of range gets the digits of 0 and the exponent of 1.0: the
    # text of a zero, whose sign the head takes from the table.
    n = np.where(ok, whole + (fraction > 0.5), 0.0).astype(np.int64)
    high, low = np.divmod(n, 100_000_000)
    middle, low = np.divmod(low, 10000)
    slots = np.empty(table.shape + (3,), "<u8")
    slots[..., 0] = _HEADS[high + 10000 * np.signbit(table)]
    quads = slots[..., 1:2].view("<u4")
    quads[..., 0], quads[..., 1] = _QUADS[middle], _QUADS[low]
    last = np.arange(table.shape[1]) == table.shape[1] - 1
    slots[..., 2] = _TAILS[2 * (e + _MAX_EXPONENT) + last]
    return slots, ~(ok | zero)


def _csv_bytes(columns, values) -> bytes:
    """The CSV table as ASCII bytes: a header row, then one row per index of
    the value columns.  A table of at least ``_ARRAY_MIN_CELLS`` cells is
    formatted in one array pass, with the same bytes as cell by cell: the
    pass writes every float in range, every zero and every integer in
    [0, ``_SMALL_INTEGERS``), and leaves the rest (non-finite, subnormal and
    near-tie floats, other integers) to ``_format_column``."""
    header = ",".join(columns) + "\n"
    arrays = [np.ravel(column) for column in values]
    rows, width = arrays[0].size, len(arrays)
    if rows * width < _ARRAY_MIN_CELLS:
        cells = [_format_column(column) for column in arrays]
        return (header + "".join(",".join(row) + "\n" for row in zip(*cells))).encode()
    with np.errstate(all="raise"):
        slots, deferred = _kernel_slots(np.column_stack(arrays).astype(float))
    # Integer cells in [0, _SMALL_INTEGERS) take their texts from a table;
    # the other integers go to the reference.
    for j, column in enumerate(arrays):
        if column.dtype.kind in "iu":
            small = (column >= 0) & (column < _SMALL_INTEGERS)
            slots[small, j] = _INTEGER_SLOTS[column[small], int(j == width - 1)]
            deferred[:, j] = ~small
    slots = slots.reshape(rows * width, 3)
    # The cells left to the reference get its texts and separators, which fit
    # a 24-byte slot: a float takes at most 19 characters, an int64 20.
    index, texts = [], []
    for j in np.flatnonzero(deferred.any(axis=0)).tolist():
        at = np.flatnonzero(deferred[:, j])
        sep = "\n" if j == width - 1 else ","
        index.append(at * width + j)
        texts += [(text + sep).encode() for text in _format_column(arrays[j][at])]
    if texts:
        padded = b"".join(text.ljust(24, b"\0") for text in texts)
        slots[np.concatenate(index)] = np.frombuffer(padded, "<u8").reshape(-1, 3)
    # No cell holds a NUL byte, so NULs are padding.
    return header.encode() + slots.tobytes().translate(None, b"\0")


def _remove(*paths) -> None:
    """Unlink every path that exists, then raise the first error."""
    errors = []
    for path in paths:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            errors.append(exc)
    if errors:
        raise errors[0]


def _write(path, data: bytes) -> None:
    """Create or truncate ``path`` and write ``data`` to it, finishing short writes."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0), 0o666)
    try:
        while data:
            data = data[os.write(fd, data) :]
    finally:
        os.close(fd)


def run(config: RunConfig, out_dir) -> Path:
    """Execute the plan ``load_config`` built; returns the manifest path.

    The config was validated as it was loaded, so a run raises no config
    error.  Earlier outputs are removed first, so a failed run leaves none.
    """
    out = os.fspath(out_dir) or os.curdir
    if not os.path.isdir(out):
        os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, f"{config.output}.csv")
    manifest_path = os.path.join(out, f"{config.output}_manifest.json")
    _remove(csv_path, manifest_path)
    try:
        columns, values, summary = EXPERIMENTS[config.experiment].execute(config.plan)
        _write(csv_path, _csv_bytes(columns, values))
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "experiment": config.experiment,
            "config_sha256": config.sha256,
            "tolerances": {"psd": PSD_TOL, "eig": EIG_TOL},
            "outputs": [os.path.basename(csv_path)],
            "rows": len(values[0]),
            "summary": summary,
        }
        try:
            text = json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:  # JSON has no NaN or infinity
            raise NonFiniteResult(f"summary value is not finite: {exc}") from exc
        _write(manifest_path, (text + "\n").encode())
    except BaseException:
        _remove(csv_path, manifest_path)
        raise
    return Path(manifest_path)


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
