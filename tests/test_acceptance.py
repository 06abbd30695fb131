"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Tolerances are pinned here, not configurable: they are the contract.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from momentbounds.attainment import (
    _general_moment,
    binomial_calibrate,
    binomial_call_prices,
    implied_root_variance_curve,
    local_attainment_scan,
)
from momentbounds.cli import load_config, run
from momentbounds.engine import MomentMatrix, factor_psd, positive_eigenvalue_bounds
from momentbounds.markets import (
    SwapCurveSlice,
    caplet_cdf_scan,
    caplet_point_mass,
    cross_root_variance,
    FxLegMoments,
)
from momentbounds.models import LognormalModel, bs_call_prices
from momentbounds.partition import (
    flat_conditional_moments,
    linear_conditional_moments,
    refined_bounds,
)
from momentbounds.vanilla import check_decreasing_convex, vanilla_bounds, vanilla_bounds_via_engine

MODEL = LognormalModel(1.0, 0.4, 1.0)
EVAL_STRIKES = np.linspace(0.4, 2.6, 23)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert passed, f"criterion {number:02d} {name} failed {suffix}"


def test_01_engine_matches_closed_form():
    started = time.perf_counter()
    worst = 0.0
    for f in (0.5, 1.0, 2.0):
        for nu in (0.0, 0.01, 0.25, 0.99, 1.0):
            ks = np.geomspace(0.1 * f, 5.0 * f, 30)
            closed = vanilla_bounds(f, nu, ks)
            engine = vanilla_bounds_via_engine(f, nu, ks)
            worst = max(worst, float(np.max(np.abs(engine - closed) / np.maximum(closed, 1e-12 * f))))
    elapsed = time.perf_counter() - started
    report(
        1,
        "engine-closed-form equivalence",
        worst <= 1e-12 and elapsed < 1.0,
        f"max rel diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_atm_identity():
    worst = 0.0
    for f in (0.5, 1.0, 2.0):
        for nu in (0.0, 1e-6, 0.01, 0.25, 0.5, 0.99, 1.0):
            worst = max(worst, abs(vanilla_bounds(f, nu, [f])[0] - math.sqrt(f * f * nu)))
    report(2, "ATM bound equals sqrt(f k nu)", worst <= 1e-14, f"max abs diff {worst:.2e}")


def test_03_point_mass_at_zero_strike():
    worst = 0.0
    from momentbounds.vanilla import implied_cdfs

    for nu in (0.01, 0.04, 0.09):
        worst = max(worst, abs(implied_cdfs(1.0, nu, [1e-9])[0] - nu))
    report(3, "implied CDF point mass at zero", worst <= 1e-8, f"max diff {worst:.2e}")


def test_04_schur_horn_domination():
    started = time.perf_counter()
    rng = np.random.default_rng(20211207)
    violations = 0
    total_bases = 0
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        q = MomentMatrix(a.T @ a + 1e-3 * np.eye(4))
        lam = rng.standard_normal(4)
        bound = positive_eigenvalue_bounds(q, [lam]).bounds[0]
        s = factor_psd(q).matrix
        p = (s * lam[None, :]) @ s.T
        p = 0.5 * (p + p.T)
        z = np.linalg.qr(rng.standard_normal((2000, 4, 4)))[0]
        diag = np.einsum("bji,jk,bki->bi", z, p, z)
        values = np.sum(np.clip(diag, 0.0, None), axis=1)
        violations += int(np.count_nonzero(values > bound + 1e-12))
        total_bases += values.size
    elapsed = time.perf_counter() - started
    report(
        4,
        "Schur-Horn domination over random projections",
        violations == 0 and total_bases >= 10_000 and elapsed < 10.0,
        f"{total_bases} bases, {violations} violations, {elapsed:.2f}s",
    )


def test_05_refinement_sandwich_and_convergence():
    started = time.perf_counter()
    nu = MODEL.root_variance
    reference = bs_call_prices(MODEL.forward, EVAL_STRIKES, MODEL.sigma, MODEL.expiry)
    vanilla = vanilla_bounds(1.0, nu, EVAL_STRIKES)

    flat6 = flat_conditional_moments(MODEL, np.linspace(0.5, 2.5, 5))
    flat30 = flat_conditional_moments(MODEL, np.linspace(0.1, 2.9, 29))
    linear5 = linear_conditional_moments(MODEL, np.linspace(0.5, 2.5, 5))
    linear29 = linear_conditional_moments(MODEL, np.linspace(0.1, 2.9, 29))

    curves = {
        name: refined_bounds(m, EVAL_STRIKES)
        for name, m in (
            ("flat6", flat6),
            ("flat30", flat30),
            ("linear5", linear5),
            ("linear29", linear29),
        )
    }
    ok = True
    detail = []
    for coarse, fine in (
        (vanilla, curves["flat6"]),
        (curves["flat6"], curves["flat30"]),
        (vanilla, curves["linear5"]),
        (curves["linear5"], curves["linear29"]),
    ):
        ok &= bool(np.min(coarse - fine) >= -1e-10)
    for name, curve in curves.items():
        ok &= bool(np.min(curve - reference) >= -1e-10)
    base_gap = float(np.max(vanilla - reference))
    for finest in ("flat30", "linear29"):
        ratio = float(np.max(curves[finest] - reference)) / base_gap
        detail.append(f"{finest} gap ratio {ratio:.3f}")
        ok &= ratio <= 0.2
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    report(5, "refinement sandwich and convergence", ok, ", ".join(detail) + f", {elapsed:.1f}s")


def test_06_flat_normalisation_identities():
    worst = 0.0
    expected = (1.0, 1.0, math.sqrt(1.0 - MODEL.root_variance))
    for boundaries in (np.linspace(0.5, 2.5, 5), np.linspace(0.1, 2.9, 29)):
        sums = flat_conditional_moments(MODEL, boundaries).normalisation_sums()
        worst = max(worst, max(abs(s - e) for s, e in zip(sums, expected)))
    report(6, "flat-partition normalisation identities", worst <= 1e-10, f"max defect {worst:.2e}")


def test_07_local_attainment():
    strikes = np.linspace(0.4, 2.6, 20)
    worst = 0.0
    for nu in (0.01, 0.04, 0.25):
        report_obj = local_attainment_scan(1.0, nu, strikes, attain_tol=1e-9)
        worst = max(worst, report_obj.max_gap)
    chi = local_attainment_scan(1.0, 0.01, [0.8]).angles[0]
    cross_miss = vanilla_bounds(1.0, 0.01, [1.4])[0] - binomial_call_prices(
        chi, *binomial_calibrate(1.0, 0.01, chi), 1.4
    )
    ok = worst <= 1e-9 and cross_miss > 1e-6
    report(
        7,
        "local attainment by strike-dependent binomials",
        ok,
        f"max gap {worst:.2e}, cross-strike miss {cross_miss:.2e}",
    )


def test_08_global_non_attainment():
    curve = implied_root_variance_curve(np.linspace(0.0, 1.0, 21))
    interior = curve.margins[1:-1]
    endpoints = (abs(curve.implied_nu[0]), abs(curve.implied_nu[-1] - 1.0))
    symmetry = 0.0
    for nu in (0.25, 0.5):
        for n in (0.1, 0.3):
            symmetry = max(symmetry, abs(_general_moment(nu, n) - _general_moment(nu, 1.0 - n)))
    ok = (
        bool(np.all(interior > 0.0))
        and max(endpoints) <= 1e-8
        and symmetry <= 1e-9
    )
    report(
        8,
        "global non-attainment via replication moments",
        ok,
        f"min margin {float(np.min(interior)):.2e}, symmetry {symmetry:.1e}",
    )


def test_09_fx_composition():
    worst = 0.0
    for nu in (0.0, 0.04, 0.5, 1.0):
        worst = max(worst, abs(cross_root_variance(nu, nu, 1.0)))
        worst = max(worst, abs(cross_root_variance(0.0, nu, 0.37) - nu))
    monotone = True
    # The cross bound is the vanilla bound at the composed root-variance.
    legs = [FxLegMoments(0.04, 0.09, float(r), 1.0) for r in np.linspace(-1.0, 1.0, 9)]
    values = np.array([vanilla_bounds(leg.forward, leg.cross_nu, [0.6, 1.0, 1.8]) for leg in legs])
    monotone &= bool(np.all(np.diff(values, axis=0) <= 1e-12))
    report(
        9,
        "FX cross root-variance composition",
        worst <= 1e-15 and monotone,
        f"identity defect {worst:.1e}, bound decreasing in rho: {monotone}",
    )


def test_10_caplet_regime_switch():
    nu = 1.0 - math.exp(-0.04)
    ok = True
    details = []
    for alpha in (0.0, 0.5, 1.0):
        slice_ = SwapCurveSlice.with_flat_discounting(0.01, 10, 1.0, 0.02, nu, 0.995, alpha)
        floor = -alpha
        grid = np.linspace(floor - 0.025, floor + 0.025, 51)
        scan = caplet_cdf_scan(slice_, 10, grid)
        ok &= len(scan.switch_strikes) == 1
        mass = caplet_point_mass(slice_, 10, 0.0)
        if alpha == 0.0:
            ok &= mass > 1e-6
        if alpha == 1.0:
            ok &= abs(mass) < 1e-6
        details.append(f"alpha={alpha:g}: switch@{scan.switch_strikes[0]:+.3f}, mass@0={mass:.2e}")
    report(10, "caplet eigenvalue-regime switch", ok, "; ".join(details))


def test_11_cli_curves_pass_shape_checks(tmp_path):
    checked = 0
    for config_path in sorted(CONFIG_DIR.glob("*.json")):
        config = load_config(config_path)
        manifest_path = run(config, tmp_path)
        manifest = json.loads(manifest_path.read_text())
        csv_path = tmp_path / manifest["outputs"][0]
        header, *rows = csv_path.read_text().splitlines()
        columns = header.split(",")
        bound_cols = [i for i, c in enumerate(columns) if c == "bound" or c.startswith("bound_")]
        if not bound_cols:
            continue
        values = []
        for row in rows:
            cells = row.split(",")
            values.append([math.inf if c == "inf" else float(c) for c in cells])
        data = np.array(values)
        strike_col = columns.index("strike")
        group_cols = [i for i, c in enumerate(columns) if c in ("nu", "rho", "alpha")]
        if group_cols:
            group = data[:, group_cols[0]]
            for g in np.unique(group):
                block = data[group == g]
                for i in bound_cols:
                    check_decreasing_convex(block[:, strike_col], block[:, i])
                    checked += 1
        else:
            for i in bound_cols:
                check_decreasing_convex(data[:, strike_col], data[:, i])
                checked += 1
    report(11, "CLI bound curves decreasing and convex", checked > 0, f"{checked} curves checked")
