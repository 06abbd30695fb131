import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from momentbounds import attainment
from momentbounds.attainment import (
    _general_moment,
    binomial_calibrate,
    binomial_call_prices,
    implied_root_variance_curve,
    local_attainment_scan,
)
from momentbounds.errors import (
    AngleOutOfRange,
    BranchResolutionFailure,
    ParameterOutOfRange,
    QuadratureBudgetExceeded,
)
from momentbounds.models import _gl_rule
from momentbounds.vanilla import vanilla_bounds, vanilla_bounds_via_engine


def two_state_moments(chi, low, high):
    """E[a] and E[sqrt(a)] of two-state models with weights sin(chi)^2 on
    ``low`` and cos(chi)^2 on ``high``."""
    w_low, w_high = np.sin(chi) ** 2, np.cos(chi) ** 2
    return w_low * low + w_high * high, w_low * np.sqrt(low) + w_high * np.sqrt(high)


class TestBinomialCalibrate:
    def test_moments_reproduced(self):
        f, nu, chi = 1.0, 0.01, 1.2
        mean, sqrt_mean = two_state_moments(chi, *binomial_calibrate(f, nu, chi))
        assert mean == pytest.approx(f, abs=1e-12)
        assert sqrt_mean == pytest.approx(math.sqrt(f * (1.0 - nu)), abs=1e-12)

    def test_branch_endpoint(self):
        nu = 0.04
        chi = 0.5 * math.pi - math.acos(math.sqrt(nu))
        low, high = binomial_calibrate(1.0, nu, chi)
        mean, sqrt_mean = two_state_moments(chi, low, high)
        assert low == pytest.approx(0.0, abs=1e-25)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert sqrt_mean == pytest.approx(math.sqrt(0.96), abs=1e-12)

    def test_round_trip_across_angle_range(self):
        f, nu = 1.3, 0.2
        theta = math.acos(math.sqrt(nu))
        chi = np.linspace(0.5 * math.pi - theta + 1e-6, 0.5 * math.pi - 1e-6, 25)
        mean, sqrt_mean = two_state_moments(chi, *binomial_calibrate(f, nu, chi))
        assert np.all(np.abs(mean - f) <= 1e-12)
        assert np.all(np.abs(sqrt_mean - math.sqrt(f * (1.0 - nu))) <= 1e-12)

    def test_low_state_below_high_state(self):
        low, high = binomial_calibrate(1.0, 0.04, 1.5)
        assert low <= high

    def test_mirror_branch_swaps_states(self):
        # The ascending-branch spectrum at pi/2 - chi equals this branch's
        # spectrum with the states exchanged.
        f, nu, chi = 1.0, 0.04, 1.45
        theta = math.acos(math.sqrt(nu))
        low, high = binomial_calibrate(f, nu, chi)
        mirror_chi = 0.5 * math.pi - chi
        mirror_low = f * math.cos(theta - mirror_chi) ** 2 / math.sin(mirror_chi) ** 2
        mirror_high = f * math.sin(theta - mirror_chi) ** 2 / math.cos(mirror_chi) ** 2
        assert mirror_low == pytest.approx(high, rel=1e-12, abs=0.0)
        assert mirror_high == pytest.approx(low, rel=1e-10, abs=1e-12)

    def test_grid_elements_equal_one_element_calls(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            f, nu = float(rng.uniform(0.05, 20.0)), float(rng.uniform(1e-4, 0.9999))
            theta = math.acos(math.sqrt(nu))
            chi = rng.uniform(0.5 * math.pi - theta, 0.5 * math.pi, 30)
            low, high = binomial_calibrate(f, nu, chi)
            singles = [binomial_calibrate(f, nu, c) for c in chi.tolist()]
            assert low.tolist() == [float(lo) for lo, _ in singles]
            assert high.tolist() == [float(hi) for _, hi in singles]

    def test_angle_out_of_range(self):
        nu = 0.04
        theta = math.acos(math.sqrt(nu))
        with pytest.raises(AngleOutOfRange):
            binomial_calibrate(1.0, nu, 0.5 * math.pi - theta - 1e-3)
        with pytest.raises(AngleOutOfRange):
            binomial_calibrate(1.0, nu, math.nan)

    def test_first_bad_angle_raises_as_a_loop(self):
        nu = 0.04
        grid = [1.5, 0.1, 1.55, 2.0]

        def loop():
            for chi in grid:
                binomial_calibrate(1.0, nu, chi)

        with pytest.raises(AngleOutOfRange) as looped:
            loop()
        with pytest.raises(AngleOutOfRange) as at_once:
            binomial_calibrate(1.0, nu, grid)
        assert str(at_once.value) == str(looped.value)
        assert "angle 0.1 " in str(at_once.value)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            binomial_calibrate(1.0, 0.0, 1.0)
        with pytest.raises(ParameterOutOfRange):
            binomial_calibrate(1.0, 1.0, 1.0)


class TestBinomialCallPrices:
    def test_zero_strike_prices_the_mean(self):
        assert binomial_call_prices(math.pi / 4.0, 0.0, 2.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_two_state_expectation(self):
        chi, low, high = 0.7, 0.5, 2.0
        expected = math.sin(chi) ** 2 * 0.2 + math.cos(chi) ** 2 * 1.7
        assert binomial_call_prices(chi, low, high, 0.3) == pytest.approx(expected, rel=1e-15)

    def test_grid_elements_equal_one_element_calls(self):
        f, nu = 1.3, 0.2
        theta = math.acos(math.sqrt(nu))
        chi = np.linspace(0.5 * math.pi - theta, 0.5 * math.pi, 40)[:-1]
        low, high = binomial_calibrate(f, nu, chi)
        strikes = np.linspace(0.2, 4.0, 17)
        grid = binomial_call_prices(chi, low, high, strikes[:, None])
        assert grid.shape == (strikes.size, chi.size)
        for i, k in enumerate(strikes.tolist()):
            for j, (c, lo, hi) in enumerate(zip(chi.tolist(), low.tolist(), high.tolist())):
                assert grid[i, j] == binomial_call_prices(c, lo, hi, k)


def attaining_angle(f, nu, k):
    """The guarded angle of the model attaining the bound at one strike."""
    return local_attainment_scan(f, nu, [k]).angles[0]


class TestOptimalAngle:
    def test_atm_angle_identity(self):
        # f = k: tan(2 chi) = -tan(theta), so 2 chi = pi - theta.
        nu = 0.01
        theta = math.acos(math.sqrt(nu))
        chi = attaining_angle(1.0, nu, 1.0)
        assert 2.0 * chi == pytest.approx(math.pi - theta, abs=1e-13)

    def test_far_strike_limit(self):
        nu = 0.01
        chi = attaining_angle(1.0, nu, 1e6)
        assert chi == pytest.approx(0.5 * math.pi, abs=1e-5)
        assert math.tan(2.0 * chi) < 0.0

    def test_attains_bound_at_example_strike(self):
        f, nu, k = 1.0, 0.01, 1.4
        chi = attaining_angle(f, nu, k)
        price = binomial_call_prices(chi, *binomial_calibrate(f, nu, chi), k)
        assert price == pytest.approx(vanilla_bounds(f, nu, [k])[0], rel=1e-10, abs=0.0)

    def test_angle_within_branch(self):
        nu = 0.25
        theta = math.acos(math.sqrt(nu))
        angles = local_attainment_scan(1.0, nu, [0.2, 0.9, 1.0, 1.7, 4.0]).angles
        assert np.all((0.5 * math.pi - theta - 1e-12 <= angles) & (angles < 0.5 * math.pi))

    def test_grid_elements_equal_one_strike_models(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            f, nu, ks = random_scan_case(rng, int(rng.integers(1, 30)))
            grid = attainment._attaining_models(f, nu, ks)
            for i in range(ks.size):
                single = attainment._attaining_models(f, nu, ks[i : i + 1])
                assert [column[i] for column in grid] == [column[0] for column in single]


def scalar_scanned_maximum(f, nu, strike):
    """One-strike reference for the guard scan: the angle grid's models
    calibrated and priced at a single strike."""
    theta = math.acos(math.sqrt(nu))
    chi = np.linspace(0.5 * math.pi - theta, 0.5 * math.pi, attainment._SCAN_POINTS)[:-1]
    weight_low, weight_high = np.sin(chi) ** 2, np.cos(chi) ** 2
    low = f * np.cos(theta + chi) ** 2 / weight_low
    high = f * np.sin(theta + chi) ** 2 / weight_high
    prices = weight_low * np.maximum(low - strike, 0.0) + weight_high * np.maximum(
        high - strike, 0.0
    )
    return float(np.max(prices))


def random_scan_case(rng, strikes):
    f = float(rng.uniform(0.05, 20.0))
    nu = float(rng.uniform(1e-4, 0.9999))
    ks = np.sort(f * np.exp(rng.normal(0.0, 1.5, strikes)))
    return f, nu, ks


class TestBranchGuard:
    def test_scanned_maximum_matches_per_angle_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            f, nu, (k,) = random_scan_case(rng, 1)
            theta = math.acos(math.sqrt(nu))
            grid = np.linspace(0.5 * math.pi - theta, 0.5 * math.pi, attainment._SCAN_POINTS)[:-1]
            expected = max(
                binomial_call_prices(c, *binomial_calibrate(f, nu, c), k) for c in grid.tolist()
            )
            got = attainment._scanned_maxima(f, nu, np.array([k]))
            assert got.shape == (1,)
            assert got[0] == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_grid_rows_equal_one_strike_scans(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            f, nu, ks = random_scan_case(rng, int(rng.integers(1, 40)))
            rows = attainment._scanned_maxima(f, nu, ks)
            singles = [attainment._scanned_maxima(f, nu, ks[i : i + 1])[0] for i in range(ks.size)]
            assert rows.tolist() == singles
            assert singles == [scalar_scanned_maximum(f, nu, k) for k in ks.tolist()]

    def test_grid_beyond_one_block_matches_blockwise(self):
        f, nu, ks = random_scan_case(np.random.default_rng(23), 1500)
        per_block = attainment.STACK_BYTES // (8 * (attainment._SCAN_POINTS - 1))
        assert ks.size > 2 * per_block
        blockwise = np.concatenate(
            [attainment._scanned_maxima(f, nu, ks[i : i + 100]) for i in range(0, ks.size, 100)]
        )
        got = attainment._scanned_maxima(f, nu, ks).tolist()
        assert got == blockwise.tolist()
        assert got == [scalar_scanned_maximum(f, nu, k) for k in ks.tolist()]

    def test_guard_still_rejects_a_beaten_angle(self, monkeypatch):
        f, nu, k = 1.0, 0.04, 1.3
        chi = attaining_angle(f, nu, k)
        achieved = binomial_call_prices(chi, *binomial_calibrate(f, nu, chi), k)
        monkeypatch.setattr(
            attainment, "_scanned_maxima", lambda *args: np.array([achieved + 2e-9 * max(1.0, f)])
        )
        with pytest.raises(BranchResolutionFailure, match=re.escape(f"formula angle {chi} ")):
            attaining_angle(f, nu, k)

    def test_scan_guard_names_the_first_beaten_strike(self, monkeypatch):
        f, nu = 1.0, 0.04
        strikes = np.linspace(0.5, 2.0, 7)
        real = attainment._scanned_maxima

        def beaten(f_, nu_, ks):
            best = real(f_, nu_, ks)
            best[[2, 5]] += 1e-6
            return best

        first = attaining_angle(f, nu, float(strikes[2]))
        monkeypatch.setattr(attainment, "_scanned_maxima", beaten)
        with pytest.raises(BranchResolutionFailure, match=re.escape(f"formula angle {first} ")):
            local_attainment_scan(f, nu, strikes)

    def test_scan_calibrates_each_strike_once(self, monkeypatch):
        # In two calls whatever the number of strikes: one for the guard's
        # angle grid and one for the formula angles of all strikes.
        calls = []
        real = attainment.binomial_calibrate
        monkeypatch.setattr(
            attainment, "binomial_calibrate", lambda *args: calls.append(args) or real(*args)
        )
        for size in (1, 9, 40):
            calls.clear()
            report = local_attainment_scan(1.0, 0.04, np.linspace(0.5, 2.0, size))
            assert len(calls) == 2
            assert calls[-1][2].tolist() == report.angles.tolist()


class TestLocalAttainment:
    def test_figure_grid_gaps(self):
        strikes = np.linspace(0.4, 2.6, 23)
        report = local_attainment_scan(1.0, 0.01, strikes)
        assert report.max_gap <= 1e-9

    def test_no_single_model_attains_two_strikes(self):
        f, nu = 1.0, 0.01
        chi_low = attaining_angle(f, nu, 0.8)
        low, high = binomial_calibrate(f, nu, chi_low)
        miss = vanilla_bounds(f, nu, [1.4])[0] - binomial_call_prices(chi_low, low, high, 1.4)
        assert miss > 1e-6

    def test_report_carries_global_section(self):
        report = local_attainment_scan(1.0, 0.04, np.linspace(0.5, 2.0, 7))
        assert report.constraint_nu == 0.04
        assert report.implied_nu > report.constraint_nu
        assert report.implied_sqrt_moment == pytest.approx(
            math.sqrt(1.0 - report.implied_nu), rel=1e-12, abs=0.0
        )

    def test_degenerate_variance_guard(self):
        with pytest.raises(ParameterOutOfRange):
            local_attainment_scan(1.0, 0.0, np.array([1.0]))


class TestReplicationMoments:
    def test_boundary_values(self):
        at_zero, at_one = implied_root_variance_curve([0.0, 1.0]).sqrt_moment
        assert at_zero == 1.0
        assert at_one == pytest.approx(0.0, abs=1e-14)

    def test_against_scipy_quadrature(self):
        nus = (0.1, 0.5, 0.9)
        for nu, moment in zip(nus, implied_root_variance_curve(nus).sqrt_moment):
            raw = lambda x: (
                (math.sqrt((1 - x * x) ** 2 + 4 * x * x * nu) - (1 - x * x)) / (x * x)
                if x > 0
                else 2.0 * nu
            )
            integral, err = quad(raw, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
            assert err < 1e-9
            assert moment == pytest.approx(1.0 - 0.5 * integral, abs=1e-9)

    def test_implied_exceeds_constraint(self):
        nus = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
        assert np.all(implied_root_variance_curve(nus).implied_nu > nus)

    def test_curve_endpoints_and_interior(self):
        curve = implied_root_variance_curve(np.linspace(0.0, 1.0, 21))
        assert abs(curve.implied_nu[0] - 0.0) <= 1e-8
        assert abs(curve.implied_nu[-1] - 1.0) <= 1e-8
        assert np.all(curve.margins[1:-1] > 0.0)

    def test_budget_exceeded(self):
        with pytest.raises(QuadratureBudgetExceeded):
            implied_root_variance_curve([0.3], target_error=1e-30, node_budget=256)
        with pytest.raises(QuadratureBudgetExceeded, match="within 256 nodes"):
            implied_root_variance_curve([0.0, 0.3, 0.7], target_error=1e-30, node_budget=256)


def scalar_sqrt_moment(nu, target_error=1e-10, node_budget=1 << 16):
    """One-nu reference for the batched curve: panel by panel with np.dot,
    doubling the nodes until two successive values agree."""
    if nu == 0.0:
        return 1.0
    edges = [0.0, math.sqrt(1.0 - 2.0 * nu), 1.0] if nu < 0.5 else [0.0, 1.0]

    def evaluate(nodes):
        x, w = _gl_rule(nodes)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            total += half * float(np.dot(w, attainment._bound_excess(mid + half * x, nu)))
        return total

    nodes, value = 64, evaluate(64)
    while True:
        assert 2 * nodes <= node_budget
        refined = evaluate(2 * nodes)
        if abs(refined - value) <= target_error:
            return 1.0 - 0.5 * refined
        nodes, value = 2 * nodes, refined


class TestBatchedCurve:
    GRIDS = [
        [0.0, 1e-9, 0.1, 0.25, 0.4999, 0.5, 0.5000001, 0.8, 1.0],
        [1.0, 0.0, 0.3, 0.9, 0.3],
        [0.0],
        [1.0],
        [0.49],
    ]

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("target_error", [1e-10, 1e-13, 1e-6])
    def test_equals_per_nu_reference(self, grid, target_error):
        curve = implied_root_variance_curve(grid, target_error=target_error)
        expected = [scalar_sqrt_moment(nu, target_error) for nu in grid]
        assert curve.sqrt_moment.tolist() == expected
        # Each value equals a one-point curve's.
        alone = [implied_root_variance_curve([nu], target_error=target_error) for nu in grid]
        assert [curve.sqrt_moment[0] for curve in alone] == expected

    def test_random_grids_equal_per_nu_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            grid = rng.uniform(0.0, 1.0, 20)
            grid[rng.integers(0, 20, 4)] = rng.choice([0.0, 0.5, 1.0], 4)
            curve = implied_root_variance_curve(grid)
            assert curve.sqrt_moment.tolist() == [scalar_sqrt_moment(float(nu)) for nu in grid]

    def test_grid_beyond_one_block_matches_per_nu(self):
        # At 64 nodes a block holds STACK_BYTES / 512 panels, and every nu in
        # (0, 1/2) brings two.
        grid = np.random.default_rng(31).uniform(0.0, 0.5, 1500)
        assert 2 * grid.size > attainment.STACK_BYTES // (64 * 8)
        curve = implied_root_variance_curve(grid)
        assert curve.sqrt_moment.tolist() == [scalar_sqrt_moment(float(nu)) for nu in grid]

    def test_first_bad_nu_raises(self):
        for grid, bad in (([0.2, 1.5, -0.1], "1.5"), ([0.0, math.nan], "nan"), ([-0.1], "-0.1")):
            with pytest.raises(ParameterOutOfRange, match=f"got {bad}$"):
                implied_root_variance_curve(grid)

    def test_budget_before_a_later_bad_nu(self):
        # A loop over the grid would exhaust the budget on 0.3 before it
        # reached 1.5; a bad nu in front raises first.
        with pytest.raises(QuadratureBudgetExceeded):
            implied_root_variance_curve([0.3, 1.5], target_error=1e-30, node_budget=256)
        with pytest.raises(ParameterOutOfRange):
            implied_root_variance_curve([1.5, 0.3], target_error=1e-30, node_budget=256)

    def test_grid_shape_checked(self):
        for grid in ([], [[0.1, 0.2]]):
            with pytest.raises(ParameterOutOfRange):
                implied_root_variance_curve(grid)


class TestGeneralMoment:
    def test_half_matches_sqrt_moment(self):
        nus = (0.04, 0.25, 0.5, 0.9)
        for nu, moment in zip(nus, implied_root_variance_curve(nus).sqrt_moment):
            assert _general_moment(nu, 0.5) == pytest.approx(moment, abs=1e-9)

    def test_symmetry(self):
        for nu in (0.25, 0.5):
            for n in (0.1, 0.3):
                assert _general_moment(nu, n) == pytest.approx(
                    _general_moment(nu, 1.0 - n), abs=1e-9
                )

    def test_deterministic_asset(self):
        for n in (0.1, 0.5, 0.9):
            assert _general_moment(0.0, n) == 1.0

    def test_full_dispersion_kills_fractional_moments(self):
        # At nu = 1 the integral evaluates to 1/(n(1-n)) and the moment
        # vanishes for every 0 < n < 1.
        for n in (0.2, 0.5, 0.8):
            assert _general_moment(1.0, n) == pytest.approx(0.0, abs=1e-10)

    def test_order_validation(self):
        with pytest.raises(ParameterOutOfRange):
            _general_moment(0.5, 0.0)
        with pytest.raises(ParameterOutOfRange):
            _general_moment(0.5, 1.0)


class TestLocalScanBatching:
    def test_bounds_match_single_engine_calls_and_factor_once(self, factor_calls):
        strikes = np.linspace(0.3, 2.5, 12)
        expected = [vanilla_bounds_via_engine(1.0, 0.04, [k])[0] for k in strikes]
        factor_calls.clear()
        report = local_attainment_scan(1.0, 0.04, strikes)
        assert report.bounds.tolist() == expected
        assert len(factor_calls) == 1
