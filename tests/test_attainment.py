import math
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from momentbounds import attainment
from momentbounds.attainment import (
    binomial_calibrate,
    binomial_call_prices,
    implied_root_variance_curve,
    local_attainment_scan,
)
from momentbounds.errors import (
    AngleOutOfRange,
    BranchResolutionFailure,
    NonFiniteResult,
    ParameterOutOfRange,
)
from momentbounds.vanilla import vanilla_bounds


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
    """The largest call price at one strike over 240 two-state models on an
    angle grid over the branch [pi/2 - theta, pi/2)."""
    theta = math.acos(math.sqrt(nu))
    chi = np.linspace(0.5 * math.pi - theta, 0.5 * math.pi, 241)[:-1]
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
    def test_no_scanned_model_beats_the_bound(self):
        # The property that lets the report's gap check guard the branch:
        # every two-state model matching (f, nu) prices at or below the bound.
        # Measured over 3000 random (f, nu), 20 strikes each: the angle grid's
        # maximum was always below the bound, by at least 1.4e-15 relative.
        rng = np.random.default_rng(29)
        for _ in range(100):
            f, nu, ks = random_scan_case(rng, 5)
            for k, bound in zip(ks.tolist(), vanilla_bounds(f, nu, ks).tolist()):
                assert scalar_scanned_maximum(f, nu, k) <= bound * (1.0 + 4.0 * np.finfo(float).eps)

    def test_guard_still_rejects_a_beaten_angle(self, monkeypatch):
        # The mirror branch's angle pi/2 - chi, calibrated on this branch
        # (here it lies on it: chi <= theta), is a model that misses the bound.
        f, nu, k = 1.0, 0.04, 1.0
        chi = attaining_angle(f, nu, k)
        assert 0.5 * math.pi - chi >= 0.5 * math.pi - math.acos(math.sqrt(nu))
        real = attainment._attaining_models

        def mirrored(f_, nu_, ks):
            angles = 0.5 * math.pi - real(f_, nu_, ks)[0]
            low, high = binomial_calibrate(f_, nu_, angles)
            return angles, low, high, binomial_call_prices(angles, low, high, ks)

        monkeypatch.setattr(attainment, "_attaining_models", mirrored)
        with pytest.raises(BranchResolutionFailure, match="attainment gap"):
            local_attainment_scan(f, nu, [k])

    def test_report_names_the_first_gap_above_tolerance(self):
        # Both 2e-9 at strike 2.0 and 5e-9 at strike 3.0 exceed ATTAIN_TOL.
        report = local_attainment_scan(1.0, 0.04, [1.0, 2.0, 3.0])
        fields = {name: getattr(report, name) for name in report.__dataclass_fields__}
        with pytest.raises(BranchResolutionFailure) as raised:
            type(report)(**{**fields, "gaps": np.array([0.0, 2e-9, 5e-9])})
        assert str(raised.value) == f"attainment gap 2.000e-09 at strike 2.0 exceeds {attainment.ATTAIN_TOL}"

    def test_scan_calibrates_each_strike_once(self, monkeypatch):
        # In one call whatever the number of strikes: the formula angles of
        # all strikes.
        calls = []
        real = attainment.binomial_calibrate
        monkeypatch.setattr(
            attainment, "binomial_calibrate", lambda *args: calls.append(args) or real(*args)
        )
        for size in (1, 9, 40):
            calls.clear()
            report = local_attainment_scan(1.0, 0.04, np.linspace(0.5, 2.0, size))
            assert len(calls) == 1
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


def mp_sqrt_moment(nu):
    """1 - (1/2) * integral over x in [0, 1] of the rationalised excess
    4 nu / (sqrt((1 - x^2)^2 + 4 x^2 nu) + 1 - x^2), by 60-digit quadrature.

    In t = 1 - x, 1 - x^2 = t (2 - t) keeps its digits where the excess
    turns, within about sqrt(nu) of x = 1, so the panels break there."""
    with mpmath.workdps(60):
        nu = mpmath.mpf(nu)

        def excess(t):
            u = t * (2 - t)
            return 4 * nu / (mpmath.sqrt(u * u + 4 * (1 - t) ** 2 * nu) + u)

        return 1 - mpmath.quad(excess, [0, mpmath.sqrt(nu), 1]) / 2


# From nu = 1e-300, where K(1 - nu) is about 347, to the largest float below
# 1, where it is pi / 2.
ORACLE_NUS = [
    1e-300, 1e-100, 1e-30, 1e-16, 1e-9, 1e-4, 0.01, 0.1, 0.25, 0.49, 0.5, 0.51, 0.75,
    0.9, 0.99, 1.0 - 1e-9, 1.0 - 2.0**-53,
]


class TestBatchedCurve:
    GRIDS = [
        [0.0, 1e-9, 0.1, 0.25, 0.4999, 0.5, 0.5000001, 0.8, 1.0],
        [1.0, 0.0, 0.3, 0.9, 0.3],
        [0.0],
        [1.0],
        [0.49],
    ]

    def test_matches_60_digit_quadrature(self):
        nus = ORACLE_NUS + np.random.default_rng(37).uniform(0.0, 1.0, 8).tolist()
        curve = implied_root_variance_curve(nus)
        for nu, moment in zip(nus, curve.sqrt_moment):
            assert abs(mpmath.mpf(float(moment)) - mp_sqrt_moment(nu)) <= 1e-14, nu

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("tolerance", [1e-10, 1e-13, 1e-6])
    def test_equals_per_nu_reference(self, grid, tolerance):
        curve = implied_root_variance_curve(grid)
        for nu, moment in zip(grid, curve.sqrt_moment):
            assert abs(mpmath.mpf(float(moment)) - mp_sqrt_moment(nu)) <= tolerance, nu
        # Each value equals a one-point curve's.
        alone = [implied_root_variance_curve([nu]).sqrt_moment[0] for nu in grid]
        assert curve.sqrt_moment.tolist() == alone

    def test_each_oracle_nu_equals_its_one_point_curve(self):
        curve = implied_root_variance_curve(ORACLE_NUS)
        alone = [implied_root_variance_curve([nu]).sqrt_moment[0] for nu in ORACLE_NUS]
        assert curve.sqrt_moment.tolist() == alone

    def test_random_grids_equal_per_nu_reference(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            grid = rng.uniform(0.0, 1.0, 20)
            grid[rng.integers(0, 20, 4)] = rng.choice([0.0, 0.5, 1.0], 4)
            curve = implied_root_variance_curve(grid)
            alone = [implied_root_variance_curve([nu]).sqrt_moment[0] for nu in grid]
            assert curve.sqrt_moment.tolist() == alone

    def test_local_scan_moment_is_the_curve_moment(self):
        # Both routes run one recurrence; 0.9 is a strike at which every
        # oracle nu has an attaining two-state model.
        for nu in ORACLE_NUS:
            moment = local_attainment_scan(1.0, nu, [0.9]).implied_sqrt_moment
            assert moment == implied_root_variance_curve([nu]).sqrt_moment[0], nu
            assert abs(mpmath.mpf(moment) - mp_sqrt_moment(nu)) <= 1e-14, nu

    def test_first_bad_nu_raises(self):
        for grid, bad in (([0.2, 1.5, -0.1], "1.5"), ([0.0, math.nan], "nan"), ([-0.1], "-0.1")):
            with pytest.raises(ParameterOutOfRange, match=f"got {bad}$") as at_once:
                implied_root_variance_curve(grid)
            with pytest.raises(ParameterOutOfRange) as looped:
                for nu in grid:
                    implied_root_variance_curve([nu])
            assert str(at_once.value) == str(looped.value)

    def test_grid_shape_checked(self):
        for grid in ([], [[0.1, 0.2]]):
            with pytest.raises(ParameterOutOfRange):
                implied_root_variance_curve(grid)


class TestLocalScanBatching:
    def test_state_above_the_float_range_raises(self):
        strikes = np.linspace(4e299, 1e308, 23)
        with pytest.raises(NonFiniteResult, match=re.escape(f"at strike {strikes[1]}") + "$"):
            local_attainment_scan(1e300, 0.01, strikes)

    def test_bounds_are_the_closed_form_and_factor_nothing(self, factor_calls):
        strikes = np.linspace(0.3, 2.5, 12)
        report = local_attainment_scan(1.0, 0.04, strikes)
        assert report.bounds.tolist() == vanilla_bounds(1.0, 0.04, strikes).tolist()
        assert factor_calls == []
