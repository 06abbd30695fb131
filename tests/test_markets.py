import math

import numpy as np
import pytest

from momentbounds.errors import NegativeShiftedRate, ParameterOutOfRange
from momentbounds.markets import (
    FxLegMoments,
    SwapCurveSlice,
    annuity_weights,
    caplet_bounds,
    caplet_cdf_scan,
    caplet_point_mass,
    cross_root_variance,
)
from momentbounds.vanilla import check_decreasing_convex, vanilla_bounds

LOGNORMAL_NU = 1.0 - math.exp(-0.04)


def figure_slice(rho: float, alpha: float, nu: float = LOGNORMAL_NU) -> SwapCurveSlice:
    """Flat curve at 1% discounting, 2% swap rates, annual periods."""
    return SwapCurveSlice.with_flat_discounting(0.01, 10, 1.0, 0.02, nu, rho, alpha)


class TestCrossRootVariance:
    def test_matched_legs_full_correlation(self):
        for nu in (0.0, 0.04, 0.5, 1.0):
            assert abs(cross_root_variance(nu, nu, 1.0)) <= 1e-15

    def test_deterministic_leg_passes_through(self):
        for nu in (0.0, 0.04, 0.09, 0.73):
            assert abs(cross_root_variance(0.0, nu, 0.3) - nu) <= 1e-15
            assert abs(cross_root_variance(nu, 0.0, -0.8) - nu) <= 1e-15

    def test_uncorrelated_value(self):
        assert cross_root_variance(0.04, 0.04, 0.0) == pytest.approx(
            1.0 - 0.96**2, rel=1e-14, abs=0.0
        )

    def test_symmetric(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n1, n2 = rng.uniform(0.0, 1.0, 2)
            rho = rng.uniform(-1.0, 1.0)
            assert cross_root_variance(n1, n2, rho) == pytest.approx(
                cross_root_variance(n2, n1, rho), abs=1e-15
            )

    def test_monotone_decreasing_in_rho(self):
        rhos = np.linspace(-1.0, 1.0, 21)
        values = [cross_root_variance(0.1, 0.2, float(r)) for r in rhos]
        assert np.all(np.diff(values) <= 1e-15)

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            value = cross_root_variance(
                rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0)
            )
            assert 0.0 <= value <= 1.0


class TestFxCrossBound:
    def test_bound_decreasing_in_rho(self):
        # The cross bound is the vanilla bound at the composed root-variance.
        ks = [0.6, 1.0, 1.8]
        legs = [FxLegMoments(0.04, 0.04, float(r), 1.0) for r in np.linspace(-1.0, 1.0, 17)]
        values = np.array([vanilla_bounds(leg.forward, leg.cross_nu, ks) for leg in legs])
        assert np.all(np.diff(values, axis=0) <= 1e-12)

    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            FxLegMoments(0.04, 0.04, 1.2, 1.0)


class TestAnnuityWeights:
    def test_flat_curve_weights(self):
        slice_ = SwapCurveSlice(
            discounts=np.ones(4),
            daycounts=np.full(4, 0.5),
            forwards=np.full(4, 0.02),
            root_variances=np.full(4, 0.1),
            adjacent_correlations=np.full(3, 0.9),
        )
        for n in range(1, 5):
            aw = annuity_weights(slice_, n)
            assert aw.lam == pytest.approx(n - 1.0, abs=1e-15)
            assert aw.mean_daycount == pytest.approx(0.5, abs=1e-15)
            assert np.allclose(aw.weights, np.full(n, 1.0 / n))

    def test_discounted_curve_example(self):
        slice_ = SwapCurveSlice(
            discounts=np.array([1.0, 0.99, 0.98]),
            daycounts=np.full(3, 0.5),
            forwards=np.full(3, 0.02),
            root_variances=np.full(3, 0.1),
            adjacent_correlations=np.full(2, 0.9),
        )
        aw = annuity_weights(slice_, 3)
        assert aw.lam == pytest.approx((1.0 + 0.99) / 0.98, rel=1e-15, abs=0.0)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(21)
        slice_ = SwapCurveSlice(
            discounts=np.exp(-rng.uniform(0.0, 0.5, 8)),
            daycounts=rng.uniform(0.2, 1.2, 8),
            forwards=rng.uniform(-0.01, 0.05, 8),
            root_variances=rng.uniform(0.0, 0.3, 8),
            adjacent_correlations=rng.uniform(0.5, 1.0, 7),
        )
        for n in range(1, 9):
            assert abs(float(np.sum(annuity_weights(slice_, n).weights)) - 1.0) <= 1e-15

    def test_forward_reconstruction_identity(self):
        # Build swap rates from random forwards, then invert them back.
        rng = np.random.default_rng(22)
        slice_ = SwapCurveSlice(
            discounts=np.exp(-rng.uniform(0.0, 0.5, 6)),
            daycounts=rng.uniform(0.3, 1.5, 6),
            forwards=np.zeros(6),
            root_variances=np.zeros(6),
            adjacent_correlations=np.zeros(5),
        )
        forwards = rng.uniform(-0.02, 0.06, 6)
        swaps = []
        for n in range(1, 7):
            aw = annuity_weights(slice_, n)
            swaps.append(float(np.dot(aw.weights, forwards[:n])))
        for n in range(2, 7):
            aw = annuity_weights(slice_, n)
            rebuilt = aw.forward_from_swaps(swaps[n - 1], swaps[n - 2])
            assert rebuilt == pytest.approx(forwards[n - 1], abs=1e-13)


class TestCapletBound:
    def test_perfect_correlation_collapses_to_vanilla(self):
        # rho = 1 with matched moments: the swap legs cancel down to one
        # rate with net quantity one, so the 3x3 problem reduces to the
        # 2x2 vanilla problem.
        slice_ = figure_slice(rho=1.0, alpha=0.0)
        ks = [0.005, 0.02, 0.04]
        bounds = caplet_bounds(slice_, 10, ks).bounds
        assert bounds == pytest.approx(vanilla_bounds(0.02, LOGNORMAL_NU, ks), abs=1e-10)

    def test_decreasing_convex_in_strike(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0)
        ks = np.linspace(0.001, 0.06, 40)
        check_decreasing_convex(ks, caplet_bounds(slice_, 10, ks).bounds)

    def test_bound_increases_as_rho_decreases(self):
        for k in (0.01, 0.02, 0.04):
            values = [
                caplet_bounds(figure_slice(rho=float(r), alpha=0.0), 10, [k]).bounds[0]
                for r in (0.975, 0.98, 0.985, 0.99, 0.995, 1.0)
            ]
            assert np.all(np.diff(values) <= 1e-12)

    def test_shift_preserves_payoff_at_degenerate_variance(self):
        # With nu = 0 everything is deterministic and the bound is exactly
        # the intrinsic forward value, shifted or not.
        for alpha in (0.0, 0.5, 1.0):
            slice_ = figure_slice(rho=0.995, alpha=alpha, nu=0.0)
            bounds = caplet_bounds(slice_, 10, [0.01, 0.05]).bounds
            assert bounds == pytest.approx([0.01, 0.0], abs=1e-12)

    def test_negative_shifted_rate_raises(self):
        slice_ = SwapCurveSlice.with_flat_discounting(
            0.01, 5, 1.0, -0.005, LOGNORMAL_NU, 0.995, 0.0
        )
        with pytest.raises(NegativeShiftedRate):
            caplet_bounds(slice_, 5, [0.01])

    def test_period_index_validated(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0)
        with pytest.raises(ParameterOutOfRange):
            caplet_bounds(slice_, 1, [0.01])
        with pytest.raises(ParameterOutOfRange):
            caplet_bounds(slice_, 11, [0.01])


class TestCapletScan:
    def test_deterministic_rates_make_step_cdf(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0, nu=0.0)
        ks = np.linspace(0.001, 0.04, 40)
        scan = caplet_cdf_scan(slice_, 10, ks)
        below = scan.strikes < 0.0195
        above = scan.strikes > 0.0205
        assert np.allclose(scan.cdf[below], 0.0, atol=1e-9)
        assert np.allclose(scan.cdf[above], 1.0, atol=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_single_regime_switch_at_shifted_floor(self, alpha):
        slice_ = figure_slice(rho=0.995, alpha=alpha)
        floor = -alpha  # daycount 1.0
        ks = np.linspace(floor - 0.02, floor + 0.02, 41)
        scan = caplet_cdf_scan(slice_, 10, ks)
        assert len(scan.switch_strikes) == 1
        assert scan.switch_strikes[0] == pytest.approx(floor, abs=1.1e-3)
        assert scan.positive_counts[0] == 2
        assert scan.positive_counts[-1] == 1

    def test_point_mass_moves_with_shift(self):
        mass_at_zero_unshifted = caplet_point_mass(figure_slice(0.995, 0.0), 10, 0.0)
        assert mass_at_zero_unshifted > 1e-3
        shifted = figure_slice(0.995, 1.0)
        assert abs(caplet_point_mass(shifted, 10, 0.0)) < 1e-8
        assert caplet_point_mass(shifted, 10, -1.0) > 1e-3

    def test_point_mass_smooth_region_is_tiny(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0)
        assert abs(caplet_point_mass(slice_, 10, 0.02)) < 1e-8

    def test_scan_leaves_caller_strikes_writable(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0)
        ks = np.linspace(0.001, 0.04, 9)
        assert ks.flags.writeable
        scan = caplet_cdf_scan(slice_, 10, ks)
        assert ks.flags.writeable
        ks[0] = 0.5
        assert scan.strikes[0] == 0.001
        assert not scan.strikes.flags.writeable

    def test_scan_requires_increasing_grid(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0)
        with pytest.raises(ParameterOutOfRange):
            caplet_cdf_scan(slice_, 10, [0.02, 0.01, 0.03])


class TestEigenvalueRegime:
    def test_counts_match_quantity_signature(self):
        # Full-rank moment matrix: the signature of P follows the signs of
        # the quantities, so two positives below the shifted floor and one
        # above.
        slice_ = figure_slice(rho=0.995, alpha=0.5)
        sweep = caplet_bounds(slice_, 10, [-0.51, -0.49, 0.02])
        assert sweep.positive_counts.tolist() == [2, 1, 1]


class TestBatchedCaplets:
    def test_scan_matches_single_strikes_exactly(self):
        slice_ = figure_slice(0.8, 0.5)
        strikes = np.linspace(-0.03, 0.06, 19)
        scan = caplet_cdf_scan(slice_, 3, strikes)
        for i, k in enumerate(strikes):
            single = caplet_bounds(slice_, 3, [k])
            assert scan.bounds[i] == single.bounds[0]
            assert scan.positive_counts[i] == single.positive_counts[0]

    def test_cdf_scan_factors_once(self, factor_calls):
        caplet_cdf_scan(figure_slice(0.8, 0.5), 3, np.linspace(-0.03, 0.06, 91))
        assert len(factor_calls) == 1

    def test_point_mass_is_one_batch_of_the_stencil(self, factor_calls):
        slice_ = figure_slice(0.8, 0.5)
        step = 1e-6
        b0, up1, up2, dn1, dn2 = (
            caplet_bounds(slice_, 3, [k]).bounds[0] for k in (0.0, step, 2 * step, -step, -2 * step)
        )
        expected = (-3.0 * b0 + 4.0 * up1 - up2) / (2.0 * step) - (
            3.0 * b0 - 4.0 * dn1 + dn2
        ) / (2.0 * step)
        factor_calls.clear()
        assert caplet_point_mass(slice_, 3, 0.0, step=step) == expected
        assert len(factor_calls) == 1
