import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentbounds import markets
from momentbounds.engine import factor_psd
from momentbounds.errors import NegativeShiftedRate, ParameterOutOfRange
from momentbounds.markets import (
    SwapCurveSlice,
    annuity_weights,
    caplet_basket,
    caplet_bounds,
    caplet_cdf_scan,
    caplet_point_mass,
    cross_root_variance,
)
from momentbounds.moments import AssetMoments, assemble_q
from momentbounds.vanilla import check_decreasing_convex, vanilla_bounds

LOGNORMAL_NU = 1.0 - math.exp(-0.04)
# |bound - oracle| <= ORACLE_C eps sum_i |w_i| Q_ii for a caplet sweep, the
# oracle built from the model's Q.  Set once from measurement: over 9000
# (slice, strike) pairs of flat slices (nu, rho and the shift drawn as below,
# plus nu and 1 -+ rho at 10^-u, u up to 16; ten strikes each from -1 to
# 1e20, k' = 0 among them) the largest ratio was 1.43.
ORACLE_C = 4.0


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

    @settings(max_examples=50, deadline=None)
    @given(
        sigma1=st.floats(0.01, 1.5),
        sigma2=st.floats(0.01, 1.5),
        log_rho=st.floats(-1.0, 1.0),
        expiry=st.floats(0.05, 5.0),
    )
    def test_lognormal_legs_give_the_cross_root_variance_under_leg_2s_numeraire(
        self, sigma1, sigma2, log_rho, expiry
    ):
        # Lognormal legs a1, a2 with log-correlation log_rho.  Under leg 2's
        # numeraire the cross rate a1 / a2 is lognormal with variance
        # sigma_x^2 T, so its root-variance there is 1 - exp(-sigma_x^2 T / 4).
        # Each leg's own is nu_i = 1 - exp(-sigma_i^2 T / 4), and the square
        # roots' correlation rho_s follows from E[sqrt(a1 a2)].
        nu1, nu2 = (1.0 - math.exp(-s * s * expiry / 4.0) for s in (sigma1, sigma2))
        root_moment = math.exp(-(sigma1**2 + sigma2**2) * expiry / 8.0 + log_rho * sigma1 * sigma2 * expiry / 4.0)
        rho_s = (root_moment - math.sqrt((1.0 - nu1) * (1.0 - nu2))) / math.sqrt(nu1 * nu2)
        # A correlation by Cauchy-Schwarz; roundoff may move it an ulp past 1.
        rho_s = min(1.0, max(-1.0, rho_s))
        cross_variance = sigma1**2 + sigma2**2 - 2.0 * log_rho * sigma1 * sigma2
        expected = 1.0 - math.exp(-cross_variance * expiry / 4.0)
        assert abs(cross_root_variance(nu1, nu2, rho_s) - expected) <= 8.0 * np.finfo(float).eps

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
        nus = [cross_root_variance(0.04, 0.04, float(r)) for r in np.linspace(-1.0, 1.0, 17)]
        values = np.array([vanilla_bounds(1.0, nu, ks) for nu in nus])
        assert np.all(np.diff(values, axis=0) <= 1e-12)

    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            cross_root_variance(0.04, 0.04, 1.2)


class TestSwapCurveSlice:
    @pytest.mark.parametrize("name", ["discounts", "daycounts", "forwards", "root_variances"])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entries_rejected(self, name, bad):
        data = {
            "discounts": np.full(3, 0.99),
            "daycounts": np.ones(3),
            "forwards": np.full(3, 0.02),
            "root_variances": np.full(3, 0.04),
            "adjacent_correlations": np.full(2, 0.9),
        }
        data[name][1] = bad
        with pytest.raises(ParameterOutOfRange):
            SwapCurveSlice(**data)

    @pytest.mark.parametrize("rate", [-1.0, -1.5, -math.inf])
    def test_flat_discounting_needs_rate_above_minus_one(self, rate):
        with pytest.raises(ParameterOutOfRange, match="exceed -1"):
            SwapCurveSlice.with_flat_discounting(rate, 10, 1.0, 0.02, 0.04, 0.9)

    def test_flat_discount_factors_beyond_float_range_rejected(self):
        # (1 + r)^-n overflows for n = 40 at r = -1 + 2^-52.
        with pytest.raises(ParameterOutOfRange, match="finite"):
            SwapCurveSlice.with_flat_discounting(-1.0 + 2.0**-52, 40, 1.0, 0.02, 0.04, 0.9)


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


    def test_forward_inversion_is_scale_free(self):
        # Exact in units of the power of two of the larger |swap rate|: the
        # unscaled formula's bits below the float maximum, a finite forward
        # near it, and ParameterOutOfRange above it.
        rng = np.random.default_rng(36)
        slice_ = figure_slice(0.99, 0.0)
        weights = annuity_weights(slice_, 10)
        for swap, previous in rng.uniform(-0.05, 0.1, (200, 2)).tolist():
            assert weights.forward_from_swaps(swap, previous) == (weights.lam + 1.0) * swap - weights.lam * previous
        assert weights.forward_from_swaps(1.7e308, 1.7e308) == pytest.approx(1.7e308, rel=1e-14)
        message = r"^forward rate from swap rates \(1.7e\+308, -1.7e\+308\) overflows$"
        with pytest.raises(ParameterOutOfRange, match=message):
            weights.forward_from_swaps(1.7e308, -1.7e308)


class TestCapletBound:
    def test_perfect_correlation_collapses_to_vanilla(self):
        # rho = 1 with matched moments: the swap legs cancel down to one
        # rate with net quantity one, so the 3x3 problem reduces to the
        # 2x2 vanilla problem.
        slice_ = figure_slice(rho=1.0, alpha=0.0)
        ks = [0.005, 0.02, 0.04]
        bounds = caplet_bounds([caplet_basket(slice_, 10)], ks).bounds[0]
        assert bounds == pytest.approx(vanilla_bounds(0.02, LOGNORMAL_NU, ks), abs=1e-10)

    def test_decreasing_convex_in_strike(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0)
        ks = np.linspace(0.001, 0.06, 40)
        check_decreasing_convex(ks, caplet_bounds([caplet_basket(slice_, 10)], ks).bounds[0])

    def test_bound_increases_as_rho_decreases(self):
        for k in (0.01, 0.02, 0.04):
            baskets = [
                caplet_basket(figure_slice(rho=float(r), alpha=0.0), 10)
                for r in (0.975, 0.98, 0.985, 0.99, 0.995, 1.0)
            ]
            values = caplet_bounds(baskets, [k]).bounds[:, 0]
            assert np.all(np.diff(values) <= 1e-12)

    def test_shift_preserves_payoff_at_degenerate_variance(self):
        # With nu = 0 everything is deterministic and the bound is exactly
        # the intrinsic forward value, shifted or not.
        for alpha in (0.0, 0.5, 1.0):
            slice_ = figure_slice(rho=0.995, alpha=alpha, nu=0.0)
            bounds = caplet_bounds([caplet_basket(slice_, 10)], [0.01, 0.05]).bounds[0]
            assert bounds == pytest.approx([0.01, 0.0], abs=1e-12)

    @pytest.mark.parametrize("k", [1e10, 1e11, 1e13, 1e16, 1e20])
    def test_far_strike_keeps_positive_eigenvalue(self, k):
        # The one positive eigenvalue, about 4.8373e-3, lies below EIG_TOL
        # times the cash eigenvalue -k, so it is not counted, but the bound
        # still sums it.  At k = 1e16 it is 5e-19 of ||P||, below what a
        # dense eigensolve resolves; Vieta's formulas keep its digits.
        slice_ = SwapCurveSlice.with_flat_discounting(0.01, 10, 1.0, 0.02, 0.15, 0.995, 0.0)
        basket = caplet_basket(slice_, 10)
        sweep = caplet_bounds([basket], [k])
        exact = mp_caplet_bound(basket, slice_, 10, k)
        assert abs(sweep.bounds[0, 0] - exact) <= 1e-12 * exact
        assert sweep.positive_counts[0, 0] == 0

    def test_negative_shifted_rate_raises(self):
        slice_ = SwapCurveSlice.with_flat_discounting(
            0.01, 5, 1.0, -0.005, LOGNORMAL_NU, 0.995, 0.0
        )
        with pytest.raises(NegativeShiftedRate):
            caplet_basket(slice_, 5)

    def test_period_index_validated(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0)
        with pytest.raises(ParameterOutOfRange):
            caplet_basket(slice_, 1)
        with pytest.raises(ParameterOutOfRange):
            caplet_basket(slice_, 11)


class TestCapletScan:
    def test_deterministic_rates_make_step_cdf(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0, nu=0.0)
        ks = np.linspace(0.001, 0.04, 40)
        scan = caplet_cdf_scan([caplet_basket(slice_, 10)], ks)
        below = scan.strikes < 0.0195
        above = scan.strikes > 0.0205
        assert np.allclose(scan.cdf[0, below], 0.0, atol=1e-9)
        assert np.allclose(scan.cdf[0, above], 1.0, atol=1e-9)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_single_regime_switch_at_shifted_floor(self, alpha):
        slice_ = figure_slice(rho=0.995, alpha=alpha)
        floor = -alpha  # daycount 1.0
        ks = np.linspace(floor - 0.02, floor + 0.02, 41)
        scan = caplet_cdf_scan([caplet_basket(slice_, 10)], ks)
        (switches,) = scan.switch_strikes
        assert len(switches) == 1
        assert switches[0] == pytest.approx(floor, abs=1.1e-3)
        assert scan.positive_counts[0, 0] == 2
        assert scan.positive_counts[0, -1] == 1

    def test_point_mass_moves_with_shift(self):
        mass_at_zero_unshifted = caplet_point_mass(caplet_basket(figure_slice(0.995, 0.0), 10), 0.0)
        assert mass_at_zero_unshifted > 1e-3
        shifted = caplet_basket(figure_slice(0.995, 1.0), 10)
        assert abs(caplet_point_mass(shifted, 0.0)) < 1e-8
        assert caplet_point_mass(shifted, -1.0) > 1e-3

    def test_point_mass_smooth_region_is_tiny(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0)
        assert abs(caplet_point_mass(caplet_basket(slice_, 10), 0.02)) < 1e-8

    def test_scan_leaves_caller_strikes_writable(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0)
        ks = np.linspace(0.001, 0.04, 9)
        assert ks.flags.writeable
        scan = caplet_cdf_scan([caplet_basket(slice_, 10)], ks)
        assert ks.flags.writeable
        ks[0] = 0.5
        assert scan.strikes[0] == 0.001
        assert not scan.strikes.flags.writeable

    def test_scan_requires_increasing_grid(self):
        slice_ = figure_slice(rho=0.995, alpha=0.0)
        with pytest.raises(ParameterOutOfRange):
            caplet_cdf_scan([caplet_basket(slice_, 10)], [0.02, 0.01, 0.03])


class TestEigenvalueRegime:
    def test_counts_match_quantity_signature(self):
        # Full-rank moment matrix: the signature of P follows the signs of
        # the quantities, so two positives below the shifted floor and one
        # above.
        slice_ = figure_slice(rho=0.995, alpha=0.5)
        sweep = caplet_bounds([caplet_basket(slice_, 10)], [-0.51, -0.49, 0.02])
        assert sweep.positive_counts.tolist() == [[2, 1, 1]]


class TestCapletSweepOracle:
    @settings(max_examples=25, deadline=None)
    @given(
        nu=st.one_of(st.just(0.0), st.floats(0.0, 0.6)),
        rho=st.one_of(st.sampled_from([1.0, 1.0 - 1e-7, -1.0]), st.floats(-1.0, 1.0)),
        alpha=st.sampled_from([0.0, 0.5, 1.0]),
        strikes=st.lists(st.one_of(st.floats(-1.0, 1.0), st.floats(1.0, 1e20)), min_size=1, max_size=4),
    )
    # P's one positive eigenvalue is 3e-13 of ||P|| here.
    @example(nu=0.15, rho=1.0 - 1e-7, alpha=0.0, strikes=[1e10])
    # nu (1 - rho) near eps: rounding the rates' cross moment, as an assembled
    # Q does, put M12 9% and this bound 0.49% high.
    @example(nu=6.98e-13, rho=0.99943, alpha=1.0, strikes=[0.02])
    def test_sweep_matches_the_50_digit_oracle(self, nu, rho, alpha, strikes):
        slice_ = figure_slice(rho, alpha, nu)
        basket = caplet_basket(slice_, 10)
        ks = np.array([*strikes, -basket.strike_shift])  # and k' = 0
        sweep = caplet_bounds([basket], ks)
        for k, bound in zip(ks, sweep.bounds[0]):
            weights = np.array([basket.lam + 1.0, -basket.lam, -(k + basket.strike_shift)])
            scale = float(np.sum(np.abs(weights) * basket.prices))
            error = abs(mpmath.mpf(bound) - mp_caplet_bound(basket, slice_, 10, k))
            assert error <= ORACLE_C * np.finfo(float).eps * scale, (k, float(error))


class TestBatchedCaplets:
    def test_names_the_first_shifted_strike_that_is_not_finite(self):
        baskets = [caplet_basket(figure_slice(rho, 0.5), 3) for rho in (0.8, 0.995)]
        baskets[1] = dataclasses.replace(baskets[1], strike_shift=math.inf)
        message = r"^shifted strikes must be finite, got inf at strike 0.01 of slice 1$"
        with pytest.raises(ParameterOutOfRange, match=message):
            caplet_bounds(baskets, [0.01, 0.02])

    def test_scan_matches_single_strikes_exactly(self):
        # Each slice and strike is solved on its own coefficients, so a
        # config's sweep holds what one-slice, one-strike sweeps return.
        baskets = [caplet_basket(figure_slice(rho, 0.5), 3) for rho in (0.8, 0.995, 1.0)]
        strikes = np.linspace(-0.03, 0.06, 19)
        scan = caplet_cdf_scan(baskets, strikes)
        for s, basket in enumerate(baskets):
            for i, k in enumerate(strikes):
                single = caplet_bounds([basket], [k])
                assert scan.bounds[s, i] == single.bounds[0, 0]
                assert scan.positive_counts[s, i] == single.positive_counts[0, 0]

    def test_cdf_scan_factors_once(self, factor_calls, assemble_calls):
        # Name kept from when the basket factored Q: it now holds Q's
        # invariants in closed form, and nothing assembles or factors Q.
        basket = caplet_basket(figure_slice(0.8, 0.5), 3)
        caplet_cdf_scan([basket], np.linspace(-0.03, 0.06, 91))
        caplet_bounds([basket], [0.01])
        assert (len(factor_calls), len(assemble_calls)) == (0, 0)
        assert not any(hasattr(markets, name) for name in ("factor_psd", "assemble_q", "MomentMatrix"))

    def test_cdf_scan_runs_no_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the caplet path called an eigensolver")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert not hasattr(markets, "positive_eigenvalue_bounds")
        baskets = [caplet_basket(figure_slice(rho, 0.5), 3) for rho in (0.8, 1.0, -1.0)]
        scan = caplet_cdf_scan(baskets, np.linspace(-0.03, 0.06, 91))
        assert scan.bounds.shape == scan.positive_counts.shape == (3, 91)
        for basket in baskets:
            for strike in (-0.5, 0.0, 0.01):
                caplet_point_mass(basket, strike)

    def test_point_mass_factors_once_without_the_sweep(self, factor_calls, assemble_calls, monkeypatch):
        # Name kept from when the point mass read the basket's factor: it now
        # reads the basket's minors, and nothing assembles or factors Q.
        basket = caplet_basket(figure_slice(0.8, 0.5), 3)
        sweeps = []
        monkeypatch.setattr(markets, "caplet_bounds", lambda *args: sweeps.append(args))
        caplet_point_mass(basket, 0.0)
        assert (len(factor_calls), len(assemble_calls)) == (0, 0)
        assert sweeps == []

    def test_basket_forward_is_the_annuity_inversion(self):
        # Bit for bit: the runner inverts implied vols about this forward.
        for slice_, n, _ in random_caplet_slices(2030, 50):
            swap, previous_swap = slice_.forwards[n - 1], slice_.forwards[n - 2]
            expected = annuity_weights(slice_, n).forward_from_swaps(swap, previous_swap)
            assert caplet_basket(slice_, n).forward == expected


def mp_caplet_bound(basket, slice_, n: int, strike: float, dps: int = 50):
    """Sum of the positive eigenvalues of W Q to ``dps`` digits, for the
    model's Q (the slice's root-variances and correlation, the basket's
    prices) and the float quantities a sweep forms at ``strike``.

    Q = S^T S with the columns of S the square roots of s_n, s_{n-1} and cash
    on an orthonormal basis (1, Z_n, Z_perp), Z_n and rho Z_n + sqrt(1 -
    rho^2) Z_perp the rates' normalised shocks; the eigenvalues of W Q are
    those of the symmetric P = S W S^T.
    """
    weights = [basket.lam + 1.0, -basket.lam, -(strike + basket.strike_shift)]
    with mpmath.workdps(dps):
        nu_n, nu_prev = (mpmath.mpf(float(slice_.root_variances[i])) for i in (n - 1, n - 2))
        rho = mpmath.mpf(float(slice_.adjacent_correlations[n - 2]))
        f_n, f_prev = (mpmath.sqrt(mpmath.mpf(f)) for f in basket.prices[:2])
        s = mpmath.matrix(
            [
                [f_n * mpmath.sqrt(1 - nu_n), f_prev * mpmath.sqrt(1 - nu_prev), 1],
                [f_n * mpmath.sqrt(nu_n), f_prev * rho * mpmath.sqrt(nu_prev), 0],
                [0, f_prev * mpmath.sqrt((1 - rho) * (1 + rho) * nu_prev), 0],
            ]
        )
        p = s * mpmath.diag([mpmath.mpf(w) for w in weights]) * s.T
        return sum(max(mu, 0) for mu in mpmath.eigsy(p, eigvals_only=True))


def mp_floor_mass(nu_n: float, nu_prev: float, rho: float):
    """Point mass at the shifted floor to 50 digits.

    The mass is the squared distance of the cash column from the span of the
    two rate columns, nu_n nu_{n-1} (1 - rho^2) / ((1 - q)(1 + q)) with q the
    rates' normalised cross moment, or nu_n when the rate columns are
    parallel.  1 - q and 1 + q are taken without cancellation, from
    theta = arcsin(sqrt(nu)).
    """
    with mpmath.workdps(50):
        nu_n, nu_prev, rho = mpmath.mpf(nu_n), mpmath.mpf(nu_prev), mpmath.mpf(rho)
        theta_n, theta_prev = mpmath.asin(mpmath.sqrt(nu_n)), mpmath.asin(mpmath.sqrt(nu_prev))
        root = mpmath.sqrt(nu_n * nu_prev)
        minus = 2 * mpmath.sin((theta_n - theta_prev) / 2) ** 2 + (1 - rho) * root
        plus = 2 * mpmath.cos((theta_n + theta_prev) / 2) ** 2 + (1 + rho) * root
        if minus * plus == 0:
            return nu_n
        return nu_n * nu_prev * (1 - rho * rho) / (minus * plus)


def random_caplet_slices(seed: int, count: int):
    """Non-flat slices with the caplet's period index and its floor strike.

    Half the correlations of the caplet's swap pair are uniform on [-1, 1],
    half lie 10^-u from +-1, u uniform on [1, 15].
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        periods = int(rng.integers(2, 12))
        n = int(rng.integers(2, periods + 1))
        correlations = rng.uniform(-1.0, 1.0, periods - 1)
        if rng.uniform() < 0.5:
            correlations[n - 2] = rng.choice([-1.0, 1.0]) * (1.0 - 10.0 ** -rng.uniform(1.0, 15.0))
        slice_ = SwapCurveSlice(
            discounts=np.exp(-np.cumsum(rng.uniform(0.0, 0.08, periods))),
            daycounts=rng.uniform(0.25, 1.5, periods),
            forwards=rng.uniform(0.001, 0.06, periods),
            root_variances=rng.uniform(1e-4, 0.5, periods),
            adjacent_correlations=correlations,
            shift=float(rng.uniform(0.0, 1.0)),
        )
        yield slice_, n, -slice_.shift / float(slice_.daycounts[n - 1])


class TestCapletPointMass:
    # Correlations this far from +-1 leave Q well conditioned.
    FULL_RANK_GAP = 1e-3

    def test_floor_mass_matches_closed_form(self):
        # det Q / M12 from the model's minors keeps its relative digits also
        # where the rate columns are nearly parallel: measured over 18000
        # such slices (seeds 2000-2029 and 3000-3029), at most 3.7 eps.
        for slice_, n, floor in random_caplet_slices(2027, 400):
            rho = float(slice_.adjacent_correlations[n - 2])
            exact = mp_floor_mass(slice_.root_variances[n - 1], slice_.root_variances[n - 2], rho)
            mass = caplet_point_mass(caplet_basket(slice_, n), floor)
            assert abs(mpmath.mpf(mass) - exact) <= 4.0 * np.finfo(float).eps * exact, (n, rho)

    def test_full_rank_slices_have_no_mass_off_the_floor(self):
        # Sylvester's law of inertia: with Q of full rank, P has a zero
        # eigenvalue only where the cash quantity -k' is zero.
        checked = 0
        for slice_, n, floor in random_caplet_slices(2028, 400):
            if 1.0 - abs(float(slice_.adjacent_correlations[n - 2])) >= self.FULL_RANK_GAP:
                checked += 1
                for strike in (floor - 1e-3, floor + 1e-3, 0.013):
                    assert caplet_point_mass(caplet_basket(slice_, n), strike) == 0.0, (n, strike)
        assert checked > 100

    def test_nearly_singular_full_rank_slices_have_no_mass_off_the_floor(self):
        # The same law nearer +-1, where P's eigenvalue through zero at the
        # floor moves with the strike only at the slope of the tiny floor
        # mass: no threshold on it may put mass off the floor.
        checked = 0
        for slice_, n, floor in random_caplet_slices(2029, 400):
            near = 1.0 - abs(float(slice_.adjacent_correlations[n - 2])) < self.FULL_RANK_GAP
            basket = caplet_basket(slice_, n)
            if near and basket.det > 0.0:
                checked += 1
                for step in (-1e-2, -1e-3, 1e-3, 1e-2):
                    assert caplet_point_mass(basket, floor + step) == 0.0, (n, step)
        assert checked > 100

    def test_deterministic_rates_put_all_mass_at_the_forward(self):
        for alpha in (0.0, 0.5, 1.0):
            slice_ = figure_slice(rho=0.995, alpha=alpha, nu=0.0)
            weights = annuity_weights(slice_, 10)
            forward = weights.forward_from_swaps(slice_.forwards[9], slice_.forwards[8])
            mass = caplet_point_mass(caplet_basket(slice_, 10), forward)
            assert mass == pytest.approx(1.0, abs=1e-12)

    def test_perfectly_anticorrelated_atom_leaves_the_floor(self):
        # rho = -1 makes Q of rank two, P = A_0 - k' s_c s_c^T a 2x2 matrix;
        # by the matrix determinant lemma it is singular at
        # k' = 1 / (s_c^T y), y = A_0^-1 s_c, with null vector y.
        basket = caplet_basket(figure_slice(rho=-1.0, alpha=0.3), 10)
        lam = basket.lam
        assets = [AssetMoments(f, nu) for f, nu in zip(basket.prices, (LOGNORMAL_NU, LOGNORMAL_NU, 0.0))]
        s = factor_psd(assemble_q(assets, [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])).matrix
        cash = s[:, 2]
        y = np.linalg.solve((s * [lam + 1.0, -lam, 0.0]) @ s.T, cash)
        atom = 1.0 / (cash @ y) - basket.strike_shift
        assert atom == pytest.approx(-122.0459, abs=1e-4)
        mass = caplet_point_mass(basket, atom)
        assert mass == pytest.approx((cash @ y) ** 2 / (y @ y), rel=1e-10, abs=0.0)
        assert caplet_point_mass(basket, -0.3) == 0.0

    def test_parallel_rate_columns_give_nu_at_the_floor(self):
        for alpha in (0.0, 0.3, 1.0):
            slice_ = figure_slice(rho=1.0, alpha=alpha)
            mass = caplet_point_mass(caplet_basket(slice_, 10), -alpha)
            assert mass == pytest.approx(LOGNORMAL_NU, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("strike", [math.inf, -math.inf, math.nan])
    def test_non_finite_strike_raises(self, strike):
        with pytest.raises(ParameterOutOfRange, match="finite"):
            caplet_point_mass(caplet_basket(figure_slice(0.995, 0.0), 10), strike)
