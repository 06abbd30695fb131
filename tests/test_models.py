import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from momentbounds import models
from momentbounds.attainment import binomial_calibrate
from momentbounds.errors import (
    AngleOutOfRange,
    ConvergenceFailure,
    DimensionMismatch,
    ParameterOutOfRange,
    PriceOutsideArbitrageBounds,
)
from momentbounds.models import (
    LognormalModel,
    bachelier_call_prices,
    bs_call_prices,
    implied_lognormal_vols,
    implied_normal_vols,
    lognormal_partial_moments,
    norm_cdf,
    norm_pdf,
)
from momentbounds.partition import _quadrature_partial_moment


def erf_normal_cdf(x: float) -> float:
    """Independent normal CDF via math.erf, used as the test-side oracle."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


class TestLognormalModel:
    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            LognormalModel(-1.0, 0.2, 1.0)
        with pytest.raises(ParameterOutOfRange):
            LognormalModel(1.0, -0.2, 1.0)
        with pytest.raises(ParameterOutOfRange):
            LognormalModel(1.0, 0.2, 0.0)

    def test_root_variance_identity(self):
        model = LognormalModel(1.0, 0.4, 1.0)
        assert model.root_variance == pytest.approx(1.0 - math.exp(-0.04), rel=1e-14, abs=0.0)

    def test_moments(self):
        model = LognormalModel(2.0, 0.3, 2.0)
        assert model.moment(1.0) == pytest.approx(2.0, rel=1e-15, abs=0.0)
        assert model.moment(0.0) == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert model.moment(0.5) == pytest.approx(math.sqrt(2.0) * math.exp(-0.3**2 * 2.0 / 8.0))


class TestBlackPrices:
    def test_zero_vol_is_intrinsic(self):
        assert bs_call_prices(1.2, [1.0], 0.0, 1.0)[0] == pytest.approx(0.2, abs=1e-15)
        assert bs_call_prices(1.2, [1.5], 0.0, 1.0)[0] == 0.0

    def test_small_strike_limit(self):
        assert bs_call_prices(1.0, [1e-10], 0.4, 1.0)[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("forward, strike", [(1e-300, 1e300), (1e300, 1e-300)])
    def test_ratio_beyond_float_range_prices_its_limit(self, forward, strike):
        # f / k underflows to zero or overflows: log(f / k) is -inf or inf,
        # and the price its limit, the intrinsic value.
        assert bs_call_prices(forward, [strike], 0.2, 1.0)[0] == max(forward - strike, 0.0)

    def test_atm_value_against_erf_oracle(self):
        expected = 2.0 * erf_normal_cdf(0.2) - 1.0
        assert bs_call_prices(1.0, [1.0], 0.4, 1.0)[0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.158519, abs=5e-7)

    def test_price_within_static_bounds_and_convex(self):
        strikes = np.linspace(0.2, 4.0, 60)
        prices = bs_call_prices(1.0, strikes, 0.4, 1.0)
        assert np.all(prices <= 1.0)
        assert np.all(prices >= np.maximum(1.0 - strikes, 0.0))
        assert np.all(np.diff(prices) <= 0.0)
        assert np.all(np.diff(prices, 2) >= -1e-12)


def scalar_black(forward, strike, sigma, expiry):
    """The Black formula in float arithmetic, one strike at a time."""
    stdev = sigma * math.sqrt(expiry)
    if stdev == 0.0:
        return max(forward - strike, 0.0)
    d1 = (math.log(forward / strike) + 0.5 * stdev * stdev) / stdev
    return forward * norm_cdf(d1) - strike * norm_cdf(d1 - stdev)


def scalar_bachelier(forward, strike, sigma, expiry):
    """The Bachelier formula in float arithmetic, one strike at a time."""
    stdev = sigma * math.sqrt(expiry)
    if stdev == 0.0:
        return max(forward - strike, 0.0)
    d = (forward - strike) / stdev
    return (forward - strike) * norm_cdf(d) + stdev * float(norm_pdf(d))


def raised(fn, *args):
    """(class, message) of the error ``fn(*args)`` raises."""
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def loop_raised(fn, *grids):
    """(class, message) of the first error a loop of one-element calls over
    the broadcast grids raises."""
    for args in zip(*(grid.ravel().tolist() for grid in np.broadcast_arrays(*grids))):
        try:
            fn(*([a] for a in args))
        except Exception as exc:  # noqa: BLE001 - the error is the result
            return type(exc), str(exc)
    raise AssertionError("no element failed")


class TestArrayPricers:
    PRICERS = [(bs_call_prices, scalar_black), (bachelier_call_prices, scalar_bachelier)]

    @pytest.mark.parametrize("pricer, scalar", PRICERS)
    def test_grid_elements_equal_one_element_calls(self, pricer, scalar):
        rng = np.random.default_rng(7)
        for _ in range(20):
            forward = float(rng.uniform(0.2, 5.0))
            strikes = forward * np.exp(rng.normal(0.0, 1.0, (3, 8)))
            sigmas = rng.uniform(0.0, 2.0, 8)
            sigmas[0] = 0.0  # intrinsic
            expiry = float(rng.choice([0.1, 1.0, 5.0]))
            grid = pricer(forward, strikes, sigmas, expiry)
            assert grid.shape == strikes.shape
            for (i, j), k in np.ndenumerate(strikes):
                single = pricer(forward, [k], sigmas[j], expiry)
                assert grid[i, j] == single[0]
                assert grid[i, j] == scalar(forward, float(k), float(sigmas[j]), expiry)

    def test_black_first_bad_element_raises_as_a_loop(self):
        cases = [
            (1.0, [1.0, -1.0, 0.0], 0.3, 1.0),
            ([1.0, -1.0], [-2.0, 1.0], 0.3, 1.0),  # a bad strike before a bad forward
            (1.0, [1.0, 1.2, 0.8], [0.2, -0.1, math.nan], 1.0),
            (1.0, [1.0, 1.2], 0.2, [1.0, 0.0]),
        ]
        for args in cases:
            expected = loop_raised(bs_call_prices, *args)
            assert expected[0] is ParameterOutOfRange
            assert raised(bs_call_prices, *args) == expected
        assert "got -2.0" in raised(bs_call_prices, *cases[1])[1]

    def test_bachelier_first_bad_element_raises_as_a_loop(self):
        cases = [(0.01, [0.0, 0.02], [0.01, -0.01], 1.0), (0.01, 0.0, [0.01, 0.02], [1.0, -1.0])]
        for args in cases:
            expected = loop_raised(bachelier_call_prices, *args)
            assert expected[0] is ParameterOutOfRange
            assert raised(bachelier_call_prices, *args) == expected


class TestImpliedLognormalVol:
    def test_intrinsic_price_gives_zero(self):
        assert implied_lognormal_vols(1.0, [0.8], 1.0, [0.2])[0] == 0.0

    def test_atm_inversion_against_ndtri_oracle(self):
        # 2 Phi(sigma / 2) - 1 = 0.2 inverts to sigma = 2 Phi^{-1}(0.6).
        sigma = implied_lognormal_vols(1.0, [1.0], 1.0, [0.2])[0]
        assert sigma == pytest.approx(2.0 * float(ndtri(0.6)), abs=1e-9)
        assert sigma == pytest.approx(0.50669, abs=5e-6)

    def test_upper_bound_sentinel(self):
        assert implied_lognormal_vols(1.0, [1.0], 1.0, [1.0])[0] == math.inf
        assert implied_lognormal_vols(1.0, [1.0], 1.0, [1.0 - 1e-15])[0] == math.inf

    def test_outside_bounds_raises(self):
        with pytest.raises(PriceOutsideArbitrageBounds):
            implied_lognormal_vols(1.0, [0.8], 1.0, [0.1])
        with pytest.raises(PriceOutsideArbitrageBounds):
            implied_lognormal_vols(1.0, [0.8], 1.0, [1.1])

    def test_round_trip_identity(self):
        for sigma in (0.01, 0.1, 0.4, 1.0, 2.0):
            for k in (0.1, 0.5, 1.0, 2.0, 5.0):
                price = bs_call_prices(1.0, [k], sigma, 1.0)[0]
                time_value = price - max(1.0 - k, 0.0)
                # Skip prices pinned to a boundary: with time value below
                # ~1e-9 the vega is so small that sigma is not identifiable
                # to 1e-8 in double precision.
                if price >= 1.0 - 1e-14 or time_value <= 1e-9:
                    continue
                assert implied_lognormal_vols(1.0, [k], 1.0, [price])[0] == pytest.approx(
                    sigma, abs=1e-8
                )

    def test_reproduces_price(self):
        price = 0.123
        sigma = implied_lognormal_vols(1.0, [1.4], 1.0, [price])[0]
        assert bs_call_prices(1.0, [1.4], sigma, 1.0)[0] == pytest.approx(price, abs=1e-10)


class TestImpliedNormalVol:
    def test_intrinsic(self):
        assert implied_normal_vols(0.02, [0.01], 1.0, [0.01])[0] == 0.0

    def test_atm_identity_exact(self):
        sigma = 0.0123
        price = sigma * math.sqrt(1.0 / (2.0 * math.pi))
        assert implied_normal_vols(0.02, [0.02], 1.0, [price])[0] == pytest.approx(
            sigma, rel=1e-14, abs=0.0
        )

    def test_atm_example(self):
        assert implied_normal_vols(0.02, [0.02], 1.0, [0.002])[0] == pytest.approx(
            0.002 * math.sqrt(2.0 * math.pi), rel=1e-14, abs=0.0
        )

    def test_negative_rates_round_trip(self):
        price = bachelier_call_prices(-0.01, [-0.005], 0.008, 2.0)[0]
        sigma = implied_normal_vols(-0.01, [-0.005], 2.0, [price])[0]
        assert sigma == pytest.approx(0.008, abs=1e-10)

    def test_below_intrinsic_raises(self):
        with pytest.raises(PriceOutsideArbitrageBounds):
            implied_normal_vols(0.02, [0.01], 1.0, [0.005])

    def test_roundoff_above_intrinsic_gives_zero(self):
        # A bound equal to intrinsic in exact arithmetic lands a roundoff
        # either side of it; both sides must give the same vol.
        assert implied_normal_vols(0.02, [-0.01], 1.0, [0.03 + 1.5e-16])[0] == 0.0
        assert implied_normal_vols(0.02, [-0.01], 1.0, [0.03 - 1.5e-16])[0] == 0.0
        assert implied_normal_vols(0.02, [-0.01], 1.0, [0.03 + 2e-11])[0] > 0.0


class TestPartialMoments:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_upper_tail_cell_keeps_relative_digits(self, p):
        # Both CDF values sit within 1e-9 of one; their difference cancels.
        model = LognormalModel(1.0, 0.13243771936956214, 1.0)
        closed = lognormal_partial_moments(model, p, [2.3, 2.31])[0]
        numeric = _quadrature_partial_moment(model, p, 2.3, 2.31)
        assert abs(closed - numeric) <= 1e-12 * numeric

    def test_normalisation(self):
        model = LognormalModel(1.0, 0.4, 1.0)
        assert lognormal_partial_moments(model, 0.0, [0.0, math.inf])[0] == pytest.approx(
            1.0, rel=1e-14, abs=0.0
        )

    def test_martingale_mean(self):
        model = LognormalModel(1.7, 0.3, 0.5)
        assert lognormal_partial_moments(model, 1.0, [0.0, math.inf])[0] == pytest.approx(
            1.7, rel=1e-14, abs=0.0
        )

    def test_half_moment_full_line(self):
        model = LognormalModel(1.0, 0.4, 1.0)
        value = lognormal_partial_moments(model, 0.5, [0.0, math.inf])[0]
        assert value == pytest.approx(math.exp(-0.02), rel=1e-14, abs=0.0)

    def test_half_moment_against_quadrature(self):
        model = LognormalModel(1.0, 0.4, 1.0)
        stdev = 0.4

        def integrand(a):
            z = (math.log(a) + 0.5 * stdev**2) / stdev
            dens = math.exp(-0.5 * z * z) / (a * stdev * math.sqrt(2.0 * math.pi))
            return math.sqrt(a) * dens

        expected, err = quad(integrand, 1e-12, 60.0, limit=200)
        assert err < 1e-8
        assert lognormal_partial_moments(model, 0.5, [0.0, math.inf])[0] == pytest.approx(
            expected, abs=1e-8
        )

    def test_additive_over_adjacent_intervals(self):
        model = LognormalModel(1.0, 0.4, 1.0)
        for p in (0.0, 0.5, 1.0):
            whole = lognormal_partial_moments(model, p, [0.3, 2.7])[0]
            left, right = lognormal_partial_moments(model, p, [0.3, 1.1, 2.7])
            split = left + right
            assert split == pytest.approx(whole, rel=1e-14, abs=0.0)

    def test_partition_sums_to_full_moment(self):
        model = LognormalModel(1.0, 0.4, 1.0)
        edges = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, math.inf]
        for p in (0.0, 0.5, 1.0):
            total = sum(lognormal_partial_moments(model, p, edges).tolist())
            assert total == pytest.approx(model.moment(p), rel=1e-12, abs=0.0)

    def test_zero_vol_point_mass(self):
        model = LognormalModel(1.5, 0.0, 1.0)
        assert lognormal_partial_moments(model, 1.0, [0.0, 2.0, 3.0]).tolist() == [1.5, 0.0]
        assert lognormal_partial_moments(model, 0.5, [1.0, 1.5])[0] == pytest.approx(math.sqrt(1.5))

    @pytest.mark.parametrize(
        "forward, edge, masses", [(1e150, 1e-200, [0.0, 1.0]), (1e-150, 1e200, [1.0, 0.0])]
    )
    def test_edge_ratio_beyond_float_range(self, forward, edge, masses):
        # e / f underflows to zero or overflows: log(e / f) is -inf or inf.
        model = LognormalModel(forward, 0.2, 1.0)
        assert lognormal_partial_moments(model, 0.0, [0.0, edge, math.inf]).tolist() == masses

    def test_invalid_interval(self):
        model = LognormalModel(1.0, 0.4, 1.0)
        with pytest.raises(ParameterOutOfRange):
            lognormal_partial_moments(model, 1.0, [2.0, 1.0])


class TestBinomialModel:
    """The two-state model of ``attainment.binomial_calibrate``."""

    def test_angle_range(self):
        # The weight angle must lie strictly inside (0, pi/2): at either end
        # one state carries zero weight.
        for chi in (0.0, 0.5 * math.pi):
            with pytest.raises(AngleOutOfRange):
                binomial_calibrate(1.0, 0.04, chi)
        # At nu = 1e-40 the branch starts at pi/2 - theta = 0 in floats, and
        # the angle 0 is still rejected.
        with pytest.raises(AngleOutOfRange):
            binomial_calibrate(1.0, 1e-40, 0.0)


class TestGaussLegendre:
    """The shared rule on [-1, 1], mapped to [0, 1] as x = (1 + t) / 2."""

    def test_constant(self):
        _, weights = models._gl_rule(8)
        assert 0.5 * float(np.sum(weights)) == pytest.approx(1.0)

    def test_cubic_exact_with_two_nodes(self):
        nodes, weights = models._gl_rule(2)
        value = 0.5 * float(np.dot(weights, (0.5 + 0.5 * nodes) ** 3))
        assert value == pytest.approx(0.25, abs=1e-15)

    def test_constant_excess_level(self):
        # Limit level of the replication integrand at full dispersion.
        nu = 0.5
        _, weights = models._gl_rule(4)
        assert 0.5 * float(np.dot(weights, np.full(4, 2.0 * nu))) == pytest.approx(1.0)

    def test_norm_cdf_accuracy(self):
        for x in (-3.0, -1.0, 0.0, 0.5, 2.5):
            assert float(norm_cdf(x)) == pytest.approx(erf_normal_cdf(x), abs=1e-15)


class TestNormCdf:
    def test_relative_error_against_exact_arithmetic(self):
        # Within eps (8 + x^2) of 40-digit mpmath, deep into the lower tail:
        # the x^2 term is the rounding of the argument x * sqrt(0.5).
        xs = np.linspace(-37.5, 9.0, 1861)
        values = norm_cdf(xs)
        with mpmath.workdps(40):
            for x, value in zip(xs.tolist(), values.tolist()):
                exact = mpmath.ncdf(x)
                error = abs(mpmath.mpf(value) - exact) / exact
                assert error <= np.finfo(float).eps * (8.0 + x * x), x

    def test_float_and_array_forms_agree(self):
        xs = np.random.default_rng(5).uniform(-38.0, 9.0, 200)
        values = norm_cdf(xs)
        assert values.shape == xs.shape
        assert [norm_cdf(x) for x in xs.tolist()] == values.tolist()
        assert norm_cdf(xs.reshape(4, 50)).tolist() == values.reshape(4, 50).tolist()
        assert norm_cdf(-math.inf) == 0.0 and norm_cdf(math.inf) == 1.0


class TestVolBracket:
    def test_vol_above_bracket_fails_loudly(self):
        # A price requiring sigma > 10 is reported, not extrapolated.
        price = bs_call_prices(1.0, [1.0], 12.0, 1.0)[0]
        if price < 1.0 - 1e-14:
            with pytest.raises(ConvergenceFailure):
                implied_lognormal_vols(1.0, [1.0], 1.0, [price])


# ---------------------------------------------------------------------------
# Array inversions against the strike-by-strike bisection they replaced.
#
# Newton and bisection stop at different roundings of the same root.  Each
# vol is held to the bisection within C eps sigma (1 + c / (s vega)), where c
# is the roundoff scale of the call price, so c eps bounds its rounding error,
# and s vega is the price's change per unit relative change in sigma.  Over
# 200 seeds of the grids below the largest factor measured was 15.1 (Black)
# and 7.9 (Bachelier).
ROUNDOFF_FACTOR = 32.0


def black_roundoff(forward, strike, expiry, sigma):
    """(c, s vega) of the Black call: c = F N(d1) + K N(d2)."""
    stdev = sigma * math.sqrt(expiry)
    d1 = math.log(forward / strike) / stdev + 0.5 * stdev
    scale = forward * norm_cdf(d1) + strike * norm_cdf(d1 - stdev)
    return scale, stdev * forward * float(norm_pdf(d1))


def bachelier_roundoff(forward, strike, expiry, sigma):
    """(c, s vega) of the Bachelier call: c = |f - k| N(d) + s phi(d)."""
    stdev = sigma * math.sqrt(expiry)
    d = (forward - strike) / stdev
    density = float(norm_pdf(d))
    return abs(forward - strike) * norm_cdf(d) + stdev * density, stdev * density


def assert_near_oracle(vols, expected, roundoff, forward, strikes, expiry):
    """Zero and infinite vols equal the oracle's; the rest lie within the
    roundoff bound of it."""
    eps = np.finfo(float).eps
    for vol, ref, k in zip(np.asarray(vols).tolist(), expected, strikes):
        if ref in (0.0, math.inf):
            assert vol == ref
            continue
        scale, slope = roundoff(forward, float(k), expiry, ref)
        assert abs(vol - ref) <= ROUNDOFF_FACTOR * eps * ref * (1.0 + scale / slope), (k, vol, ref)


def scalar_lognormal_vol(forward, strike, expiry, price):
    """Frozen copy of the one-strike Black bisection, the array form's oracle."""
    if not forward > 0.0 or not strike > 0.0 or not expiry > 0.0:
        raise ParameterOutOfRange("forward, strike and expiry must be positive")
    intrinsic = max(forward - strike, 0.0)
    slack = 1e-12 * max(1.0, forward)
    if price < intrinsic - slack or price > forward + slack:
        raise PriceOutsideArbitrageBounds(f"price {price} outside bounds")
    if price >= forward - 1e-14:
        return math.inf
    if price <= intrinsic + slack:
        return 0.0
    lo, hi = 1e-8, 10.0

    def value(sigma):
        return bs_call_prices(forward, [strike], sigma, expiry)[0]

    if value(hi) < price:
        raise ConvergenceFailure("above bracket")
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if value(mid) < price:
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)
    if abs(value(sigma) - price) > 1e-10:
        raise ConvergenceFailure("residual")
    return sigma


def scalar_normal_vol(forward, strike, expiry, price):
    """Frozen copy of the one-strike Bachelier bisection, the array form's oracle."""
    if not expiry > 0.0:
        raise ParameterOutOfRange("expiry must be positive")
    intrinsic = max(forward - strike, 0.0)
    scale = max(1.0, abs(forward), abs(strike))
    if price < intrinsic - 1e-12 * scale:
        raise PriceOutsideArbitrageBounds("below intrinsic")
    if price <= intrinsic + 1e-12 * scale:
        return 0.0
    if forward == strike:
        return price * math.sqrt(2.0 * math.pi / expiry)
    lo = 0.0
    hi = 2.0 * (price + abs(forward - strike)) / math.sqrt(expiry / (2.0 * math.pi))
    for _ in range(200):
        if bachelier_call_prices(forward, [strike], hi, expiry)[0] >= price:
            break
        hi *= 2.0
    else:
        raise ConvergenceFailure("could not bracket")
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if bachelier_call_prices(forward, [strike], mid, expiry)[0] < price:
            lo = mid
        else:
            hi = mid
    sigma = 0.5 * (lo + hi)
    if abs(bachelier_call_prices(forward, [strike], sigma, expiry)[0] - price) > 1e-10:
        raise ConvergenceFailure("residual")
    return sigma


def first_scalar_error(oracle, forward, strikes, expiry, prices):
    """(index, error class) of the first strike the scalar loop fails on."""
    for i, (k, p) in enumerate(zip(strikes, prices)):
        try:
            oracle(forward, float(k), expiry, float(p))
        except Exception as exc:  # noqa: BLE001 - the class is the result
            return i, type(exc)
    return None


def lognormal_grid(rng, size=60):
    forward = float(rng.uniform(0.2, 5.0))
    expiry = float(rng.choice([0.1, 1.0, 5.0]))
    strikes = forward * np.exp(rng.normal(0.0, 1.0, size))
    strikes[0] = forward  # at the money
    sigmas = rng.uniform(0.0, 3.0, size)
    prices = bs_call_prices(forward, strikes, sigmas, expiry)
    strikes[1], prices[1] = 0.05 * forward, 0.95 * forward  # deep in the money, zero vol
    prices[2] = forward  # upper bound: inf
    prices[3] = forward - 1e-15  # within the margin of the upper bound: inf
    return forward, strikes, expiry, prices


def normal_grid(rng, size=60):
    forward = float(rng.normal(0.0, 0.03))  # negative forwards too
    expiry = float(rng.choice([0.1, 1.0, 5.0, 30.0]))
    strikes = forward + rng.normal(0.0, 0.03, size)  # negative strikes too
    strikes[0] = forward  # exact ATM identity
    sigmas = np.abs(rng.normal(0.01, 0.01, size))
    prices = bachelier_call_prices(forward, strikes, sigmas, expiry)
    prices[1] = max(forward - strikes[1], 0.0)  # at intrinsic: zero vol
    strikes[2] = forward - 0.05
    prices[2] = 0.05 * (1.0 - 1e-13)  # inside the below-intrinsic slack: zero vol
    return forward, strikes, expiry, prices


class TestArrayInversions:
    @pytest.mark.parametrize("seed", range(20))
    def test_lognormal_matches_scalar_bisection_exactly(self, seed):
        # Exactly at zero and infinite vols; elsewhere within roundoff.
        forward, strikes, expiry, prices = lognormal_grid(np.random.default_rng(seed))
        vols = implied_lognormal_vols(forward, strikes, expiry, prices)
        expected = [scalar_lognormal_vol(forward, float(k), expiry, float(p)) for k, p in zip(strikes, prices)]
        assert_near_oracle(vols, expected, black_roundoff, forward, strikes, expiry)
        assert vols[1] == 0.0 and vols[2] == math.inf and vols[3] == math.inf

    @pytest.mark.parametrize("seed", range(20))
    def test_normal_matches_scalar_bisection_exactly(self, seed):
        forward, strikes, expiry, prices = normal_grid(np.random.default_rng(seed))
        vols = implied_normal_vols(forward, strikes, expiry, prices)
        expected = [scalar_normal_vol(forward, float(k), expiry, float(p)) for k, p in zip(strikes, prices)]
        assert_near_oracle(vols, expected, bachelier_roundoff, forward, strikes, expiry)
        assert vols[0] == expected[0]  # the exact ATM identity
        assert vols[1] == 0.0 and vols[2] == 0.0

    def test_scalar_forms_are_the_one_element_case(self):
        forward, strikes, expiry, prices = lognormal_grid(np.random.default_rng(99), size=8)
        vols = [implied_lognormal_vols(forward, [k], expiry, [p])[0] for k, p in zip(strikes, prices)]
        expected = [scalar_lognormal_vol(forward, float(k), expiry, float(p)) for k, p in zip(strikes, prices)]
        assert_near_oracle(vols, expected, black_roundoff, forward, strikes, expiry)
        forward, strikes, expiry, prices = normal_grid(np.random.default_rng(99), size=8)
        vols = [implied_normal_vols(forward, [k], expiry, [p])[0] for k, p in zip(strikes, prices)]
        expected = [scalar_normal_vol(forward, float(k), expiry, float(p)) for k, p in zip(strikes, prices)]
        assert_near_oracle(vols, expected, bachelier_roundoff, forward, strikes, expiry)
        assert vols[0] == expected[0]

    def test_grid_elements_are_their_one_element_calls(self):
        # Elements iterate independently, so a grid changes no element's steps.
        for seed in range(20):
            for grid, invert in ((lognormal_grid, implied_lognormal_vols), (normal_grid, implied_normal_vols)):
                forward, strikes, expiry, prices = grid(np.random.default_rng(seed))
                vols = invert(forward, strikes, expiry, prices)
                alone = [invert(forward, [k], expiry, [p])[0] for k, p in zip(strikes, prices)]
                assert vols.tolist() == alone

    def test_normal_forward_per_strike_matches_per_curve_calls(self):
        grids = [normal_grid(np.random.default_rng(seed), size=20) for seed in (3, 4, 5)]
        forwards = np.concatenate([np.full(20, f) for f, _, _, _ in grids])
        strikes = np.concatenate([k for _, k, _, _ in grids])
        prices = np.concatenate([p for _, _, _, p in grids])
        vols = implied_normal_vols(forwards, strikes, 2.0, prices)
        expected = np.concatenate([implied_normal_vols(f, k, 2.0, p) for f, k, _, p in grids])
        assert vols.tolist() == expected.tolist()

    def test_cdf_calls_per_inversion_bounded(self, monkeypatch):
        # One CDF call per Newton step, plus the checks: for Black two for the
        # bracket and two for the residual, for Bachelier one for the
        # residual.  Bisection took about 59 steps of two calls (Black) or one
        # (Bachelier).
        calls = []

        def counting(x):
            calls.append(1)
            return norm_cdf(x)

        monkeypatch.setattr(models, "norm_cdf", counting)
        most = {}
        for seed in range(20):
            for grid, invert, checks in (
                (lognormal_grid, implied_lognormal_vols, 4),
                (normal_grid, implied_normal_vols, 1),
            ):
                forward, strikes, expiry, prices = grid(np.random.default_rng(seed))
                for k, p in zip(strikes, prices):
                    calls.clear()
                    invert(forward, [k], expiry, [p])
                    most[invert] = max(most.get(invert, 0), len(calls) - checks)
        assert 0 < most[implied_lognormal_vols] <= 22
        assert 0 < most[implied_normal_vols] <= 9

    def test_grid_shapes_checked(self):
        with pytest.raises(DimensionMismatch):
            implied_normal_vols(0.02, [0.01, 0.02], 1.0, [0.01])
        with pytest.raises(DimensionMismatch):
            implied_normal_vols([0.02, 0.02, 0.02], [0.01, 0.02], 1.0, [0.01, 0.001])
        with pytest.raises(DimensionMismatch):
            implied_lognormal_vols(1.0, [[1.0]], 1.0, [[0.1]])
        assert implied_lognormal_vols(1.0, [], 1.0, []).shape == (0,)


class TestArrayInversionErrors:
    """A bad element raises what the strike-by-strike loop raised first."""

    @staticmethod
    def check(array_form, oracle, forward, strikes, expiry, prices):
        expected_index, expected = first_scalar_error(oracle, forward, strikes, expiry, prices)
        with pytest.raises(expected) as info:
            array_form(forward, np.asarray(strikes), expiry, np.asarray(prices))
        assert f"strike {float(strikes[expected_index])}" in str(info.value)

    def test_lognormal_first_failure_wins(self):
        good = bs_call_prices(1.0, [1.2], 0.3, 1.0)[0]
        above_bracket = bs_call_prices(1.0, [1.0], 12.0, 1.0)[0]
        cases = [
            # below intrinsic before above forward
            ([1.2, 0.8, 1.0, 0.9], [good, 0.1, 1.1, 0.2]),
            # above forward before below intrinsic
            ([1.2, 1.3, 0.8], [good, 1.1, 0.1]),
            # above bracket before below intrinsic
            ([1.2, 1.0, 0.8], [good, above_bracket, 0.1]),
            # below intrinsic before above bracket
            ([0.8, 1.2, 1.0], [0.1, good, above_bracket]),
            # non-positive strike after an above-bracket price
            ([1.2, 1.0, -1.0], [good, above_bracket, 0.1]),
        ]
        for strikes, prices in cases:
            self.check(implied_lognormal_vols, scalar_lognormal_vol, 1.0, strikes, 1.0, prices)

    def test_normal_first_failure_wins(self):
        good = bachelier_call_prices(-0.01, [-0.005], 0.008, 2.0)[0]
        # the first of two below-intrinsic prices
        strikes, prices = [-0.005, -0.02, -0.03], [good, 0.001, 0.002]
        self.check(implied_normal_vols, scalar_normal_vol, -0.01, strikes, 2.0, prices)

    def test_normal_per_strike_forwards_first_failure_wins(self):
        # Two curves in one call: the first curve's failure comes first in
        # grid order, though the second curve's sits at a lower index within
        # its own curve.
        forwards = [0.01, 0.01, 0.01, 0.02, 0.02, 0.02]
        strikes = [0.0, 0.01, 0.005, -0.01, 0.0, 0.02]
        prices = [0.011, 0.004, 0.001, 0.0, 0.021, 0.004]
        with pytest.raises(PriceOutsideArbitrageBounds) as info:
            implied_normal_vols(np.array(forwards), strikes, 1.0, prices)
        assert "strike 0.005" in str(info.value)
        with pytest.raises(PriceOutsideArbitrageBounds) as info:
            implied_normal_vols(np.array(forwards[3:]), strikes[3:], 1.0, prices[3:])
        assert "strike -0.01" in str(info.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prices_rejected_up_front(self, bad):
        def fails_at(array_form, forward, strikes, expiry, prices, error):
            with pytest.raises(error) as info:
                array_form(forward, np.asarray(strikes), expiry, np.asarray(prices))
            return str(info.value)

        good = bachelier_call_prices(-0.01, [-0.005], 0.008, 2.0)[0]
        normal = (implied_normal_vols, -0.01)
        # a non-finite price before a below-intrinsic one, and after it
        assert "strike -0.003" in fails_at(
            *normal, [-0.005, -0.003, -0.02], 2.0, [good, bad, 0.001], PriceOutsideArbitrageBounds
        )
        assert "strike -0.02" in fails_at(
            *normal, [-0.005, -0.02, -0.003], 2.0, [good, 0.001, bad], PriceOutsideArbitrageBounds
        )
        good = bs_call_prices(1.0, [1.2], 0.3, 1.0)[0]
        above_bracket = bs_call_prices(1.0, [1.0], 12.0, 1.0)[0]
        lognormal = (implied_lognormal_vols, 1.0)
        # before and after an above-bracket price, and after a bad strike
        assert "strike 0.9" in fails_at(
            *lognormal, [1.2, 0.9, 1.0], 1.0, [good, bad, above_bracket], PriceOutsideArbitrageBounds
        )
        assert "strike 1.0" in fails_at(
            *lognormal, [1.2, 1.0, 0.9], 1.0, [good, above_bracket, bad], ConvergenceFailure
        )
        fails_at(*lognormal, [1.2, -1.0, 0.9], 1.0, [good, 0.1, bad], ParameterOutOfRange)

    def test_bad_forward_or_expiry(self):
        with pytest.raises(ParameterOutOfRange):
            implied_lognormal_vols(-1.0, [1.0], 1.0, [0.1])
        with pytest.raises(ParameterOutOfRange):
            implied_lognormal_vols(1.0, [1.0], 0.0, [0.1])
        with pytest.raises(ParameterOutOfRange):
            implied_normal_vols(0.01, [0.01], 0.0, [0.001])
