import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtri

from momentbounds import models
from momentbounds.attainment import binomial_calibrate
from momentbounds.cli import load_config
from momentbounds.errors import (
    AngleOutOfRange,
    ConvergenceFailure,
    DimensionMismatch,
    ParameterOutOfRange,
    PriceOutsideArbitrageBounds,
)
from momentbounds.markets import caplet_cdf_scan
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


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


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
            (1.0, [1.0, 1.2], [0.2, -0.1], [0.0, 1.0]),  # a bad expiry before a bad sigma
        ]
        for args in cases:
            expected = loop_raised(bs_call_prices, *args)
            assert expected[0] is ParameterOutOfRange
            assert raised(bs_call_prices, *args) == expected
        assert "got -2.0" in raised(bs_call_prices, *cases[1])[1]

    def test_bachelier_first_bad_element_raises_as_a_loop(self):
        cases = [
            (0.01, [0.0, 0.02], [0.01, -0.01], 1.0),
            (0.01, 0.0, [0.01, 0.02], [1.0, -1.0]),
            (0.01, 0.0, [0.01, -0.01], [-1.0, 1.0]),  # a bad expiry before a bad vol
        ]
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


    @pytest.mark.parametrize("power", [-20, 20, 200, 1000])
    def test_scaled_prices_invert_to_scaled_vols(self, power):
        # f, k and the prices scaled by a power of two scale the vols, up to
        # the roundoff of the start; the residual check scales with |f| and
        # |k| above 1, where a price's roundoff grows with it.
        c = 2.0**power
        strikes = 0.03 + np.linspace(-0.04, 0.04, 17)
        prices = bachelier_call_prices(0.03, strikes, 0.01, 2.0)
        vols = implied_normal_vols(0.03, strikes, 2.0, prices)
        scaled = implied_normal_vols(c * 0.03, c * strikes, 2.0, c * prices)
        assert np.all(np.abs(scaled / c - vols) <= 1e-14 * vols)


def mp_partial_moment(model, p, lo, hi):
    """E[a^p 1{lo < a <= hi}] at 40 digits: f^p exp(p (p - 1) v / 2) times the
    normal mass between the edges, taken on the side of the median where it
    does not cancel."""
    with mpmath.workdps(40):
        f, p = mpmath.mpf(model.forward), mpmath.mpf(p)
        v = mpmath.mpf(model.sigma) ** 2 * mpmath.mpf(model.expiry)

        def h(edge):
            if edge == 0.0 or math.isinf(edge):
                return mpmath.inf if edge else -mpmath.inf
            return (mpmath.log(mpmath.mpf(edge) / f) + (0.5 - p) * v) / mpmath.sqrt(v)

        a, b = h(lo), h(hi)
        mass = mpmath.ncdf(-a) - mpmath.ncdf(-b) if a > 0 else mpmath.ncdf(b) - mpmath.ncdf(a)
        return f**p * mpmath.exp(p * (p - 1) * v / 2) * mass


def head_interior_tail_cells(seed=0, count=200):
    """Models with forwards in (e^-3, e^3), vols in (0.05, 1.5) and expiries in
    (0.1, 5), each with the cells (0, k_1], (k_1, k_2] and (k_2, inf) for two
    strikes up to six standard deviations from the median."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        model = LognormalModel(math.exp(rng.uniform(-3.0, 3.0)), rng.uniform(0.05, 1.5), rng.uniform(0.1, 5.0))
        stdev = model.sigma * math.sqrt(model.expiry)
        z = np.sort(rng.uniform(-6.0, 6.0, 2))
        yield model, [0.0, *(model.forward * np.exp(z * stdev - 0.5 * stdev * stdev)), math.inf]


# Relative error of the closed-form partial moments against the 40-digit
# oracle, measured at 2.0e-14 on head and tail cells and 4.2e-14 on interior
# ones over five seeds of ``head_interior_tail_cells``, and 3.4e-14 on the
# narrow upper-tail cell of ``test_upper_tail_cell_keeps_relative_digits``.
# Gauss-Legendre quadrature on 64 nodes reached only 2.4e-12 on such cells.
PARTIAL_MOMENT_REL = 1e-13

ORACLE_CASES = {
    "head-interior-tail": list(head_interior_tail_cells()),
    "six-cells": [(LognormalModel(1.0, 0.4, 1.0), [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, math.inf])],
}


class TestPartialMoments:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    def test_upper_tail_cell_keeps_relative_digits(self, p):
        # Both CDF values sit within 1e-9 of one; their difference cancels.
        model = LognormalModel(1.0, 0.13243771936956214, 1.0)
        closed = lognormal_partial_moments(model, p, [2.3, 2.31])[0]
        exact = mp_partial_moment(model, p, 2.3, 2.31)
        assert abs(closed - exact) <= PARTIAL_MOMENT_REL * exact

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_cells_match_40_digit_oracle(self, case):
        orders = (0.0, 0.5, 1.0)
        for model, edges in ORACLE_CASES[case]:
            table = lognormal_partial_moments(model, orders, edges)
            for row, p in zip(table, orders):
                for value, lo, hi in zip(row.tolist(), edges[:-1], edges[1:]):
                    exact = mp_partial_moment(model, p, lo, hi)
                    assert abs(value - exact) <= PARTIAL_MOMENT_REL * exact, (model, p, lo, hi)

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

    def test_above_bracket_message_names_the_bracket(self):
        good = bs_call_prices(1.0, [1.2], 0.3, 1.0)[0]
        above_bracket = bs_call_prices(1.0, [1.0], 12.0, 1.0)[0]
        message = f"implied lognormal vol above bracket 10.0 for price {above_bracket} at strike 1.0"
        with pytest.raises(ConvergenceFailure, match=f"^{message}$"):
            implied_lognormal_vols(1.0, [1.2, 1.0], 1.0, [good, above_bracket])

    def test_a_price_the_bracket_top_reproduces_returns_the_top(self):
        # Above the bracket-top price, but within PRICE_TOL of it: Halley pins
        # the vol at the top, whose residual passes.
        price = bs_call_prices(1.0, [1.0], 10.0, 1.0)[0] + 0.5 * models.PRICE_TOL
        (vol,) = implied_lognormal_vols(1.0, [1.0], 1.0, [price])
        assert vol == pytest.approx(10.0, rel=1e-12)

    def test_one_pricing_pass_after_the_solve(self, monkeypatch):
        log = []
        price, solve = models.bs_call_prices, models._halley
        strikes = np.linspace(0.5, 2.0, 7)
        prices = price(1.0, strikes, 0.3, 1.0)
        monkeypatch.setattr(models, "bs_call_prices", lambda *args: log.append("price") or price(*args))
        monkeypatch.setattr(models, "_halley", lambda *args: log.append("solve") or solve(*args))
        vols = implied_lognormal_vols(1.0, strikes, 1.0, prices)
        assert log == ["solve", "price"]
        assert vols == pytest.approx(0.3, rel=1e-9)


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


def counted_cdf_calls(monkeypatch) -> list:
    """Log of the calls to ``models.norm_cdf``, one per time-value evaluation."""
    calls = []

    def counting(x):
        calls.append(1)
        return norm_cdf(x)

    monkeypatch.setattr(models, "norm_cdf", counting)
    return calls


def strike_for_ratio(forward, ratio):
    """The strike within a few ulps of ``forward / ratio`` at which the
    division ``forward / k`` rounds to exactly ``ratio``."""
    k = forward / ratio
    for ulps in range(9):
        for candidate in (k + ulps * math.ulp(k), k - ulps * math.ulp(k)):
            if forward / candidate == ratio:
                return candidate
    raise AssertionError(f"no strike gives f / k = {ratio!r}")


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
        # One CDF call per Halley step, plus the residual check: two calls for
        # Black, one for Bachelier.  An element stops on its first accepted
        # step of at most 1e-6 s, whose successor would only confirm the root
        # below roundoff.  Over 200 seeds of these grids the most steps
        # measured were 8 (Black) and 1 (Bachelier), and 7 and 1 over the 20
        # seeds below; the bound keeps one step of headroom for roundoff.
        # The cached Bachelier start lies within 1e-7 of each root, so one
        # step lands on it.  Without that stop rule every strike takes a
        # confirming step: 13 and 6 over 200 seeds.  Newton took 19 and 9,
        # and bisection about 59 steps of two calls (Black) or one
        # (Bachelier).
        models._normal_start_table()  # built once per process, outside the count
        calls = counted_cdf_calls(monkeypatch)
        most = {}
        for seed in range(20):
            for grid, invert, checks in (
                (lognormal_grid, implied_lognormal_vols, 2),
                (normal_grid, implied_normal_vols, 1),
            ):
                forward, strikes, expiry, prices = grid(np.random.default_rng(seed))
                for k, p in zip(strikes, prices):
                    calls.clear()
                    invert(forward, [k], expiry, [p])
                    most[invert] = max(most.get(invert, 0), len(calls) - checks)
        assert 0 < most[implied_lognormal_vols] <= 8
        assert 0 < most[implied_normal_vols] <= 2

    @pytest.mark.parametrize("name", ["caplet_cdf", "caplet_bound"])
    def test_shipped_caplet_grids_invert_next_to_their_roots(self, monkeypatch, name):
        # A caplet job inverts its whole strike x slice grid of bounds in one
        # call, as ``cli`` does.  The cached start lies within 1e-7 of each
        # root, so one Halley evaluation lands every element on it; without
        # the small-step stop, confirming that step takes 3 evaluations
        # (caplet_cdf) or 2 (caplet_bound).  The bound keeps one of headroom
        # for roundoff.  From the far-from-the-money or at-the-money start it
        # took 5 on both.
        plan = load_config(CONFIG_DIR / f"{name}.json").plan
        strikes, baskets = plan["strikes"], [basket for *_, basket in plan["slices"]]
        bounds = caplet_cdf_scan(baskets, strikes).bounds.ravel()
        forwards = np.repeat([basket.forward for basket in baskets], strikes.size)
        models._normal_start_table()
        calls = counted_cdf_calls(monkeypatch)
        implied_normal_vols(forwards, np.tile(strikes, len(baskets)), plan["expiry"], bounds)
        assert 0 < len(calls) - 1 <= 2

    @pytest.mark.parametrize("forward", [1.0, 3.3])
    def test_strike_a_rounding_from_the_forward(self, monkeypatch, forward):
        # log(f / k) is an ulp or two from zero, so the Manaster-Koehler start
        # sqrt(2 |x|) is about 2e-8; the at-the-money estimate starts next to
        # the root instead.  Newton from sqrt(2 |x|) took 13-15 steps here.
        eps = math.ulp(1.0)
        ratios = [1.0 - 2.0 * eps, 1.0 - eps, 1.0 + eps, 1.0 + 2.0 * eps]
        strikes = [strike_for_ratio(forward, ratio) for ratio in ratios]
        calls = counted_cdf_calls(monkeypatch)
        for expiry in (0.1, 1.0, 5.0):
            for sigma in (0.1, 0.3, 0.6):
                prices = bs_call_prices(forward, strikes, sigma, expiry)
                for k, p in zip(strikes, prices):
                    calls.clear()
                    vol = implied_lognormal_vols(forward, [k], expiry, [p])
                    assert len(calls) - 4 <= 5, (k, sigma, expiry)
                    expected = [scalar_lognormal_vol(forward, k, expiry, float(p))]
                    assert_near_oracle(vol, expected, black_roundoff, forward, [k], expiry)

    def test_roundoff_stagnation_stops_the_iteration(self, monkeypatch):
        # A price 7e-13 below the forward: the vega is so small that
        # roundoff in the time value drives the steps, which stop shrinking
        # while the log residual is below ``_LOG_RESIDUAL_FLOOR``.  That rule
        # stops it after 18 evaluations; without it the steps wander until
        # ``_ITERATIONS`` (90).  The bound keeps one of headroom.
        forward, expiry, k = 2.9081767258899833, 13.794865393247779, 1.2129856629619904
        price = 2.9081767258892928
        calls = counted_cdf_calls(monkeypatch)
        vol = implied_lognormal_vols(forward, [k], expiry, [price])
        assert 0 < len(calls) - 2 <= 19
        assert abs(bs_call_prices(forward, k, vol, expiry)[0] - price) <= models.PRICE_TOL

    def test_grid_shapes_checked(self):
        with pytest.raises(DimensionMismatch):
            implied_normal_vols(0.02, [0.01, 0.02], 1.0, [0.01])
        with pytest.raises(DimensionMismatch):
            implied_normal_vols([0.02, 0.02, 0.02], [0.01, 0.02], 1.0, [0.01, 0.001])
        with pytest.raises(DimensionMismatch):
            implied_lognormal_vols(1.0, [[1.0]], 1.0, [[0.1]])
        assert implied_lognormal_vols(1.0, [], 1.0, []).shape == (0,)


def normalised_time_value(d) -> float:
    """phi(d) - d N(-d) to 40 digits, rounded: the out-of-the-money
    Bachelier time value at s = 1 and |f - k| = d."""
    with mpmath.workdps(40):
        d = mpmath.mpf(d)
        return float(mpmath.npdf(d) - d * mpmath.ncdf(-d))


class TestNormalStart:
    """The start of the Bachelier inversion: s = 1 is the root at a = d,
    q = phi~(d), and the start is homogeneous in (a, q)."""

    def test_table_is_cached_increasing_and_read_only(self):
        table = models._normal_start_table()
        assert models._normal_start_table() is table
        u, d, slope = table
        assert u.size == d.size == slope.size == 200
        assert np.all(np.diff(u) > 0.0) and np.all(np.diff(d) > 0.0) and np.all(slope > 0.0)
        assert d[0] == pytest.approx(1e-3, rel=1e-15) and d[-1] == pytest.approx(7.0, rel=1e-15)
        assert not any(nodes.flags.writeable for nodes in table)

    def test_table_covers_every_solved_strike(self):
        # implied_normal_vols solves a strike only if its time value q is
        # above 1e-12 max(1, |f|, |k|) >= 5e-13 |f - k|, so u < log 2e12,
        # where d = 6.58.
        assert models._normal_start_table()[0][-1] > math.log(2e12)

    @pytest.mark.parametrize("scale", [1.0, 3e-5, 2e4])
    def test_start_within_1e_6_of_the_root_across_the_table(self, scale):
        ds = np.geomspace(1.2e-3, 6.6, 1500)
        q = np.array([normalised_time_value(d) for d in ds.tolist()])
        start = models._normal_start(scale * ds, scale * q)
        assert np.max(np.abs(start / scale - 1.0)) <= 1e-6

    def test_below_the_table_the_at_the_money_expansion(self):
        ds = np.array([1e-9, 1e-6, 5e-4, 9e-4])
        q = np.array([normalised_time_value(d) for d in ds.tolist()])
        assert np.all(np.log(ds) - np.log(q) < models._normal_start_table()[0][0])
        start = models._normal_start(ds, q)
        assert start.tolist() == (math.sqrt(2.0 * math.pi) * (q + 0.5 * ds)).tolist()
        assert np.max(np.abs(start - 1.0)) <= 1e-6


# Stress ranges of the round trip: vols from 1e-7 to 9 and expiries from
# under three days to 30 years, with strikes drawn in standard deviations
# z = log(f / k) / s (Black) or z = (f - k) / s (Bachelier), s = sigma sqrt(T).
stress_vols = st.floats(1e-7, 9.0)
stress_expiries = st.floats(0.007, 30.0)
stress_z = st.floats(-6.0, 6.0)


class TestStressRoundTrip:
    """Price, invert, and hold the vol to the roundoff bound of the oracle
    tests, with the pricing vol as the oracle."""

    @settings(deadline=None, max_examples=60)
    @given(st.floats(0.01, 100.0), stress_vols, stress_expiries, stress_z)
    # price - intrinsic is 2.70006e-11, above 1e-12 f = 2.7e-11, yet
    # intrinsic + 2.7e-11 rounds to the price: the library reads it as at
    # intrinsic, so a filter on the difference admitted it.
    @example(27.0, 4.842470462386931, 0.9997987896909023, 4.692777042674852)
    def test_black(self, forward, sigma, expiry, z):
        strike = forward * math.exp(-z * sigma * math.sqrt(expiry))
        price = bs_call_prices(forward, [strike], sigma, expiry)[0]
        assume(price < forward - models.UPPER_BOUND_MARGIN)
        vols = implied_lognormal_vols(forward, [strike], expiry, [price])
        # The library's own comparison: within the slack of intrinsic, vol 0.
        if price <= max(forward - strike, 0.0) + 1e-12 * max(1.0, forward):
            assert vols[0] == 0.0
        else:
            assert_near_oracle(vols, [sigma], black_roundoff, forward, [strike], expiry)

    @settings(deadline=None, max_examples=60)
    @given(st.floats(-0.1, 0.1), stress_vols, stress_expiries, stress_z)
    def test_bachelier(self, forward, sigma, expiry, z):
        strike = forward - z * sigma * math.sqrt(expiry)
        price = bachelier_call_prices(forward, [strike], sigma, expiry)[0]
        vols = implied_normal_vols(forward, [strike], expiry, [price])
        # The library's own comparison: within the slack of intrinsic, vol 0.
        if price <= max(forward - strike, 0.0) + 1e-12 * max(1.0, abs(forward), abs(strike)):
            assert vols[0] == 0.0
        else:
            assert_near_oracle(vols, [sigma], bachelier_roundoff, forward, [strike], expiry)


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
