import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentbounds import vanilla as vanilla_module
from momentbounds.engine import factor_psd, positive_eigenvalue_bounds
from momentbounds.errors import (
    ConvergenceFailure,
    NonFiniteResult,
    ParameterOutOfRange,
    PriceOutsideArbitrageBounds,
    ShapeViolation,
)
from momentbounds.models import LognormalModel, bs_call_prices
from momentbounds.moments import AssetMoments, assemble_q
from momentbounds.vanilla import (
    VanillaBoundCurve,
    check_decreasing_convex,
    implied_cdfs,
    smile_curves,
    vanilla_bounds,
)


def engine_bounds(f, nu, strikes):
    """The vanilla bound through the general engine: the asset paired with
    the constant asset 1, quantities (1, -k) per strike."""
    q = assemble_q([AssetMoments(f, nu), AssetMoments(1.0, 0.0)], np.eye(2))
    quantities = np.column_stack([np.ones(len(strikes)), -np.asarray(strikes, dtype=float)])
    return positive_eigenvalue_bounds(factor_psd(q), quantities).bounds


def mp_otm_bound(f, nu, k):
    """2 f k nu / (sqrt(D) + k - f), D = (f - k)^2 + 4 f k nu, at 60 digits."""
    with mpmath.workdps(60):
        f, nu, k = mpmath.mpf(f), mpmath.mpf(nu), mpmath.mpf(k)
        return 2 * f * k * nu / (mpmath.sqrt((f - k) ** 2 + 4 * f * k * nu) + k - f)


class TestVanillaBound:
    def test_zero_variance_is_intrinsic(self):
        assert vanilla_bounds(1.0, 0.0, [0.8, 2.0]).tolist() == [1.0 - 0.8, 0.0]

    def test_atm_reduces_to_sqrt(self):
        for f, nu in ((1.0, 0.04), (0.5, 0.25), (2.0, 0.01)):
            assert vanilla_bounds(f, nu, [f])[0] == math.sqrt(f * f * nu)

    def test_full_variance_is_forward(self):
        bounds = vanilla_bounds(1.0, 1.0, [0.3, 1.0, 4.0])
        assert bounds == pytest.approx([1.0] * 3, rel=1e-14, abs=0.0)

    def test_quadratic_root_value(self):
        # f = 1, k = 0.8, nu = 0.04.
        expected = 0.5 * 0.2 + 0.5 * math.sqrt(0.04 + 0.128)
        assert vanilla_bounds(1.0, 0.04, [0.8])[0] == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_satisfies_quadratic_equation(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            f = rng.uniform(0.2, 3.0)
            nu = rng.uniform(0.0, 1.0)
            k = rng.uniform(0.05, 5.0)
            p = vanilla_bounds(f, nu, [k])[0]
            residual = p * p - (f - k) * p - f * k * nu
            assert abs(residual) <= 1e-12 * max(1.0, p * p)

    def test_deep_otm_small_nu_stays_accurate(self):
        # The stable branch avoids cancellation: compare against the exact
        # product-of-roots identity p+ = f k nu / |p-|.
        f, nu, k = 1.0, 1e-10, 5.0
        p = vanilla_bounds(f, nu, [k])[0]
        p_minus = 0.5 * ((f - k) - math.sqrt((f - k) ** 2 + 4.0 * f * k * nu))
        assert p == pytest.approx(f * k * nu / abs(p_minus), rel=1e-12, abs=0.0)
        assert 0.0 < p < 1e-9

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            f = rng.uniform(0.2, 3.0)
            nu = rng.uniform(0.0, 1.0)
            k = rng.uniform(0.05, 6.0)
            p = vanilla_bounds(f, nu, [k])[0]
            assert max(f - k, 0.0) - 1e-14 <= p <= f + 1e-14

    @pytest.mark.parametrize("f, nu, k", [(1e-300, 0.5, 1e30), (1e-150, 1e-20, 1e150)])
    def test_bound_far_below_the_strike_keeps_its_digits(self, f, nu, k):
        # Here 2 f k nu is subnormal in units of the strike's power of two.
        exact = mp_otm_bound(f, nu, k)
        assert abs(vanilla_bounds(f, nu, [k])[0] - exact) <= 1e-15 * exact

    def test_parameter_validation(self):
        with pytest.raises(ParameterOutOfRange):
            vanilla_bounds(1.0, -0.1, [1.0])
        with pytest.raises(ParameterOutOfRange):
            vanilla_bounds(1.0, 0.1, [0.0])


class TestVanillaBounds:
    def test_matches_scalar_form_on_a_broadcast_grid(self):
        rng = np.random.default_rng(3)
        f = rng.uniform(0.05, 4.0, 400)
        nu = rng.uniform(0.0, 1.0, 400) ** 6  # down to ~1e-18
        nu[:20] = 0.0
        ks = np.concatenate([[1.0], rng.uniform(0.05, 6.0, 30)])
        f[0] = 1.0  # with nu = 0 and k = 1: the 0 / 0 of the out-of-the-money form
        grid = vanilla_bounds(f, nu, ks[:, None])
        assert grid.shape == (ks.size, f.size)
        # Each element equals a one-element call.
        single = np.array([[vanilla_bounds(a, b, [k])[0] for a, b in zip(f, nu)] for k in ks])
        assert np.array_equal(grid, single)
        assert grid[0, 0] == 0.0

    def test_scalar_form_is_the_one_element_case_exactly(self):
        # Scalar arguments give the array form's values: squaring a scalar by
        # pow differs from squaring an array on 4 of these draws.
        rng = np.random.default_rng(1)
        f = rng.uniform(0.01, 10.0, 20_000)
        k = rng.uniform(0.01, 10.0, 20_000)
        nu = rng.uniform(0.0, 1.0, 20_000) ** 3
        scalar = [float(vanilla_bounds(a, b, c)) for a, b, c in zip(f.tolist(), nu.tolist(), k.tolist())]
        assert vanilla_bounds(f, nu, k).tolist() == scalar

    @pytest.mark.parametrize(
        "f, nu, k", [(0.0, 0.1, 1.0), (1.0, -0.1, 1.0), (1.0, 1.5, 1.0), (1.0, math.nan, 1.0), (1.0, 0.1, 0.0)]
    )
    def test_parameter_validation(self, f, nu, k):
        with pytest.raises(ParameterOutOfRange):
            vanilla_bounds([1.0, f], [0.1, nu], [1.0, k])


class TestEngineEquivalence:
    def test_engine_matches_closed_form_on_grid(self):
        for f in (0.5, 1.0, 2.0):
            for nu in (0.0, 0.01, 0.25, 0.99, 1.0):
                ks = np.geomspace(0.1 * f, 5.0 * f, 10)
                closed = vanilla_bounds(f, nu, ks)
                via_engine = engine_bounds(f, nu, ks)
                assert np.all(np.abs(via_engine - closed) <= 1e-12 * np.maximum(closed, f * 1e-3))

    def test_examples(self):
        assert engine_bounds(1.0, 0.04, [1.0])[0] == pytest.approx(0.2, rel=1e-13, abs=0.0)
        assert engine_bounds(1.0, 0.0, [2.0])[0] == pytest.approx(0.0, abs=1e-15)


# |bound - oracle| <= VANILLA_ORACLE_C eps (f + k), the scale sum_i |w_i| Q_ii
# of the 2x2 Q with w = (1, -k), against the 50-digit bound of the same float
# Q.  Over 20000 strikes (5000 draws of f in [1e-3, 1e3], nu in [1e-2, 1] and
# four strikes f 10^[-8, 8]) the largest gap was 3.68, the 99th percentile
# 0.87 and the median 0.05.  A search of 216000 strikes within a factor 3.2
# of the forward at nu in [1e-2, 3e-2], where the gap peaks, found 5.56.
# The gap is Q's rounding, which the closed form never sees, times the
# conditioning of the bound in Q_12, about 1 / (2 sqrt(nu)): below nu = 1e-2
# it grows without the closed form losing a digit.
VANILLA_ORACLE_C = 6.0


class TestVanillaOracle:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        log_f=st.floats(-3.0, 3.0),
        log_nu=st.floats(-2.0, 0.0),
        log_moneyness=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4),
    )
    def test_matches_the_50_digit_oracle(self, mp_positive_eigenvalue_bound, log_f, log_nu, log_moneyness):
        f, nu = 10.0**log_f, 10.0**log_nu
        strikes = f * 10.0 ** np.array(log_moneyness)
        q = assemble_q([AssetMoments(f, nu), AssetMoments(1.0, 0.0)], np.eye(2)).entries
        for k, bound in zip(strikes, vanilla_bounds(f, nu, strikes)):
            scale = q[0, 0] + k * q[1, 1]
            error = abs(mpmath.mpf(bound) - mp_positive_eigenvalue_bound(q, [1.0, -k]))
            assert error <= VANILLA_ORACLE_C * np.finfo(float).eps * scale, (k, float(error))


def scalar_cdf(f, nu, k):
    """The implied CDF in float arithmetic, one strike at a time."""
    if k == 0.0:
        return nu
    d = f - k
    root = math.sqrt(d * d + 4.0 * f * k * nu)
    return 1.0 if root == 0.0 else 0.5 + (2.0 * f * nu - d) / (2.0 * root)


class TestImpliedCdf:
    def test_point_mass_at_zero(self):
        for nu in (0.01, 0.04, 0.09):
            assert implied_cdfs(1.0, nu, [0.0])[0] == nu
            assert implied_cdfs(1.0, nu, [1e-9])[0] == pytest.approx(nu, abs=1e-8)

    def test_atm_value(self):
        for nu in (0.01, 0.25, 0.81):
            assert implied_cdfs(1.0, nu, [1.0])[0] == pytest.approx(
                0.5 + math.sqrt(nu) / 2.0, rel=1e-13, abs=0.0
            )

    def test_zero_variance_step(self):
        # The right-limit at the point mass k = f is 1.
        assert implied_cdfs(1.0, 0.0, [0.5, 1.5, 1.0]).tolist() == [0.0, 1.0, 1.0]

    def test_grid_elements_equal_one_element_calls(self):
        rng = np.random.default_rng(9)
        f = rng.uniform(0.05, 4.0, 60)
        nu = rng.uniform(0.0, 1.0, 60) ** 4
        nu[:5] = 0.0
        ks = np.concatenate([[0.0], f[:3], rng.uniform(0.01, 6.0, 20)])
        grid = implied_cdfs(f, nu, ks[:, None])
        assert grid.shape == (ks.size, f.size)
        for (i, j), value in np.ndenumerate(grid):
            assert value == implied_cdfs(f[j], nu[j], [ks[i]])[0]
            assert value == scalar_cdf(float(f[j]), float(nu[j]), float(ks[i]))


    def test_matches_central_difference(self):
        f = 1.3
        h = 1e-5 * f
        for nu in (0.01, 0.2, 0.77):
            for k in (0.3, 0.9, 1.3, 2.6):
                up, down = vanilla_bounds(f, nu, [k + h, k - h])
                numeric = 1.0 + (up - down) / (2.0 * h)
                assert implied_cdfs(f, nu, [k])[0] == pytest.approx(numeric, abs=1e-7)

    def test_values_in_unit_interval_and_monotone(self):
        ks = np.linspace(0.05, 8.0, 200)
        for nu in (0.0, 0.04, 0.5, 1.0):
            values = implied_cdfs(1.0, nu, ks)
            assert np.all(values >= -1e-12)
            assert np.all(values <= 1.0 + 1e-12)
            assert np.all(np.diff(values) >= -1e-12)


@pytest.mark.parametrize("fn", [vanilla_bounds, implied_cdfs])
@pytest.mark.parametrize(
    "f, nu, k",
    [
        ([1.0, 0.0], [0.1, 0.1], [1.0, 1.0]),
        ([1.0, 1.0], [0.1, 1.5], [1.0, 1.0]),
        ([1.0, 0.0], [0.1, 0.1], [-1.0, 1.0]),  # a bad strike before a bad forward
        (1.0, [0.1, math.nan, -0.1], 0.5),
        (1.0, 0.1, [0.5, 0.0, -0.5]),
    ],
)
def test_first_bad_element_raises_as_a_loop(fn, f, nu, k):
    grids = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (f, nu, k)))
    with pytest.raises(ParameterOutOfRange) as looped:
        for a, b, c in zip(*(grid.tolist() for grid in grids)):
            fn(a, b, [c])
    with pytest.raises(ParameterOutOfRange) as at_once:
        fn(f, nu, k)
    assert str(at_once.value) == str(looped.value)


class TestShapeChecks:
    def test_accepts_valid_curve(self):
        ks = np.linspace(0.4, 2.6, 23)
        check_decreasing_convex(ks, vanilla_bounds(1.0, 0.04, ks))

    def test_rejects_increasing_curve(self):
        with pytest.raises(ShapeViolation):
            check_decreasing_convex([1.0, 2.0, 3.0], [0.1, 0.2, 0.3])

    def test_rejects_concave_curve(self):
        with pytest.raises(ShapeViolation):
            check_decreasing_convex([1.0, 2.0, 3.0], [1.0, 0.9, 0.5])

    def test_strikes_1e_9_apart_tell_roundoff_from_a_kink(self):
        # A few ulps of value roundoff over a step of 1e-9 exceed SHAPE_TOL in
        # the slopes' changes, yet each curve is convex; a real kink of slope
        # change -1e-5 on the same grid still fails.
        ks = 1.0 + 1e-9 * np.arange(10)
        for nu in (0.0025, 0.01, 0.04, 0.09):
            check_decreasing_convex(ks, vanilla_bounds(1.0, nu, ks))
        values = vanilla_bounds(1.0, 0.04, ks) - 1e-5 * np.maximum(ks - ks[5], 0.0)
        with pytest.raises(ShapeViolation, match=f"concave around strike {ks[5]} "):
            check_decreasing_convex(ks, values)

    @pytest.mark.parametrize(
        "values, message",
        [
            # The first rise, not the steepest (between 3.0 and 4.0).
            ([1.0, 1.1, 0.9, 1.5, 0.2], "increases between strikes 1.0 and 2.0 (slope 1.000e-01)"),
            # A bend around 2.0 comes before the rise from 3.0 to 4.0.
            ([1.0, 0.9, 0.5, 0.6, 0.6], "is concave around strike 2.0 (slope change -3.000e-01)"),
            # The rise from 2.0 to 3.0 comes before the bend around 3.0.
            ([1.0, 0.5, 0.7, 0.6, 0.5], "increases between strikes 2.0 and 3.0 (slope 2.000e-01)"),
            # The first concave bend, not the sharpest (around 4.0).
            ([1.0, 0.8, 0.7, 0.5, 0.0], "is concave around strike 3.0 (slope change -1.000e-01)"),
        ],
    )
    def test_names_the_first_failing_strike(self, values, message):
        with pytest.raises(ShapeViolation) as raised:
            check_decreasing_convex([1.0, 2.0, 3.0, 4.0, 5.0], values)
        assert str(raised.value) == f"bound curve {message}"

    def test_non_finite_value_wins_over_an_earlier_shape_failure(self):
        with pytest.raises(NonFiniteResult, match=r"^bound curve is nan at strike 3.0$"):
            check_decreasing_convex([1.0, 2.0, 3.0, 4.0], [0.5, 0.9, math.nan, math.inf])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_values(self, bad):
        # NaN slopes pass every comparison, so the shape checks alone let them by.
        for values in ([bad, 0.5, 0.2], [1.0, bad, 0.2], [1.0, 0.5, bad]):
            with pytest.raises(NonFiniteResult, match="at strike"):
                check_decreasing_convex([1.0, 2.0, 3.0], values)


def shape_error(check):
    """The type and message of the error ``check()`` raises, or None."""
    try:
        check()
    except (ShapeViolation, NonFiniteResult) as exc:
        return type(exc), str(exc)
    return None


STACK_STRIKES = np.linspace(0.5, 2.0, 7)
# Curves over STACK_STRIKES: a valid bound, the same bound with a concave
# kink at 1.0 and with a rise after it, and the bound with one value that is
# not finite, at 1.25.
STACK_ROWS = {
    "valid": vanilla_bounds(1.0, 0.04, STACK_STRIKES),
    "concave": vanilla_bounds(1.0, 0.04, STACK_STRIKES) - 0.3 * np.maximum(STACK_STRIKES - 1.0, 0.0),
    "increasing": vanilla_bounds(1.0, 0.04, STACK_STRIKES) + 0.5 * np.maximum(STACK_STRIKES - 1.0, 0.0),
    **{
        name: np.where(STACK_STRIKES == 1.25, bad, vanilla_bounds(1.0, 0.04, STACK_STRIKES))
        for name, bad in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf))
    },
}


def looped_shape_error(strikes, stack, labels):
    """The type and message of the error a plain loop over the rows of a
    curve stack, and in each row over its strikes, raises first, or None:
    the rule ``check_decreasing_convex`` states, in float arithmetic."""
    ks = [float(k) for k in strikes]
    for row, label in zip(np.asarray(stack, dtype=float).tolist(), labels):
        for k, value in zip(ks, row):
            if not math.isfinite(value):
                return NonFiniteResult, f"{label} is {value} at strike {k}"
        previous = None
        for j in range(len(ks) - 1):
            step = ks[j + 1] - ks[j]
            slope = (row[j + 1] - row[j]) / step
            slack = (4.0 * np.finfo(float).eps * abs(row[j]) + 4.0 * np.finfo(float).eps * abs(row[j + 1])) / step
            if slope - slack > vanilla_module.SHAPE_TOL:
                return ShapeViolation, f"{label} increases between strikes {ks[j]} and {ks[j + 1]} (slope {slope:.3e})"
            if previous is not None:
                change = slope - previous[0]
                if change + (previous[1] + slack) < -vanilla_module.SHAPE_TOL:
                    return ShapeViolation, f"{label} is concave around strike {ks[j]} (slope change {change:.3e})"
            previous = slope, slack
    return None


@st.composite
def damaged_stacks(draw):
    """Strikes and a stack of bound curves with rises, bends and values that
    are not finite injected into them."""
    ks = np.cumsum(draw(st.lists(st.sampled_from([0.05, 0.1, 0.25, 0.5]), min_size=2, max_size=9)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = vanilla_bounds(1.0, draw(st.sampled_from([0.0, 0.01, 0.04, 0.5, 1.0])), ks)
        for _ in range(draw(st.integers(0, 3))):
            j = draw(st.integers(0, ks.size - 1))
            kind = draw(st.sampled_from(["value", "kink", "nan", "inf", "-inf"]))
            if kind == "value":
                row[j] += draw(st.sampled_from([-0.3, -0.05, 0.05, 0.3]))
            elif kind == "kink":
                row = row + draw(st.sampled_from([-0.5, -0.1, 0.2, 1.0])) * np.maximum(ks - ks[j], 0.0)
            else:
                row[j] = float(kind)
        rows.append(row)
    return ks, np.array(rows)


class TestStackedShapeCheck:
    """A (curves, strikes) stack raises the error a loop over its rows, and
    in each row over its strikes, raises first."""

    @settings(max_examples=300, deadline=None)
    @given(problem=damaged_stacks())
    # Rises between 1.0 and 2.0 and between 3.0 and 4.0, the later steeper.
    @example(problem=(np.arange(1.0, 6.0), np.array([[1.0, 1.1, 0.9, 1.5, 0.2]])))
    # A valid row, then a row that bends around 2.0 and rises from 3.0 to 4.0,
    # then a row that is not finite.
    @example(problem=(np.arange(1.0, 5.0), np.array([[1.0, 0.6, 0.3, 0.1], [1.0, 0.9, 0.5, 0.6], [1, math.inf, 0.5, 0.2]])))
    def test_stack_raises_what_a_strike_loop_raises(self, problem):
        ks, stack = problem
        labels = [f"curve {i}" for i in range(len(stack))]
        expected = looped_shape_error(ks, stack, labels)
        assert shape_error(lambda: check_decreasing_convex(ks, stack, label=labels)) == expected

    def test_concave_row_before_a_non_finite_row(self):
        stack = [STACK_ROWS["valid"], STACK_ROWS["concave"], STACK_ROWS["inf"]]
        labels = ["row 0", "row 1", "row 2"]
        looped = shape_error(lambda: [check_decreasing_convex(STACK_STRIKES, v, label=n) for v, n in zip(stack, labels)])
        stacked = shape_error(lambda: check_decreasing_convex(STACK_STRIKES, stack, label=labels))
        assert looped[0] is ShapeViolation
        assert looped[1].startswith("row 1 is concave around strike 1.0 ")
        assert stacked == looped

    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from(sorted(STACK_ROWS)), min_size=1, max_size=5))
    def test_stack_raises_what_a_row_loop_raises(self, kinds):
        stack = np.array([STACK_ROWS[kind] for kind in kinds])
        labels = [f"curve {i} ({kind})" for i, kind in enumerate(kinds)]
        looped = shape_error(lambda: [check_decreasing_convex(STACK_STRIKES, v, label=n) for v, n in zip(stack, labels)])
        assert shape_error(lambda: check_decreasing_convex(STACK_STRIKES, stack, label=labels)) == looped

    @pytest.mark.parametrize("kind", sorted(STACK_ROWS))
    def test_one_curve_is_a_one_row_stack(self, kind):
        # A 1-D call names its curve with the default label, or the one
        # given, and raises what the one-row stack raises.
        values = STACK_ROWS[kind]
        expected = shape_error(lambda: check_decreasing_convex(STACK_STRIKES, [values], label=["bound curve"]))
        assert shape_error(lambda: check_decreasing_convex(STACK_STRIKES, values)) == expected
        assert (expected is None) == (kind == "valid")
        if expected is not None:
            assert expected[1].startswith("bound curve ")

    def test_one_label_names_every_row(self):
        stack = [STACK_ROWS["valid"], STACK_ROWS["increasing"]]
        with pytest.raises(ShapeViolation, match="^fx bound increases between strikes "):
            check_decreasing_convex(STACK_STRIKES, stack, label="fx bound")

    @pytest.mark.parametrize(
        "values, labels",
        [
            ([STACK_ROWS["valid"]] * 2, ["only one"]),
            ([[STACK_ROWS["valid"]]], ["a"]),
            (STACK_ROWS["valid"][:-1], "short"),
            (1.0, "scalar"),
        ],
    )
    def test_stack_must_match_the_grid_and_the_labels(self, values, labels):
        with pytest.raises(ParameterOutOfRange):
            check_decreasing_convex(STACK_STRIKES, values, label=labels)


class TestSmileCurve:
    def test_monotone_in_nu(self):
        ks = np.linspace(0.4, 2.6, 23)
        previous = None
        for bounds in smile_curves(1.0, [0.0025, 0.01, 0.04, 0.09], ks, 1.0).bounds:
            if previous is not None:
                assert np.all(bounds >= previous - 1e-12)
            previous = bounds

    def test_atm_implied_vol(self):
        (vols,) = smile_curves(1.0, [0.04], np.array([0.9, 1.0, 1.1]), 1.0).implied_vols
        assert vols[1] == pytest.approx(0.50669, abs=5e-6)

    def test_zero_variance_vols_vanish_off_atm(self):
        curve = smile_curves(1.0, [0.0], np.array([0.5, 0.8, 1.2, 2.0]), 1.0)
        assert np.all(curve.implied_vols == 0.0)

    def test_full_variance_hits_sentinel(self):
        curve = smile_curves(1.0, [1.0], np.array([0.5, 1.0, 2.0]), 1.0)
        assert np.all(np.isinf(curve.implied_vols))

    def test_dominates_calibrated_lognormal(self):
        # Matched root-variance: the bound dominates the Black price at
        # every strike.
        nu = LognormalModel(1.0, 0.4, 1.0).root_variance
        ks = np.linspace(0.2, 4.0, 50)
        assert np.all(vanilla_bounds(1.0, nu, ks) >= bs_call_prices(1.0, ks, 0.4, 1.0) - 1e-12)

    def test_curve_invariants_enforced(self):
        ks = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ShapeViolation):
            VanillaBoundCurve(ks, np.array([0.1, 0.3, 0.2]), np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize(
        "bounds, cdf, error",
        [
            ([[0.3, 0.2, 0.1], [0.3, 0.25, 0.1]], [[0.0, 0.5, 1.0]] * 2, ShapeViolation),
            ([[0.3, 0.2, 0.1]] * 2, [[0.0, 0.5, 1.0], [0.0, 0.5, 0.4]], ShapeViolation),
            ([[0.3, 0.2, 0.1]] * 2, [[0.0, 0.5, 1.0], [0.0, 0.5, 1.5]], ShapeViolation),
            ([[0.3, 0.2, 0.1]] * 2, [[0.0, 0.5, 1.0]], ParameterOutOfRange),
            ([[0.3, 0.2]] * 2, [[0.0, 0.5]] * 2, ParameterOutOfRange),
        ],
    )
    def test_stacked_curve_checks_every_row(self, bounds, cdf, error):
        # Row 0 is a valid curve.  Row 1 is concave, or its CDF falls or
        # leaves [0, 1], or the columns do not share the grid.
        ks = np.array([1.0, 2.0, 3.0])
        with pytest.raises(error):
            VanillaBoundCurve(ks, bounds, np.zeros(np.shape(bounds)), cdf)


    @pytest.mark.parametrize(
        "cdf, message",
        [
            # Row 1 falls after 1.0 and after 2.0; row 0 is valid.
            ([[0.0, 0.5, 1.0], [0.6, 0.5, 0.4]], "must be non-decreasing in strike, falls after strike 1.0 in row 1"),
            ([[0.0, 0.5, 1.0], [0.0, 1.5, 2.0]], "must take values in [0, 1], got 1.5 at strike 2.0 in row 1"),
            ([[-0.5, 0.5, 2.0], [0.0, 0.5, 1.0]], "must take values in [0, 1], got -0.5 at strike 1.0 in row 0"),
        ],
    )
    def test_cdf_checks_name_their_first_failing_cell(self, cdf, message):
        ks = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ShapeViolation) as raised:
            VanillaBoundCurve(ks, [[0.3, 0.2, 0.1]] * 2, np.zeros((2, 3)), cdf)
        assert str(raised.value) == f"implied CDF {message}"


class TestSmileCurves:
    def test_curves_equal_one_curve_calls(self):
        ks = np.linspace(0.4, 2.6, 23)
        nus = [0.0, 0.0025, 0.04, 0.09, 1.0]
        curves = smile_curves(1.3, nus, ks, 0.7)
        for i, nu in enumerate(nus):
            alone = smile_curves(1.3, [nu], ks, 0.7)
            assert curves.strikes.tolist() == alone.strikes.tolist()
            for name in ("bounds", "implied_vols", "cdf"):
                assert getattr(curves, name)[i].tolist() == getattr(alone, name)[0].tolist()
            assert curves.bounds[i].tolist() == vanilla_bounds(1.3, nu, ks).tolist()

    def test_all_curves_invert_in_one_call(self, monkeypatch):
        calls = []
        real = vanilla_module.implied_lognormal_vols

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(vanilla_module, "implied_lognormal_vols", counting)
        smile_curves(1.0, [0.01, 0.04, 0.09], np.linspace(0.5, 2.0, 7), 1.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("power", [-20, 20, 200])
    def test_scaling_forward_and_strikes_keeps_vols_and_cdf(self, power):
        # A power of two scales every bound exactly, so the vols and the CDF
        # keep their bits, also where a price is far above 1 and its
        # residual's roundoff with it.
        c = 2.0**power
        ks = np.linspace(0.4, 2.6, 23)
        nus = [0.0025, 0.01, 0.04, 0.09]
        curve = smile_curves(1.0, nus, ks, 1.0)
        scaled = smile_curves(c, nus, c * ks, 1.0)
        assert scaled.bounds.tolist() == (c * curve.bounds).tolist()
        assert scaled.implied_vols.tolist() == curve.implied_vols.tolist()
        assert scaled.cdf.tolist() == curve.cdf.tolist()

    def test_first_failing_curve_raises_as_alone(self):
        ks = np.linspace(0.5, 2.0, 7)
        # The second curve's vols lie above the bracket; the third's too.
        nus = [0.01, 0.999999, 0.9999999]
        with pytest.raises(ConvergenceFailure) as caught:
            smile_curves(1.0, nus, ks, 1.0)
        with pytest.raises(ConvergenceFailure) as alone:
            smile_curves(1.0, nus[1:2], ks, 1.0)
        assert str(caught.value) == str(alone.value)

    def test_inversion_error_beats_an_earlier_shape_error(self, monkeypatch):
        # Curve 0 inverts but increases in strike; curve 1 sits above the
        # forward.  All curves invert before any is built, so curve 1's
        # inversion error wins over curve 0's shape error.
        ks = np.linspace(0.5, 2.0, 7)

        def bounds(f, nu, k):
            rising = 0.5 + 0.2 * (k - 0.5) / 1.5
            return np.where(np.asarray(nu) < 0.5, rising, 1.5 + 0.0 * k)

        monkeypatch.setattr(vanilla_module, "vanilla_bounds", bounds)
        with pytest.raises(PriceOutsideArbitrageBounds):
            smile_curves(1.0, [0.9], ks, 1.0)
        with pytest.raises(ShapeViolation):
            smile_curves(1.0, [0.1], ks, 1.0)
        with pytest.raises(PriceOutsideArbitrageBounds):
            smile_curves(1.0, [0.1, 0.9], ks, 1.0)
