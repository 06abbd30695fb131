import math

import numpy as np
import pytest

from momentbounds import vanilla as vanilla_module
from momentbounds.errors import (
    ConvergenceFailure,
    ParameterOutOfRange,
    PriceOutsideArbitrageBounds,
    ShapeViolation,
)
from momentbounds.models import LognormalModel, bs_call_prices
from momentbounds.vanilla import (
    VanillaBoundCurve,
    check_decreasing_convex,
    implied_cdfs,
    smile_curves,
    vanilla_bounds,
    vanilla_bounds_via_engine,
)


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
                via_engine = vanilla_bounds_via_engine(f, nu, ks)
                assert np.all(np.abs(via_engine - closed) <= 1e-12 * np.maximum(closed, f * 1e-3))

    def test_examples(self):
        assert vanilla_bounds_via_engine(1.0, 0.04, [1.0])[0] == pytest.approx(0.2, rel=1e-13, abs=0.0)
        assert vanilla_bounds_via_engine(1.0, 0.0, [2.0])[0] == pytest.approx(0.0, abs=1e-15)


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


class TestSmileCurve:
    def test_monotone_in_nu(self):
        ks = np.linspace(0.4, 2.6, 23)
        previous = None
        for curve in smile_curves(1.0, [0.0025, 0.01, 0.04, 0.09], ks, 1.0):
            if previous is not None:
                assert np.all(curve.bounds >= previous - 1e-12)
            previous = curve.bounds

    def test_atm_implied_vol(self):
        (curve,) = smile_curves(1.0, [0.04], np.array([0.9, 1.0, 1.1]), 1.0)
        assert curve.implied_vols[1] == pytest.approx(0.50669, abs=5e-6)

    def test_zero_variance_vols_vanish_off_atm(self):
        (curve,) = smile_curves(1.0, [0.0], np.array([0.5, 0.8, 1.2, 2.0]), 1.0)
        assert np.all(curve.implied_vols == 0.0)

    def test_full_variance_hits_sentinel(self):
        (curve,) = smile_curves(1.0, [1.0], np.array([0.5, 1.0, 2.0]), 1.0)
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


class TestSmileCurves:
    def test_curves_equal_one_curve_calls(self):
        ks = np.linspace(0.4, 2.6, 23)
        nus = [0.0, 0.0025, 0.04, 0.09, 1.0]
        curves = smile_curves(1.3, nus, ks, 0.7)
        for nu, curve in zip(nus, curves):
            (alone,) = smile_curves(1.3, [nu], ks, 0.7)
            for name in ("strikes", "bounds", "implied_vols", "cdf"):
                assert getattr(curve, name).tolist() == getattr(alone, name).tolist()
            assert curve.bounds.tolist() == vanilla_bounds(1.3, nu, ks).tolist()

    def test_all_curves_invert_in_one_call(self, monkeypatch):
        calls = []
        real = vanilla_module.implied_lognormal_vols

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(vanilla_module, "implied_lognormal_vols", counting)
        smile_curves(1.0, [0.01, 0.04, 0.09], np.linspace(0.5, 2.0, 7), 1.0)
        assert len(calls) == 1

    def test_first_failing_curve_raises_as_alone(self):
        ks = np.linspace(0.5, 2.0, 7)
        # The second curve's vols lie above the bracket; the third's too.
        nus = [0.01, 0.999999, 0.9999999]
        with pytest.raises(ConvergenceFailure) as caught:
            smile_curves(1.0, nus, ks, 1.0)
        with pytest.raises(ConvergenceFailure) as alone:
            smile_curves(1.0, nus[1:2], ks, 1.0)
        assert str(caught.value) == str(alone.value)

    def test_shape_error_of_an_earlier_curve_wins(self, monkeypatch):
        # Curve 0 inverts but increases in strike; curve 1 sits above the
        # forward.  Curve by curve, curve 0's shape check fails first.
        ks = np.linspace(0.5, 2.0, 7)

        def bounds(f, nu, k):
            rising = 0.5 + 0.2 * (k - 0.5) / 1.5
            return np.where(np.asarray(nu) < 0.5, rising, 1.5 + 0.0 * k)

        monkeypatch.setattr(vanilla_module, "vanilla_bounds", bounds)
        with pytest.raises(PriceOutsideArbitrageBounds):
            smile_curves(1.0, [0.9], ks, 1.0)
        with pytest.raises(ShapeViolation):
            smile_curves(1.0, [0.1, 0.9], ks, 1.0)
