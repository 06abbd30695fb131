import math

import mpmath
import numpy as np
import pytest

import scipy.linalg
import scipy.linalg.lapack
from scipy.integrate import quad

from momentbounds.engine import positive_eigenvalue_bounds
from momentbounds.errors import (
    ConvergenceFailure,
    DegenerateCell,
    NotPositiveSemiDefinite,
    ParameterOutOfRange,
    QuadratureBudgetExceeded,
)
from momentbounds.models import (
    LognormalModel,
    _gl_rule,
    bs_call_prices,
    lognormal_partial_moments,
    norm_cdf,
)
from momentbounds.moments import root_variance_from_moments
from momentbounds.partition import (
    ConditionalMoments,
    LinearPartition,
    _quadrature_partial_moment,
    flat_conditional_moments,
    linear_conditional_moments,
    partition_moment_matrix,
    refined_bounds,
)
from momentbounds.vanilla import vanilla_bounds

MODEL = LognormalModel(1.0, 0.4, 1.0)
FIG_BOUNDARIES_6 = np.linspace(0.5, 2.5, 5)
FIG_BOUNDARIES_30 = np.linspace(0.1, 2.9, 29)
EVAL_STRIKES = np.linspace(0.4, 2.6, 23)


class TestPartitionGrids:
    def test_linear_needs_two_strikes(self):
        with pytest.raises(ParameterOutOfRange):
            LinearPartition([1.0])

    def test_grid_must_increase(self):
        for bad in ([1.0, 1.0], [2.0, 1.0], [-1.0, 1.0]):
            with pytest.raises(ParameterOutOfRange):
                flat_conditional_moments(MODEL, bad)
            with pytest.raises(ParameterOutOfRange):
                LinearPartition(bad)


class TestFlatConditionalMoments:
    def test_single_cell_reproduces_model(self):
        moments = flat_conditional_moments(MODEL, [])
        assert moments.cells == 1
        assert moments.digital[0] == pytest.approx(1.0, rel=1e-14, abs=0.0)
        assert moments.price[0] == pytest.approx(1.0, rel=1e-14, abs=0.0)
        assert moments.root_variance[0] == pytest.approx(MODEL.root_variance, rel=1e-12, abs=0.0)

    def test_two_cells_split_at_forward(self):
        moments = flat_conditional_moments(MODEL, [1.0])
        # P(a <= f) = Phi((log(1) + sigma^2 T / 2) / (sigma sqrt(T))) = Phi(0.2).
        assert moments.digital[0] == pytest.approx(float(norm_cdf(0.2)), rel=1e-14, abs=0.0)
        assert moments.digital[1] == pytest.approx(1.0 - float(norm_cdf(0.2)), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("boundaries", [FIG_BOUNDARIES_6, FIG_BOUNDARIES_30])
    def test_normalisation_identities(self, boundaries):
        moments = flat_conditional_moments(MODEL, boundaries)
        total, mean, sqrt_mean = moments.normalisation_sums()
        assert abs(total - 1.0) <= 1e-10
        assert abs(mean - 1.0) <= 1e-10
        assert abs(sqrt_mean - math.sqrt(1.0 - MODEL.root_variance)) <= 1e-10

    def test_degenerate_cell_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="dropped"):
            moments = flat_conditional_moments(MODEL, [1.0, 1e9])
        assert moments.cells == 2

    def test_degenerate_cell_strict_raises(self):
        with pytest.raises(DegenerateCell):
            flat_conditional_moments(MODEL, [1.0, 1e9], strict=True)

    def test_zero_vol_rejected(self):
        with pytest.raises(ParameterOutOfRange):
            flat_conditional_moments(LognormalModel(1.0, 0.0, 1.0), [1.0])


class TestFlatRefinedBound:
    def test_single_cell_equals_vanilla(self):
        moments = flat_conditional_moments(MODEL, [])
        nu = MODEL.root_variance
        for k in (0.4, 0.8, 1.0, 1.7, 2.6):
            refined = refined_bounds(moments, [k])[0]
            assert refined == pytest.approx(vanilla_bounds(1.0, nu, [k])[0], rel=1e-12, abs=0.0)

    def test_six_cell_sandwich_at_atm(self):
        moments = flat_conditional_moments(MODEL, FIG_BOUNDARIES_6)
        v6 = refined_bounds(moments, [1.0])[0]
        vanilla = vanilla_bounds(1.0, MODEL.root_variance, [1.0])[0]
        black = bs_call_prices(MODEL.forward, [1.0], MODEL.sigma, MODEL.expiry)[0]
        assert black <= v6 <= vanilla
        assert vanilla - v6 > 1e-3  # the refinement genuinely bites

    def test_monotone_refinement_on_nested_grids(self):
        m6 = flat_conditional_moments(MODEL, FIG_BOUNDARIES_6)
        m30 = flat_conditional_moments(MODEL, FIG_BOUNDARIES_30)
        nu = MODEL.root_variance
        for k in (0.5, 1.0, 1.6, 2.4):
            b1 = vanilla_bounds(1.0, nu, [k])[0]
            b6 = refined_bounds(m6, [k])[0]
            b30 = refined_bounds(m30, [k])[0]
            assert b1 >= b6 - 1e-10
            assert b6 >= b30 - 1e-10
            assert b30 >= bs_call_prices(MODEL.forward, [k], MODEL.sigma, MODEL.expiry)[0] - 1e-10


def exact_flat_bounds(model, boundaries, strikes):
    """Flat refined bounds from 40-digit partial moments of every cell; only
    the final ``vanilla_bounds`` runs in floating point."""
    with mpmath.workdps(40):
        f = mpmath.mpf(model.forward)
        stdev = mpmath.mpf(model.sigma) * mpmath.sqrt(model.expiry)
        logs = [mpmath.log(mpmath.mpf(b) / f) for b in boundaries.tolist()]

        def cells(p):
            p = mpmath.mpf(p)
            cdf = [0, *(mpmath.ncdf((x + (0.5 - p) * stdev**2) / stdev) for x in logs), 1]
            scale = f**p * mpmath.exp(p * (p - 1) * stdev**2 / 2)
            return [scale * (hi - lo) for lo, hi in zip(cdf[:-1], cdf[1:])]

        digital, first, half = cells(0), cells(1), cells(0.5)
        price = [float(m / d) for m, d in zip(first, digital)]
        nu = [float(1 - h * h / (m * d)) for h, m, d in zip(half, first, digital)]
        digital = [float(d) for d in digital]
    return np.sum(vanilla_bounds(np.array(price), np.array(nu), strikes[:, None]) * digital, axis=1)


class TestFlatBoundsAgainstExactMoments:
    @pytest.mark.parametrize("cells", [1024, 4096])
    def test_fine_partitions(self, cells):
        # Each cell's moments difference two CDF values a cell width apart, so
        # their rounding error, and the bounds', grows in proportion to N.
        boundaries = np.linspace(0.3, 3.0, cells - 1)
        exact = exact_flat_bounds(MODEL, boundaries, EVAL_STRIKES)
        bounds = refined_bounds(flat_conditional_moments(MODEL, boundaries), EVAL_STRIKES)
        assert max_relative_gap(bounds, exact) <= 5e-14 * cells


def dense_engine_bounds(moments, strikes):
    """The refined bounds from the dense engine on the full 2N x 2N moment
    matrix: the oracle for both structured paths of ``refined_bounds``."""
    n = moments.cells
    quantities = np.ones((len(strikes), 2 * n))
    quantities[:, n:] = -np.asarray(strikes)[:, None]
    return positive_eigenvalue_bounds(partition_moment_matrix(moments), quantities).bounds


def max_relative_gap(values, reference):
    return float(np.max(np.abs(values - reference) / reference))


class TestFlatClosedForm:
    """Disjoint cells make Q a direct sum of 2x2 vanilla blocks, so the flat
    refined bound is exactly sum_n d_n * vanilla_bounds(f_n, nu_n, k), which
    ``refined_bounds`` evaluates without the engine."""

    @pytest.mark.parametrize("cells", [16, 64, 256, 1024])
    def test_engine_matches_per_cell_closed_form(self, cells):
        model = LognormalModel(1.0, 0.2, 1.0)
        # Evenly spaced boundaries 4 standard deviations either side of the median.
        moments = flat_conditional_moments(model, np.linspace(0.45, 2.2, cells - 1))
        assert moments.cells == cells
        # Strikes within 1.5 standard deviations, where the bound is not small
        # next to the spectral radius of P.
        strikes = np.array([0.7, 0.85, 1.0, 1.15, 1.3])
        closed = refined_bounds(moments, strikes)
        per_cell = [
            sum(
                d * vanilla_bounds(f, nu, [k])[0]
                for d, f, nu in zip(moments.digital, moments.price, moments.root_variance)
            )
            for k in strikes
        ]
        assert max_relative_gap(closed, np.array(per_cell)) <= 1e-14
        assert max_relative_gap(closed, dense_engine_bounds(moments, strikes)) <= 1e-12

    def test_rank_deficient_cells(self):
        # nu = 0 cells are point masses: rank-1 blocks the engine cuts.
        moments = ConditionalMoments(
            digital=[0.3, 0.5, 0.2], price=[0.6, 1.0, 1.8], root_variance=[0.0, 0.05, 0.0]
        )
        strikes = np.array([0.5, 0.9, 1.2, 1.7])
        assert max_relative_gap(
            refined_bounds(moments, strikes), dense_engine_bounds(moments, strikes)
        ) <= 1e-12


class TestLinearBanded:
    """Hat partitions are solved as banded eigenproblems; the dense engine on
    the same moments is the oracle."""

    @pytest.mark.parametrize("count", [2, 5, 16, 64, 256])
    def test_matches_dense_engine(self, count, factor_calls):
        moments = linear_conditional_moments(MODEL, np.linspace(0.3, 3.0, count))
        strikes = np.linspace(0.4, 2.6, 12)
        bounds = refined_bounds(moments, strikes)
        # Solved as a band, not through the dense fallback.
        assert len(factor_calls) == 0
        assert max_relative_gap(bounds, dense_engine_bounds(moments, strikes)) <= 1e-12

    def test_singular_q_falls_back_to_dense_engine(self, factor_calls):
        # All moments 1: Q is the 4x4 matrix of ones, rank 1, so the banded
        # Cholesky factorization fails and the dense engine takes over.
        ones = [1.0, 1.0]
        moments = ConditionalMoments(ones, ones, [0.0, 0.0], [1.0], [1.0], [1.0])
        strikes = np.array([0.25, 0.5, 1.0, 1.5])
        bounds = refined_bounds(moments, strikes)
        assert len(factor_calls) == 1
        assert np.array_equal(bounds, dense_engine_bounds(moments, strikes))
        assert bounds == pytest.approx(np.maximum(2.0 - 2.0 * strikes, 0.0), abs=1e-14)
        # Writable like the results of the other paths, not the engine's
        # frozen sweep array.
        assert bounds.flags.writeable

    @pytest.mark.parametrize(
        "boundaries, strikes",
        [(np.linspace(0.3, 3.0, count), np.linspace(0.4, 2.6, 12)) for count in (2, 5, 16, 64, 256)]
        + [(FIG_BOUNDARIES_6, EVAL_STRIKES), (FIG_BOUNDARIES_30, EVAL_STRIKES)],
    )
    def test_eigenvalues_equal_eigvals_banded(self, boundaries, strikes, monkeypatch):
        # The sweep calls LAPACK's dsbevd itself; scipy's eigvals_banded,
        # which checks its input and then calls the same routine, is the
        # reference, bit for bit.
        solves = []
        original = scipy.linalg.lapack.dsbevd

        def recording(band, **kwargs):
            result = original(band, **kwargs)
            solves.append((band.copy(), result[0]))
            return result

        monkeypatch.setattr(scipy.linalg.lapack, "dsbevd", recording)
        refined_bounds(linear_conditional_moments(MODEL, boundaries), strikes)
        assert len(solves) == strikes.size
        for band, eigenvalues in solves:
            reference = scipy.linalg.eigvals_banded(band, lower=False)
            assert np.array_equal(eigenvalues, reference)

    def test_unconverged_eigensolve_raises(self, monkeypatch):
        original = scipy.linalg.lapack.dsbevd

        def unconverged(band, **kwargs):
            eigenvalues, vectors, _ = original(band, **kwargs)
            return eigenvalues, vectors, 1

        monkeypatch.setattr(scipy.linalg.lapack, "dsbevd", unconverged)
        moments = linear_conditional_moments(MODEL, FIG_BOUNDARIES_6)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            refined_bounds(moments, EVAL_STRIKES)

    def test_inconsistent_cross_moments_raise(self):
        # E[sqrt(u_0 u_1)] above sqrt(E[u_0] E[u_1]) breaks Cauchy-Schwarz.
        moments = ConditionalMoments(
            [0.5, 0.5], [0.8, 1.2], [0.1, 0.1], [0.3], [0.3], [0.9]
        )
        with pytest.raises(NotPositiveSemiDefinite):
            refined_bounds(moments, [1.0])


class TestLinearPartitionFunctions:
    def test_partition_of_unity(self):
        part = LinearPartition([0.5, 1.0, 1.5, 2.0, 2.5])
        rng = np.random.default_rng(9)
        points = rng.uniform(0.01, 5.0, 200)
        total = sum(part.weight(n, points) for n in range(part.count))
        assert np.allclose(total, 1.0, atol=1e-14)

    def test_node_interpolation(self):
        strikes = [0.5, 1.0, 1.5, 2.0, 2.5]
        part = LinearPartition(strikes)
        for n, k in enumerate(strikes):
            for m in range(part.count):
                expected = 1.0 if m == n else 0.0
                assert part.weight(m, k) == pytest.approx(expected, abs=1e-15)

    def test_midpoint_symmetry(self):
        part = LinearPartition([1.0, 2.0])
        mid = 1.5
        assert part.weight(0, mid) == pytest.approx(0.5, abs=1e-15)
        assert part.weight(1, mid) == pytest.approx(0.5, abs=1e-15)
        assert part.sqrt_cross(0, mid) == pytest.approx(0.5, abs=1e-15)

    def test_supports(self):
        part = LinearPartition([1.0, 2.0, 3.0])
        assert part.weight(0, 0.2) == 1.0  # flat below the first strike
        assert part.weight(2, 5.0) == 1.0  # flat above the last strike
        assert part.weight(1, 0.5) == 0.0
        assert part.sqrt_cross(0, 2.5) == 0.0

    def test_cross_consistency_with_weights(self):
        part = LinearPartition([1.0, 2.0, 3.0])
        a = np.linspace(1.05, 1.95, 17)
        direct = np.sqrt(part.weight(0, a) * part.weight(1, a))
        assert np.allclose(part.sqrt_cross(0, a), direct, atol=1e-14)


class TestQuadratureAgainstClosedForm:
    def test_panels_match_closed_form(self):
        edges = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, math.inf]
        for lo, hi in zip(edges[:-1], edges[1:]):
            for p in (0.0, 0.5, 1.0):
                numeric = _quadrature_partial_moment(MODEL, p, lo, hi)
                closed = lognormal_partial_moments(MODEL, p, [lo, hi])[0]
                assert abs(numeric - closed) <= 1e-9


class TestLinearConditionalMoments:
    def test_sums_reproduce_unpartitioned_moments(self):
        moments = linear_conditional_moments(MODEL, FIG_BOUNDARIES_6)
        total, mean, sqrt_mean = moments.normalisation_sums()
        assert abs(total - 1.0) <= 1e-10
        assert abs(mean - 1.0) <= 1e-10
        assert abs(sqrt_mean - math.sqrt(1.0 - MODEL.root_variance)) <= 1e-10

    def test_cross_terms_positive_and_bounded(self):
        moments = linear_conditional_moments(MODEL, FIG_BOUNDARIES_6)
        assert np.all(moments.cross_digital > 0.0)
        assert np.all(moments.cross_sqrt > 0.0)
        assert np.all(moments.cross_price > 0.0)
        # sqrt(u_n u_{n+1}) <= 1/2 pointwise, so each cross moment is below
        # half the shared support mass.
        assert np.all(moments.cross_digital <= 0.5)

    def test_budget_enforced(self):
        with pytest.raises(QuadratureBudgetExceeded):
            linear_conditional_moments(MODEL, FIG_BOUNDARIES_6, node_budget=100)

    def test_moment_matrix_is_psd_tridiagonal(self):
        moments = linear_conditional_moments(MODEL, FIG_BOUNDARIES_6)
        q = partition_moment_matrix(moments)
        eigs = np.linalg.eigvalsh(q.entries)
        assert eigs[0] >= -1e-12
        n = moments.cells
        # Quadrants are tridiagonal: nothing beyond the first off-diagonal.
        upper_left = q.entries[:n, :n]
        assert np.all(np.triu(upper_left, 2) == 0.0)


class TestLinearRefinedBound:
    def test_far_tail_strikes_approach_vanilla(self):
        bound = refined_bounds(linear_conditional_moments(MODEL, [0.02, 18.0]), [1.0])[0]
        vanilla = vanilla_bounds(1.0, MODEL.root_variance, [1.0])[0]
        assert bound <= vanilla + 1e-12
        assert bound == pytest.approx(vanilla, abs=5e-3)

    def test_five_strike_bound_sandwiched_and_smoother(self):
        lm = linear_conditional_moments(MODEL, FIG_BOUNDARIES_6)
        fm = flat_conditional_moments(MODEL, FIG_BOUNDARIES_6)
        nu = MODEL.root_variance
        atm = refined_bounds(lm, [1.0])[0]
        black = bs_call_prices(MODEL.forward, [1.0], MODEL.sigma, MODEL.expiry)[0]
        assert black <= atm <= vanilla_bounds(1.0, nu, [1.0])[0]
        linear_curve = refined_bounds(lm, EVAL_STRIKES)
        flat_curve = refined_bounds(fm, EVAL_STRIKES)
        # Continuous basis functions produce a visibly smoother bound than
        # the kinked digital partition on the same strike grid.
        assert np.max(np.abs(np.diff(linear_curve, 2))) < np.max(np.abs(np.diff(flat_curve, 2)))

    def test_dominates_reference_prices(self):
        lm29 = linear_conditional_moments(MODEL, FIG_BOUNDARIES_30)
        black = bs_call_prices(MODEL.forward, EVAL_STRIKES, MODEL.sigma, MODEL.expiry)
        assert np.all(refined_bounds(lm29, EVAL_STRIKES) >= black - 1e-10)

    def test_monotone_against_vanilla_and_finer_grid(self):
        lm5 = linear_conditional_moments(MODEL, FIG_BOUNDARIES_6)
        lm29 = linear_conditional_moments(MODEL, FIG_BOUNDARIES_30)
        nu = MODEL.root_variance
        for k in (0.6, 1.0, 1.9, 2.5):
            b0 = vanilla_bounds(1.0, nu, [k])[0]
            b5 = refined_bounds(lm5, [k])[0]
            b29 = refined_bounds(lm29, [k])[0]
            assert b0 >= b5 - 1e-10
            assert b5 >= b29 - 1e-10


class TestConditionalMomentsType:
    def test_cross_sequences_all_or_none(self):
        with pytest.raises(ParameterOutOfRange):
            ConditionalMoments(
                digital=[0.5, 0.5],
                price=[1.0, 1.0],
                root_variance=[0.1, 0.1],
                cross_price=[0.1],
                cross_sqrt=None,
                cross_digital=None,
            )

    @pytest.mark.parametrize("field", ["digital", "root_variance", "cross_sqrt"])
    def test_non_finite_moments_rejected(self, field):
        # No solver path assembles a MomentMatrix for them any more, so the
        # moments themselves must refuse NaN and inf.
        values = dict(
            digital=[0.5, 0.5],
            price=[0.8, 1.2],
            root_variance=[0.1, 0.1],
            cross_price=[0.1],
            cross_sqrt=[0.1],
            cross_digital=[0.1],
        )
        values[field] = [math.nan] * len(values[field])
        with pytest.raises(ParameterOutOfRange, match="finite"):
            ConditionalMoments(**values)

    def test_externally_supplied_moments_are_usable(self):
        # Quote-implied conditional moments can bypass the reference model.
        moments = ConditionalMoments(
            digital=[0.6, 0.4],
            price=[0.7, 1.45],
            root_variance=[0.01, 0.02],
        )
        q = partition_moment_matrix(moments)
        assert q.dim == 4
        value = refined_bounds(moments, [1.0])[0]
        assert value >= 0.0

    def test_single_cell_matrix_matches_vanilla_layout(self):
        moments = ConditionalMoments(digital=[1.0], price=[1.0], root_variance=[0.04])
        q = partition_moment_matrix(moments)
        s = math.sqrt(0.96)
        assert np.allclose(q.entries, [[1.0, s], [s, 1.0]], rtol=1e-15)


class TestRefinedBounds:
    @pytest.mark.parametrize("kind", ["flat", "linear"])
    def test_sweep_matches_single_strikes_exactly(self, kind):
        build = flat_conditional_moments if kind == "flat" else linear_conditional_moments
        moments = build(MODEL, FIG_BOUNDARIES_6)
        sweep = refined_bounds(moments, EVAL_STRIKES)
        assert sweep.shape == EVAL_STRIKES.shape
        for k, value in zip(EVAL_STRIKES, sweep):
            assert value == refined_bounds(moments, [k])[0]

    @pytest.mark.parametrize("kind", ["flat", "linear"])
    def test_sweep_factors_once(self, kind, factor_calls, monkeypatch):
        """Flat sweeps factor nothing; hat sweeps factor Q once, as a band.
        Neither reaches the dense engine's factor_psd."""
        banded = []
        original = scipy.linalg.cholesky_banded

        def counting(*args, **kwargs):
            banded.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky_banded", counting)
        build = flat_conditional_moments if kind == "flat" else linear_conditional_moments
        moments = build(MODEL, FIG_BOUNDARIES_30)
        refined_bounds(moments, EVAL_STRIKES)
        assert len(factor_calls) == 0
        assert len(banded) == (0 if kind == "flat" else 1)

    def test_rejects_non_positive_strikes(self):
        moments = flat_conditional_moments(MODEL, FIG_BOUNDARIES_6)
        for bad in ([1.0, 0.0], [1.0, -0.5], [math.nan]):
            with pytest.raises(ParameterOutOfRange):
                refined_bounds(moments, bad)
        with pytest.raises(ParameterOutOfRange):
            refined_bounds(moments, [0.0])


def lognormal_density(model, a):
    stdev = model.sigma * math.sqrt(model.expiry)
    z = (np.log(a / model.forward) + 0.5 * stdev * stdev) / stdev
    return np.exp(-0.5 * z * z) / (a * stdev * math.sqrt(2.0 * math.pi))


def random_model_and_grid(seed, cells):
    """A lognormal model and ``cells - 1`` sorted boundaries spread over about
    three standard deviations of log-moneyness either side of the forward."""
    rng = np.random.default_rng(seed)
    model = LognormalModel(rng.uniform(0.5, 3.0), rng.uniform(0.1, 0.8), rng.uniform(0.25, 3.0))
    stdev = model.sigma * math.sqrt(model.expiry)
    grid = np.sort(model.forward * np.exp(rng.uniform(-3.0, 3.0, cells - 1) * stdev))
    return model, grid


class TestWholeGridMoments:
    """The partition moments are built as arrays over all cells and panels at
    once; each is held to an independent per-cell computation."""

    @pytest.mark.parametrize("seed", range(6))
    def test_flat_moments_equal_per_cell_closed_form(self, seed):
        model, grid = random_model_and_grid(seed, 12)
        # Two boundaries 40 standard deviations out add a dropped cell between
        # them and a dropped tail; about half the cells lie above the median,
        # where the partial moment takes its upper-tail branch.
        far = model.forward * math.exp(40.0 * model.sigma * math.sqrt(model.expiry))
        edges = [0.0, *grid, far, 2.0 * far, math.inf]
        with pytest.warns(UserWarning, match="dropped 2 partition cell"):
            moments = flat_conditional_moments(model, edges[1:-1])
        kept = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if lo < far]
        assert moments.cells == len(kept) == grid.size + 1
        digital = [lognormal_partial_moments(model, 0.0, [lo, hi])[0] for lo, hi in kept]
        first = [lognormal_partial_moments(model, 1.0, [lo, hi])[0] for lo, hi in kept]
        half = [lognormal_partial_moments(model, 0.5, [lo, hi])[0] for lo, hi in kept]
        price = [f / d for f, d in zip(first, digital)]
        nu = [root_variance_from_moments(f, h / d) for f, h, d in zip(price, half, digital)]
        assert moments.digital.tolist() == digital
        assert moments.price.tolist() == price
        assert moments.root_variance.tolist() == nu

    def test_partial_moments_of_a_grid_equal_its_cells(self):
        model, grid = random_model_and_grid(11, 9)
        edges = [0.0, *grid, math.inf]
        orders = [0.0, 0.5, 1.0]
        table = lognormal_partial_moments(model, orders, edges)
        assert table.shape == (3, len(edges) - 1)
        for row, p in zip(table, orders):
            cells = zip(edges[:-1], edges[1:])
            one_cell = [lognormal_partial_moments(model, p, [lo, hi])[0] for lo, hi in cells]
            assert row.tolist() == one_cell

    def test_partial_moment_grid_rejects_first_bad_cell(self):
        with pytest.raises(ParameterOutOfRange, match=r"got \(2\.0, 1\.5\)"):
            lognormal_partial_moments(MODEL, 0.0, [0.0, 2.0, 1.5, 1.0])
        with pytest.raises(ParameterOutOfRange, match=r"got \(-1\.0, 1\.0\)"):
            lognormal_partial_moments(MODEL, 0.0, [-1.0, 1.0])

    @pytest.mark.parametrize("seed, count", [(0, 2), (1, 5), (2, 17), (3, 40)])
    def test_hat_moments_match_per_interval_quadrature(self, seed, count):
        model, grid = random_model_and_grid(100 + seed, count + 1)
        part = LinearPartition(grid)
        k = part.strikes
        moments = linear_conditional_moments(model, grid)

        nodes, weights = _gl_rule(64)

        def ramp_moment(n, p):
            # The head and tail cells, where u_0 and u_{N-1} are flat at one,
            # plus Gauss-Legendre over each strike interval in the support.
            total = 0.0
            if n == 0:
                total += _quadrature_partial_moment(model, p, 0.0, k[0])
            if n == count - 1:
                total += _quadrature_partial_moment(model, p, k[-1], math.inf)
            for i in (n - 1, n):
                if 0 <= i < count - 1:
                    mid, half = 0.5 * (k[i + 1] + k[i]), 0.5 * (k[i + 1] - k[i])
                    a = mid + half * nodes
                    values = part.weight(n, a) * a**p * lognormal_density(model, a)
                    total += half * float(np.dot(weights, values))
            return total

        def cross_moment(i, p):
            value, error = quad(
                lambda a: a**p * float(part.sqrt_cross(i, a)) * lognormal_density(model, a),
                k[i],
                k[i + 1],
                epsabs=0.0,
                epsrel=1e-13,
                limit=200,
            )
            return value

        digital = np.array([ramp_moment(n, 0.0) for n in range(count)])
        first = np.array([ramp_moment(n, 1.0) for n in range(count)])
        half = np.array([ramp_moment(n, 0.5) for n in range(count)])
        # Quadrature orders differ (one panel here, head/tail identical), so
        # the two computations agree to roundoff, not bit for bit.
        rel = 1e-13
        assert np.all(np.abs(moments.digital - digital) <= rel * digital)
        assert np.all(np.abs(moments.price * moments.digital - first) <= rel * first)
        assert np.all(np.abs(moments.sqrt_scaled - half) <= 1e-12 * half)
        for name, p in (("cross_digital", 0.0), ("cross_sqrt", 0.5), ("cross_price", 1.0)):
            expected = np.array([cross_moment(i, p) for i in range(count - 1)])
            assert np.all(np.abs(getattr(moments, name) - expected) <= 1e-10 * expected), name

    @pytest.mark.parametrize("count, n_nodes", [(2, 8), (5, 16), (30, 64)])
    def test_budget_boundary_unchanged(self, count, n_nodes):
        # Head, tail, N - 1 ramp panels and N - 1 cross panels, three orders each.
        strikes = np.linspace(0.5, 2.0, count)
        planned = 2 * count * n_nodes * 3
        linear_conditional_moments(MODEL, strikes, n_nodes=n_nodes, node_budget=planned)
        with pytest.raises(QuadratureBudgetExceeded, match=f"^{planned} integrand"):
            linear_conditional_moments(MODEL, strikes, n_nodes=n_nodes, node_budget=planned - 1)

    def test_zero_mass_boundary_unchanged(self):
        strikes = [0.5, 1.0, 2.0, 12.0]
        lightest = float(np.min(linear_conditional_moments(MODEL, strikes).digital))
        linear_conditional_moments(MODEL, strikes, cell_floor=lightest)
        with pytest.raises(DegenerateCell, match="zero mass"):
            linear_conditional_moments(MODEL, strikes, cell_floor=np.nextafter(lightest, 1.0))
        # Strikes 50x the forward leave a hat function with no mass at all.
        with pytest.raises(DegenerateCell, match="zero mass"):
            linear_conditional_moments(MODEL, [1.0, 50.0, 60.0])

    def test_flat_floor_boundary_unchanged(self):
        moments = flat_conditional_moments(MODEL, [1.0, 4.0, 9.0])
        lightest = float(moments.digital[-1])
        assert flat_conditional_moments(MODEL, [1.0, 4.0, 9.0], cell_floor=lightest).cells == 4
        with pytest.raises(DegenerateCell, match=r"cell \(9\.0, inf\)"):
            flat_conditional_moments(
                MODEL, [1.0, 4.0, 9.0], cell_floor=np.nextafter(lightest, 1.0), strict=True
            )
        with pytest.warns(UserWarning, match="dropped 2"):
            with pytest.raises(DegenerateCell, match="all"):
                flat_conditional_moments(MODEL, [1.0], cell_floor=0.9)
