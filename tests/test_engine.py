import math

import numpy as np
import pytest

from momentbounds import engine
from momentbounds.engine import (
    BoundSweep,
    MomentMatrix,
    Tolerances,
    factor_psd,
    positive_eigenvalue_bounds,
    symmetric_eigenvalues,
)
from momentbounds.errors import (
    DimensionMismatch,
    NotPositiveSemiDefinite,
    ParameterOutOfRange,
)
from momentbounds.moments import AssetMoments, assemble_q


def random_psd(rng, n, rank=None):
    a = rng.standard_normal((rank or n, n))
    return MomentMatrix(a.T @ a + 1e-3 * np.eye(n))


def exact_rank_two(rng, n):
    """a^T a for a 2 x n Gaussian a, symmetrised: rank 2 up to roundoff."""
    a = rng.standard_normal((2, n))
    q = a.T @ a
    return MomentMatrix(0.5 * (q + q.T))


def bound_through(factor, quantities, tol=Tolerances()):
    """Positive eigenvalue sum of S L S^T for a given factor S (Q = S^T S)."""
    p = (factor * quantities[None, :]) @ factor.T
    eigs = symmetric_eigenvalues(0.5 * (p + p.T))
    return float(np.sum(eigs[eigs > tol.eig * np.max(np.abs(eigs))]))


class TestMomentMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            MomentMatrix(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterOutOfRange):
            MomentMatrix([[1.0, 0.1], [np.nextafter(0.1, 1.0), 1.0]])

    def test_rejects_non_positive_diagonal(self):
        with pytest.raises(ParameterOutOfRange):
            MomentMatrix([[1.0, 0.0], [0.0, 0.0]])

    def test_rejects_non_finite_entries(self):
        for bad in ([[math.inf, 0.0], [0.0, 1.0]], [[1.0, math.inf], [math.inf, 1.0]]):
            with pytest.raises(ParameterOutOfRange):
                MomentMatrix(bad)

    def test_entries_are_frozen(self):
        q = MomentMatrix(np.eye(2))
        with pytest.raises(ValueError):
            q.entries[0, 0] = 2.0


class TestFactorPsd:
    def test_identity(self):
        fac = factor_psd(MomentMatrix(np.eye(2)))
        assert fac.rank == 2
        assert np.allclose(fac.matrix, np.eye(2))

    def test_vanilla_pair_matches_triangular_factor(self):
        # f = 1, nu = 0.04: the triangular factor has rows (1, 0) and
        # (sqrt(0.96), 0.2) in asset-major layout.  Any factor of Q gives
        # the same bound.
        q = MomentMatrix([[1.0, math.sqrt(0.96)], [math.sqrt(0.96), 1.0]])
        fac = factor_psd(q)
        assert fac.rank == 2
        assert np.max(np.abs(fac.matrix.T @ fac.matrix - q.entries)) <= 1e-15
        triangular = np.array([[1.0, 0.0], [math.sqrt(0.96), 0.2]]).T
        for k in (0.5, 0.8, 1.0, 1.3):
            lam = np.array([1.0, -k])
            assert bound_through(fac.matrix, lam) == pytest.approx(
                bound_through(triangular, lam), rel=1e-14, abs=0.0
            )

    def test_rank_one_symmetric_case(self):
        fac = factor_psd(MomentMatrix([[1.0, 1.0], [1.0, 1.0]]))
        assert fac.rank == 1
        assert fac.matrix.shape == (1, 2)
        assert np.allclose(np.abs(fac.matrix), [[1.0, 1.0]])

    def test_reconstruction_on_random_psd(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 8):
            q = random_psd(rng, n)
            fac = factor_psd(q)
            err = np.max(np.abs(fac.matrix.T @ fac.matrix - q.entries))
            assert err <= 1e-10 * np.max(np.diag(q.entries))

    def test_rank_deficient_detection(self):
        q = exact_rank_two(np.random.default_rng(11), 5)
        fac = factor_psd(q)
        assert fac.rank == 2
        err = np.max(np.abs(fac.matrix.T @ fac.matrix - q.entries))
        assert err <= 1e-10 * np.max(np.diag(q.entries))

    def test_rank_cutoff_keeps_small_real_directions(self):
        # Eigenvalue 1e-12 of a unit-diagonal Q is far above roundoff: it
        # carries the whole bound sqrt(1 - r^2) for quantities (1, -1).
        r = 1.0 - 1e-12
        q = MomentMatrix([[1.0, r], [r, 1.0]])
        assert factor_psd(q).rank == 2
        bound = positive_eigenvalue_bounds(q, [[1.0, -1.0]]).bounds[0]
        assert bound == pytest.approx(math.sqrt((1.0 - r) * (1.0 + r)), rel=1e-3, abs=0.0)

    def test_indefinite_raises(self):
        q = MomentMatrix([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        with pytest.raises(NotPositiveSemiDefinite):
            factor_psd(q)

    def test_eigen_fallback_clips_tolerable_negatives(self):
        # Slightly indefinite within psd tolerance (eigenvalue -5e-11 at unit
        # diagonal): the factor clips and reports the clipped mass.
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        v = np.array([1.0, -1.0]) / math.sqrt(2.0)
        q = MomentMatrix(np.outer(u, u) - 2.5e-11 * np.outer(v, v))
        fac = factor_psd(q)
        assert fac.method == "eigen"
        assert fac.rank == 1
        assert 0.0 < fac.clipped_negative_mass < 1e-10
        err = np.max(np.abs(fac.matrix.T @ fac.matrix - q.entries))
        assert err <= 1e-9

    def test_psd_allowance_does_not_depend_on_scale(self):
        # The allowance is measured on Q scaled to unit diagonal, so scaling
        # Q changes neither the verdict nor the clipped mass.
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        v = np.array([1.0, -1.0]) / math.sqrt(2.0)
        tolerable = np.outer(u, u) - 2.5e-11 * np.outer(v, v)
        inconsistent = np.outer(u, u) - 1e-10 * np.outer(v, v)
        masses = []
        for c in (1e-6, 1.0, 1e6):
            masses.append(factor_psd(MomentMatrix(c * tolerable)).clipped_negative_mass)
            with pytest.raises(NotPositiveSemiDefinite):
                factor_psd(MomentMatrix(c * inconsistent))
        # The mass is an eigenvalue of a matrix with unit diagonal: it is
        # resolved to roundoff of that unit scale, not of its own 5e-11.
        assert masses == pytest.approx([masses[1]] * 3, rel=0.0, abs=1e-15)

    def test_nearly_collinear_small_assets_match_cholesky(self):
        # A caplet-like basket: two swap rates priced 0.01 and correlated
        # close to 1, beside unit cash.  The factor must resolve their small
        # eigenvalue against their own prices, not against the cash entry;
        # resolved against the largest eigenvalue it is off by 6e-11.
        f, nu = 0.01, 0.04
        cash = math.sqrt(f * (1.0 - nu))
        worst = 0.0
        for rho in (0.999, 0.9999, 0.99999):
            cross = f * ((1.0 - nu) + rho * nu)
            q = MomentMatrix([[f, cross, cash], [cross, f, cash], [cash, cash, 1.0]])
            cholesky = np.linalg.cholesky(q.entries).T
            for k in (0.005, 0.01, 0.015, 0.02):
                lam = np.array([10.0, -9.0, -k])
                want = bound_through(cholesky, lam)
                got = positive_eigenvalue_bounds(q, [lam]).bounds[0]
                worst = max(worst, abs(got - want) / want)
        assert worst <= 5e-12


class TestSymmetricEigenvalues:
    def test_diagonal_case(self):
        assert np.allclose(symmetric_eigenvalues(np.diag([3.0, -1.0, 0.0])), [3.0, 0.0, -1.0])

    def test_exchange_matrix(self):
        assert np.allclose(symmetric_eigenvalues([[0.0, 1.0], [1.0, 0.0]]), [1.0, -1.0])

    def test_vanilla_p_matrix_roots(self):
        # P for f = 1, k = 0.8, nu = 0.04; eigenvalues are the roots of
        # p^2 - 0.2 p - 0.032 = 0.
        f, k, nu = 1.0, 0.8, 0.04
        p = np.array(
            [
                [f * nu, f * math.sqrt(nu * (1.0 - nu))],
                [f * math.sqrt(nu * (1.0 - nu)), f * (1.0 - nu) - k],
            ]
        )
        disc = math.sqrt(0.2**2 + 4.0 * 0.032)
        expected = [(0.2 + disc) / 2.0, (0.2 - disc) / 2.0]
        assert np.allclose(symmetric_eigenvalues(p), expected, atol=1e-14)

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterOutOfRange):
            symmetric_eigenvalues([[0.0, 1.0], [0.5, 0.0]])

    def test_stack_matches_single_matrices(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((6, 4, 4))
        stack = a + a.transpose(0, 2, 1)
        eigs = symmetric_eigenvalues(stack)
        assert eigs.shape == (6, 4)
        for row, matrix in zip(eigs, stack):
            assert np.array_equal(row, symmetric_eigenvalues(matrix))

    def test_stack_checks_each_matrix_on_its_own_scale(self):
        # The second matrix's asymmetry is tiny next to the first's entries
        # but not next to its own.
        stack = np.array([[[1e6, 0.0], [0.0, 1e6]], [[0.0, 1.0], [1.0 + 1e-12, 0.0]]])
        with pytest.raises(ParameterOutOfRange):
            symmetric_eigenvalues(stack)


class TestPositiveEigenvalueBound:
    """One portfolio at a time: one-row sweeps."""

    def test_identity_case(self):
        result = positive_eigenvalue_bounds(MomentMatrix(np.eye(2)), [[1.0, -1.0]])
        assert result.bounds[0] == pytest.approx(1.0, abs=1e-15)
        assert result.positive_counts.tolist() == [1]
        assert np.allclose(result.eigenvalues[0], [1.0, -1.0])

    def test_atm_case(self):
        f = k = 1.0
        nu = 0.04
        s = math.sqrt(f * (1.0 - nu))
        q = MomentMatrix([[f, s], [s, 1.0]])
        bound = positive_eigenvalue_bounds(q, [[1.0, -k]]).bounds[0]
        assert bound == pytest.approx(math.sqrt(f * k * nu), rel=1e-14, abs=0.0)

    def test_single_asset(self):
        q = MomentMatrix([[2.0]])
        assert positive_eigenvalue_bounds(q, [[3.0]]).bounds[0] == pytest.approx(6.0)
        assert positive_eigenvalue_bounds(q, [[-3.0]]).bounds[0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            positive_eigenvalue_bounds(MomentMatrix(np.eye(2)), [[1.0]])

    def test_result_reports_diagnostics(self):
        rng = np.random.default_rng(3)
        q = random_psd(rng, 4)
        result = positive_eigenvalue_bounds(q, [rng.standard_normal(4)])
        assert isinstance(result, BoundSweep)
        assert result.rank_q == 4
        assert result.clipped_negative_mass == 0.0
        assert result.eigenvalues.shape == (1, 4)
        assert result.bounds[0] >= 0.0


class TestTolerances:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"psd": -0.5},
            {"psd": -1e-300},
            {"psd": math.nan},
            {"eig": -2.0},
            {"eig": 1.0},
            {"eig": 2.0},
            {"eig": math.nan},
        ],
    )
    def test_under_reporting_values_rejected(self, kwargs):
        with pytest.raises(ParameterOutOfRange):
            Tolerances(**kwargs)

    def test_edge_values_keep_the_bound(self):
        # Before the check, eig = -2, 1 or 2 turned this 0.866 bound into 0.
        q, quantities = MomentMatrix([[1.0, 0.5], [0.5, 1.0]]), [[1.0, -1.0]]
        default = positive_eigenvalue_bounds(q, quantities).bounds[0]
        assert default == pytest.approx(math.sqrt(0.75), rel=1e-15, abs=0.0)
        for tol in (Tolerances(psd=0.0, eig=0.0), Tolerances(psd=math.inf)):
            assert positive_eigenvalue_bounds(q, quantities, tol).bounds[0] == default


class TestEngineProperties:
    def test_scaling(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            q = random_psd(rng, 4)
            lam = [rng.standard_normal(4)]
            base = positive_eigenvalue_bounds(q, lam).bounds[0]
            for c in (0.25, 3.0, 117.0):
                scaled = positive_eigenvalue_bounds(MomentMatrix(c * q.entries), lam).bounds[0]
                assert scaled == pytest.approx(c * base, rel=1e-12, abs=0.0)

    def test_factorization_independence(self):
        # Bound through the engine's eigen square root vs a second factor of
        # Q, its LAPACK Cholesky factor: identical to 1e-10 relative.
        rng = np.random.default_rng(23)
        for _ in range(25):
            q = random_psd(rng, 5)
            lam = rng.standard_normal(5)
            via_engine = positive_eigenvalue_bounds(q, [lam]).bounds[0]
            via_cholesky = bound_through(np.linalg.cholesky(q.entries).T, lam)
            scale = max(1.0, abs(via_cholesky))
            assert abs(via_engine - via_cholesky) <= 1e-10 * scale

    def test_schur_horn_domination_and_attainment(self):
        # Random orthonormal bases never beat the bound; the eigenbasis of P
        # attains it exactly.
        rng = np.random.default_rng(29)
        q = random_psd(rng, 4)
        lam = rng.standard_normal(4)
        bound = positive_eigenvalue_bounds(q, [lam]).bounds[0]
        fac = factor_psd(q)
        p = (fac.matrix * lam[None, :]) @ fac.matrix.T
        p = 0.5 * (p + p.T)
        z = np.linalg.qr(rng.standard_normal((2000, 4, 4)))[0]
        diag = np.einsum("bji,jk,bki->bi", z, p, z)
        values = np.sum(np.clip(diag, 0.0, None), axis=1)
        assert np.all(values <= bound + 1e-12)
        _, vectors = np.linalg.eigh(p)
        attained = float(np.sum(np.clip(np.diag(vectors.T @ p @ vectors), 0.0, None)))
        assert attained == pytest.approx(bound, abs=1e-12)

    def test_monotone_in_quantities(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            q = random_psd(rng, 4)
            lam = rng.standard_normal(4)
            base = positive_eigenvalue_bounds(q, [lam]).bounds[0]
            bumped = lam.copy()
            bumped[rng.integers(0, 4)] += abs(rng.standard_normal())
            higher = positive_eigenvalue_bounds(q, [bumped]).bounds[0]
            assert higher >= base - 1e-12

    def test_dominates_exercise_extremes(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            q = random_psd(rng, 5)
            lam = rng.standard_normal(5)
            bound = positive_eigenvalue_bounds(q, [lam]).bounds[0]
            full_exercise = float(np.dot(lam, np.diag(q.entries)))
            assert bound >= max(0.0, full_exercise) - 1e-12

    def test_not_monotone_in_root_variance_under_correlation(self):
        # The exchange option (a1 - a2)^+ with equal prices and square-root
        # correlation 1: a deterministic a1 leaves the put bound on a2, but
        # raising nu1 to nu2 makes the assets identical and the bound zero.
        # Monotonicity in nu holds only for an asset uncorrelated with the
        # others (test_properties).
        def exchange_bound(nu1):
            q = assemble_q([AssetMoments(1.0, nu1), AssetMoments(1.0, 0.25)], {(0, 1): 1.0})
            return positive_eigenvalue_bounds(q, [[1.0, -1.0]]).bounds[0]

        assert exchange_bound(0.0) == pytest.approx(0.5, rel=1e-15, abs=0.0)
        assert exchange_bound(0.25) == 0.0


def assert_same_sweep(got: BoundSweep, want: BoundSweep):
    assert np.array_equal(got.bounds, want.bounds)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert got.rank_q == want.rank_q
    assert got.clipped_negative_mass == want.clipped_negative_mass
    assert np.array_equal(got.positive_counts, want.positive_counts)


def sweep_rows(rng, n):
    """Mixed-sign rows plus all-long and all-short rows."""
    mixed = rng.standard_normal((7, n))
    return np.vstack([mixed, np.abs(mixed[:2]), -np.abs(mixed[2:4])])


class TestPositiveEigenvalueBounds:
    def check_rows_match(self, q, rows):
        sweep = positive_eigenvalue_bounds(q, rows)
        fac = factor_psd(q)
        assert sweep.bounds.shape == sweep.positive_counts.shape == (len(rows),)
        assert sweep.eigenvalues.shape == (len(rows), fac.rank)
        for i, row in enumerate(rows):
            # Row i of the sweep is the one-row sweep of that row.
            alone = positive_eigenvalue_bounds(q, [row])
            assert sweep.bounds[i] == alone.bounds[0]
            assert np.array_equal(sweep.eigenvalues[i], alone.eigenvalues[0])
            assert sweep.positive_counts[i] == alone.positive_counts[0]
            assert (sweep.rank_q, sweep.clipped_negative_mass) == (
                alone.rank_q, alone.clipped_negative_mass
            )
            # The unbatched computation, one 2-D eigensolve per row.
            p = (fac.matrix * row[None, :]) @ fac.matrix.T
            eigs = symmetric_eigenvalues(0.5 * (p + p.T))
            assert np.array_equal(sweep.eigenvalues[i], eigs)
            assert sweep.bounds[i] == float(np.sum(eigs[eigs > 1e-12 * np.max(np.abs(eigs))]))

    def test_full_rank_rows_match_single_calls_exactly(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 5, 8):
            self.check_rows_match(random_psd(rng, n), sweep_rows(rng, n))

    def test_many_positive_eigenvalues_match_single_calls_exactly(self):
        # Rows with eight or more positive eigenvalues take numpy's unrolled
        # summation, so each row's prefix must be summed as a row of its own.
        rng = np.random.default_rng(71)
        q = random_psd(rng, 24)
        rows = np.vstack([sweep_rows(rng, 24), np.abs(rng.standard_normal((3, 24)))])
        rows[-1, :20] *= -1.0
        sweep = positive_eigenvalue_bounds(q, rows)
        assert len(set(sweep.positive_counts.tolist()) & set(range(8, 25))) >= 2
        self.check_rows_match(q, rows)

    def test_rank_deficient_rows_match_single_calls_exactly(self):
        rng = np.random.default_rng(47)
        q = exact_rank_two(rng, 6)
        assert factor_psd(q).rank == 2
        self.check_rows_match(q, sweep_rows(rng, 6))

    def test_eigen_fallback_rows_match_single_calls_exactly(self):
        u = np.array([1.0, 1.0]) / math.sqrt(2.0)
        v = np.array([1.0, -1.0]) / math.sqrt(2.0)
        q = MomentMatrix(np.outer(u, u) - 2.5e-11 * np.outer(v, v))
        assert factor_psd(q).clipped_negative_mass > 0.0
        self.check_rows_match(q, sweep_rows(np.random.default_rng(53), 2))

    def test_one_sign_rows_are_trivial(self):
        rng = np.random.default_rng(59)
        q = random_psd(rng, 4)
        sweep = positive_eigenvalue_bounds(q, [[1.0, 2.0, 0.5, 1.0], [-1.0, -2.0, -0.5, -1.0]])
        full = float(np.dot([1.0, 2.0, 0.5, 1.0], np.diag(q.entries)))
        assert sweep.bounds[0] == pytest.approx(full, rel=1e-12, abs=0.0)
        assert sweep.bounds[1] == 0.0
        assert sweep.positive_counts.tolist() == [4, 0]

    def test_each_row_has_its_own_zero_threshold(self):
        # A huge row in the same stack must not zero the small eigenvalue of
        # the next row.
        sweep = positive_eigenvalue_bounds(np.eye(3), [[1e9, -1.0, -1.0], [1.0, 1e-6, -1.0]])
        assert sweep.positive_counts.tolist() == [1, 2]
        assert sweep.bounds[1] == 1.0 + 1e-6

    def test_stack_boundaries_do_not_change_results(self, monkeypatch):
        rng = np.random.default_rng(61)
        q = random_psd(rng, 5)
        rows = sweep_rows(rng, 5)
        whole = positive_eigenvalue_bounds(q, rows)
        # Two 5x5 S L products per stack, so the rows split into uneven stacks.
        monkeypatch.setattr(engine, "STACK_BYTES", 2 * 5 * 5 * 8)
        assert_same_sweep(positive_eigenvalue_bounds(q, rows), whole)

    def test_sweep_is_frozen(self):
        sweep = positive_eigenvalue_bounds(np.eye(2), [[1.0, -1.0], [2.0, -1.0]])
        for arr in (sweep.bounds, sweep.eigenvalues, sweep.positive_counts):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_factors_q_once(self, factor_calls):
        rng = np.random.default_rng(67)
        positive_eigenvalue_bounds(random_psd(rng, 3), sweep_rows(rng, 3))
        assert len(factor_calls) == 1

    def test_no_rows_gives_no_results(self):
        sweep = positive_eigenvalue_bounds(MomentMatrix(np.eye(2)), np.zeros((0, 2)))
        assert sweep.bounds.shape == sweep.positive_counts.shape == (0,)
        assert sweep.eigenvalues.shape == (0, 2)

    def test_rejects_wrong_row_length(self):
        q = MomentMatrix(np.eye(3))
        with pytest.raises(DimensionMismatch):
            positive_eigenvalue_bounds(q, np.ones((4, 2)))
        with pytest.raises(DimensionMismatch):
            positive_eigenvalue_bounds(q, [[1.0, -1.0, 0.5], [1.0, -1.0]])

    def test_rejects_non_finite_row(self):
        # A bad entry in any row of the sweep, first, middle or last.
        for bad_row in range(3):
            for bad in (math.nan, -math.inf):
                rows = np.ones((3, 2))
                rows[bad_row, 1] = bad
                with pytest.raises(ParameterOutOfRange):
                    positive_eigenvalue_bounds(MomentMatrix(np.eye(2)), rows)

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(DimensionMismatch):
            positive_eigenvalue_bounds(MomentMatrix(np.eye(2)), [1.0, -1.0])
        with pytest.raises(DimensionMismatch):
            positive_eigenvalue_bounds(MomentMatrix(np.eye(2)), np.zeros((2, 0)))
