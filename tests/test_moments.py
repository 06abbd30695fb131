import math

import numpy as np
import pytest

from momentbounds.engine import factor_psd, positive_eigenvalue_bounds
from momentbounds.errors import (
    DimensionMismatch,
    MomentInconsistency,
    NotPositiveSemiDefinite,
    ParameterOutOfRange,
)
from momentbounds.moments import (
    AssetMoments,
    CorrelationMatrix,
    assemble_q,
    cross_term,
    root_variance_from_moments,
)


class TestAssetMoments:
    def test_validation(self):
        with pytest.raises(ParameterOutOfRange):
            AssetMoments(0.0, 0.1)
        with pytest.raises(ParameterOutOfRange):
            AssetMoments(1.0, 1.5)

    def test_sqrt_moment(self):
        assert AssetMoments(1.0, 0.04).sqrt_moment == pytest.approx(
            math.sqrt(0.96), rel=1e-15, abs=0.0
        )


class TestCrossTerm:
    def test_zero_variance_ignores_correlation(self):
        a = AssetMoments(1.0, 0.0)
        b = AssetMoments(2.0, 0.0)
        for rho in (-1.0, 0.0, 1.0):
            assert cross_term(a, b, rho) == 1.0

    def test_perfect_correlation_matched_variance(self):
        a = AssetMoments(1.0, 0.3)
        assert cross_term(a, a, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_uncorrelated_value(self):
        a = AssetMoments(1.0, 0.04)
        b = AssetMoments(1.0, 0.09)
        assert cross_term(a, b, 0.0) == pytest.approx(math.sqrt(0.96 * 0.91), rel=1e-15, abs=0.0)

    def test_bounded_by_one(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = AssetMoments(1.0, rng.uniform(0.0, 1.0))
            b = AssetMoments(1.0, rng.uniform(0.0, 1.0))
            q = cross_term(a, b, rng.uniform(-1.0, 1.0))
            assert -1.0 - 1e-15 <= q <= 1.0 + 1e-15

    def test_monotone_in_rho(self):
        a = AssetMoments(1.0, 0.2)
        b = AssetMoments(1.0, 0.5)
        rhos = np.linspace(-1.0, 1.0, 21)
        values = [cross_term(a, b, r) for r in rhos]
        assert np.all(np.diff(values) >= 0.0)

    def test_rho_out_of_range(self):
        with pytest.raises(ParameterOutOfRange):
            cross_term(AssetMoments(1.0, 0.1), AssetMoments(1.0, 0.1), 1.1)


class TestCorrelationMatrix:
    def test_inconsistent_correlations_rejected(self):
        # The one PSD check is on the assembled moment matrix.
        rho = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
        moments = [AssetMoments(1.0, 0.5)] * 3
        with pytest.raises(NotPositiveSemiDefinite):
            factor_psd(assemble_q(moments, CorrelationMatrix(rho)))

    def test_psd_check_can_be_disabled(self):
        # CorrelationMatrix carries no PSD check of its own: only the moment
        # matrix must be PSD, and with zero root-variances the correlations
        # drop out of it, so jointly inconsistent ones are harmless there.
        rho = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
        corr = CorrelationMatrix(rho)
        assert np.array_equal(corr.entries, rho)
        pairs = {(0, 1): 1.0, (0, 2): -1.0, (1, 2): 1.0}
        assert np.array_equal(CorrelationMatrix.from_pairs(3, pairs).entries, rho)
        factor = factor_psd(assemble_q([AssetMoments(1.0, 0.0)] * 3, corr))
        assert factor.rank == 1

    def test_unit_diagonal_required(self):
        with pytest.raises(ParameterOutOfRange):
            CorrelationMatrix([[1.0, 0.0], [0.0, 0.9]])

    def test_sparse_pairs_require_relevant_entries(self):
        with pytest.raises(ParameterOutOfRange, match="pair"):
            CorrelationMatrix.from_pairs(3, {(0, 1): 0.5}, required=[(0, 1), (1, 2)])
        corr = CorrelationMatrix.from_pairs(3, {(0, 1): 0.5, (1, 2): 0.1}, required=[(0, 1), (1, 2)])
        assert corr.entries[2, 1] == 0.1


class TestAssembleQ:
    def test_singleton(self):
        q = assemble_q([AssetMoments(2.0, 0.3)], {})
        assert q.entries.shape == (1, 1)
        assert q.entries[0, 0] == 2.0

    def test_vanilla_pair(self):
        f, nu = 1.7, 0.21
        q = assemble_q([AssetMoments(f, nu), AssetMoments(1.0, 0.0)], {(0, 1): 0.0})
        s = math.sqrt(f * (1.0 - nu))
        assert np.allclose(q.entries, [[f, s], [s, 1.0]], rtol=1e-15)

    def test_deterministic_assets_are_rank_one(self):
        moments = [AssetMoments(f, 0.0) for f in (1.0, 2.0, 3.0)]
        corr = CorrelationMatrix(np.ones((3, 3)))
        q = assemble_q(moments, corr)
        f = np.array([1.0, 2.0, 3.0])
        assert np.allclose(q.entries, np.sqrt(np.outer(f, f)), rtol=1e-15)
        assert factor_psd(q).rank == 1

    def test_deterministic_bound_is_portfolio_value(self):
        moments = [AssetMoments(f, 0.0) for f in (1.0, 2.0, 3.0)]
        q = assemble_q(moments, {})
        for lam in ([1.0, 1.0, -1.2], [1.0, -1.0, 0.1], [-1.0, -0.1, 0.5]):
            value = float(np.dot(lam, [1.0, 2.0, 3.0]))
            bound = positive_eigenvalue_bounds(q, [lam]).bounds[0]
            assert bound == pytest.approx(max(0.0, value), abs=1e-12)

    def test_sparse_missing_pair_raises(self):
        moments = [AssetMoments(1.0, 0.1), AssetMoments(1.0, 0.2)]
        with pytest.raises(ParameterOutOfRange, match="pair"):
            assemble_q(moments, {})

    def test_sparse_pair_irrelevant_when_variance_zero(self):
        moments = [AssetMoments(1.0, 0.1), AssetMoments(1.0, 0.0)]
        q = assemble_q(moments, {})
        assert q.entries[0, 1] == pytest.approx(math.sqrt(0.9), rel=1e-15, abs=0.0)

    def test_entries_monotone_in_rho(self):
        moments = [AssetMoments(1.0, 0.2), AssetMoments(1.0, 0.4)]
        values = [
            assemble_q(moments, {(0, 1): rho}).entries[0, 1] for rho in np.linspace(-1, 1, 9)
        ]
        assert np.all(np.diff(values) >= 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            assemble_q([AssetMoments(1.0, 0.1)], CorrelationMatrix(np.eye(2)))


class TestRootVarianceFromMoments:
    def test_deterministic_asset(self):
        assert root_variance_from_moments(1.0, 1.0) == 0.0

    def test_boundary(self):
        assert root_variance_from_moments(1.0, 0.0) == 1.0

    def test_lognormal_moment_identity(self):
        # E[a^p] = f^p exp(p (p-1) sigma^2 T / 2) with f = 1, sigma = 0.4,
        # T = 1 gives E[sqrt(a)] = exp(-0.02).
        nu = root_variance_from_moments(1.0, math.exp(-0.02))
        assert nu == pytest.approx(1.0 - math.exp(-0.04), rel=1e-12, abs=0.0)

    def test_round_trip(self):
        f = 1.3
        for nu in np.linspace(0.0, 1.0, 41):
            recovered = root_variance_from_moments(f, math.sqrt(f * (1.0 - nu)))
            assert abs(recovered - nu) <= 1e-14

    def test_inconsistent_moments_raise(self):
        with pytest.raises(MomentInconsistency):
            root_variance_from_moments(1.0, 1.1)

    def test_arrays_match_elementwise_calls(self):
        rng = np.random.default_rng(3)
        e_a = rng.uniform(0.1, 3.0, 40)
        e_sqrt_a = np.sqrt(e_a * rng.uniform(0.0, 1.0 + 5e-13, 40))
        nu = root_variance_from_moments(e_a, e_sqrt_a)
        assert isinstance(nu, np.ndarray)
        assert nu.tolist() == [root_variance_from_moments(a, s) for a, s in zip(e_a, e_sqrt_a)]
        assert np.all((nu >= 0.0) & (nu <= 1.0))

    def test_scalar_inputs_give_a_float(self):
        assert type(root_variance_from_moments(2.0, 1.0)) is float
        # A NaN E[sqrt(a)] passes the checks and clamps to zero, as max(0, nan) does.
        assert root_variance_from_moments(1.0, math.nan) == 0.0

    @pytest.mark.parametrize(
        "e_a, e_sqrt_a, error, message",
        [
            # The first failing element raises its own first failing check.
            ([1.0, 1.0, 0.0], [1.0, 1.1, -1.0], MomentInconsistency, "exceeds E[a] = 1.0"),
            ([1.0, -2.0, 1.0], [1.0, 1.1, -1.0], ParameterOutOfRange, "positive, got -2.0"),
            ([1.0, 1.0, 1.0], [0.5, -0.5, 2.0], ParameterOutOfRange, "non-negative, got -0.5"),
            ([1.0, math.nan], [0.5, 0.5], ParameterOutOfRange, "E[a] must be positive, got nan"),
        ],
    )
    def test_arrays_raise_for_first_failing_element(self, e_a, e_sqrt_a, error, message):
        with pytest.raises(error) as caught:
            root_variance_from_moments(np.array(e_a), np.array(e_sqrt_a))
        assert message in str(caught.value)
        first_bad = next(i for i in range(len(e_a)) if not _passes(e_a[i], e_sqrt_a[i]))
        with pytest.raises(error) as scalar:
            root_variance_from_moments(e_a[first_bad], e_sqrt_a[first_bad])
        assert str(scalar.value) == str(caught.value)


def _passes(e_a, e_sqrt_a) -> bool:
    try:
        root_variance_from_moments(e_a, e_sqrt_a)
    except (ParameterOutOfRange, MomentInconsistency):
        return False
    return True
