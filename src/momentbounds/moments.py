"""Intuitive parametrisation of moment matrices.

A moment matrix is assembled from per-asset prices f_n, root-variances nu_n
(the normalised variance of the square-root of each asset) and pairwise
square-root correlations rho_mn:

    q_mn = sqrt((1 - nu_m)(1 - nu_n)) + rho_mn sqrt(nu_m nu_n)
    Q_mn = sqrt(f_m f_n) q_mn

Diagonal entries reduce to the asset prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from .engine import DEFAULT_TOLERANCES, MomentMatrix, Tolerances
from .errors import DimensionMismatch, MomentInconsistency, ParameterOutOfRange

__all__ = [
    "AssetMoments",
    "CorrelationMatrix",
    "cross_term",
    "assemble_q",
    "root_variance_from_moments",
]


@dataclass(frozen=True)
class AssetMoments:
    """Price and root-variance of a single positive asset.

    ``root_variance`` is (E[a] - E[sqrt(a)]^2) / E[a], dimensionless in [0, 1].
    """

    price: float
    root_variance: float

    def __post_init__(self):
        if not self.price > 0.0:
            raise ParameterOutOfRange(f"asset price must be positive, got {self.price}")
        if not 0.0 <= self.root_variance <= 1.0:
            raise ParameterOutOfRange(
                f"root-variance must lie in [0, 1], got {self.root_variance}"
            )

    @property
    def sqrt_moment(self) -> float:
        """E[sqrt(a)] = sqrt(f (1 - nu))."""
        return math.sqrt(self.price * (1.0 - self.root_variance))


@dataclass(frozen=True)
class CorrelationMatrix:
    """Square-root correlation matrix: symmetric, unit diagonal, entries in [-1, 1].

    Joint consistency is checked once, on the assembled moment matrix, where
    ``engine.factor_psd`` raises NotPositiveSemiDefinite.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"correlation matrix must be square, got {arr.shape}")
        if not np.array_equal(arr, arr.T):
            raise ParameterOutOfRange("correlation matrix must be exactly symmetric")
        if not np.array_equal(np.diag(arr), np.ones(arr.shape[0])):
            raise ParameterOutOfRange("correlation matrix must have a unit diagonal")
        if np.any(np.abs(arr) > 1.0):
            raise ParameterOutOfRange("correlations must lie in [-1, 1]")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_pairs(
        cls,
        dim: int,
        pairs: Mapping[Tuple[int, int], float],
        *,
        required: Sequence[Tuple[int, int]] = (),
    ) -> "CorrelationMatrix":
        """Build from sparsely supplied pairs.

        Pairs listed in ``required`` must be present (no default correlation
        is ever substituted); all other unspecified pairs are set to zero,
        which is only legitimate when their root-variance product vanishes.
        """
        arr = np.eye(dim)
        seen = set()
        for (m, n), rho in pairs.items():
            if not (0 <= m < dim and 0 <= n < dim) or m == n:
                raise ParameterOutOfRange(f"invalid correlation pair ({m}, {n})")
            arr[m, n] = rho
            arr[n, m] = rho
            seen.add((min(m, n), max(m, n)))
        for m, n in required:
            if (min(m, n), max(m, n)) not in seen:
                raise ParameterOutOfRange(
                    f"correlation for asset pair ({m}, {n}) was not supplied; "
                    "no default is assumed"
                )
        return cls(arr)


def cross_term(m1: AssetMoments, m2: AssetMoments, rho: float) -> float:
    """Normalised cross moment q = sqrt((1-nu1)(1-nu2)) + rho sqrt(nu1 nu2).

    By Cauchy-Schwarz the result lies in [-1, 1] for any valid inputs.
    """
    if not -1.0 <= rho <= 1.0:
        raise ParameterOutOfRange(f"correlation must lie in [-1, 1], got {rho}")
    n1, n2 = m1.root_variance, m2.root_variance
    return math.sqrt((1.0 - n1) * (1.0 - n2)) + rho * math.sqrt(n1 * n2)


def assemble_q(
    moments: Sequence[AssetMoments],
    correlations: CorrelationMatrix | Mapping[Tuple[int, int], float],
) -> MomentMatrix:
    """Assemble the moment matrix Q_mn = sqrt(f_m f_n) q_mn.

    ``correlations`` is either a full CorrelationMatrix or a sparse mapping
    of index pairs to correlations.  With sparse input, every pair whose
    root-variance product is nonzero must be supplied explicitly.
    """
    n = len(moments)
    if n < 1:
        raise DimensionMismatch("need at least one asset")
    if isinstance(correlations, CorrelationMatrix):
        corr = correlations
    else:
        required = [
            (m, k)
            for m in range(n)
            for k in range(m + 1, n)
            if moments[m].root_variance > 0.0 and moments[k].root_variance > 0.0
        ]
        corr = CorrelationMatrix.from_pairs(n, correlations, required=required)
    if corr.dim != n:
        raise DimensionMismatch(
            f"correlation matrix is {corr.dim}x{corr.dim} but there are {n} assets"
        )
    entries = np.empty((n, n))
    for m in range(n):
        entries[m, m] = moments[m].price
        for k in range(m + 1, n):
            value = math.sqrt(moments[m].price * moments[k].price) * cross_term(
                moments[m], moments[k], float(corr.entries[m, k])
            )
            entries[m, k] = value
            entries[k, m] = value
    return MomentMatrix(entries)


def root_variance_from_moments(e_a, e_sqrt_a, tol: Tolerances = DEFAULT_TOLERANCES):
    """Root-variance nu = (E[a] - E[sqrt(a)]^2) / E[a] from raw moments.

    Raises MomentInconsistency when the moments violate Cauchy-Schwarz
    (E[sqrt(a)]^2 > E[a]) beyond tolerance; small violations are clamped.
    Arrays of moments give an array of root-variances, and the first failing
    element raises, as an element-by-element loop would.
    """
    a, s = np.broadcast_arrays(np.asarray(e_a, dtype=float), np.asarray(e_sqrt_a, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (s * s) / a
    checks = (
        (~(a > 0.0), lambda i: ParameterOutOfRange(f"E[a] must be positive, got {a[i]}")),
        (s < 0.0, lambda i: ParameterOutOfRange(f"E[sqrt(a)] must be non-negative, got {s[i]}")),
        (ratio > 1.0 + tol.psd, lambda i: MomentInconsistency(
            f"E[sqrt(a)]^2 = {s[i]**2} exceeds E[a] = {a[i]}; moments are inconsistent")),
    )
    bad = np.flatnonzero(np.any([mask.ravel() for mask, _ in checks], axis=0))
    if bad.size:
        i = np.unravel_index(bad[0], a.shape)
        raise next(error(i) for mask, error in checks if mask[i])
    # Clamped to [0, 1]; a NaN E[sqrt(a)] passes the checks and gives 0.
    nu = np.where(1.0 - ratio > 0.0, np.minimum(1.0 - ratio, 1.0), 0.0)
    return float(nu) if nu.ndim == 0 else nu
