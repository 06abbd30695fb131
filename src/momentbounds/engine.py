"""Eigenvalue engine for moment-constrained option price bounds.

Given a positive semi-definite matrix of pairwise moments Q and a diagonal of
signed portfolio quantities, the supremum price over exercise strategies is
the sum of the positive eigenvalues of P = S L S^T, where Q = S^T S is any
factorization of Q and L is the diagonal quantity matrix.  The result does
not depend on the factorization chosen: the nonzero spectrum of S L S^T
coincides with that of L Q up to similarity.

Q is factored by the eigen square root of Q scaled to unit diagonal, keeping
every eigenvalue above roundoff level (``factor_psd``).

Everything here is pure and reentrant; inputs are copied and frozen, so
values can be shared freely.  Strike sweeps hold Q fixed and vary only the
quantities, so ``positive_eigenvalue_bounds`` factors Q once per sweep, solves
the eigenproblems of all quantity vectors in stacks and returns the sweep as
arrays (``BoundSweep``).  A single portfolio is a one-row sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotPositiveSemiDefinite,
    ParameterOutOfRange,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "MomentMatrix",
    "PsdFactor",
    "BoundSweep",
    "symmetric_eigenvalues",
    "factor_psd",
    "positive_eigenvalue_bounds",
]

# Largest stack of S L products formed at once, in bytes.  It bounds the
# memory of a sweep; a single product above it is solved on its own.
STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances for the bound engine.

    Attributes:
        psd: allowance for negative eigenvalues of Q scaled to unit
            diagonal.  Eigenvalues in [-psd, 0) are clipped to zero;
            anything below raises NotPositiveSemiDefinite.
        eig: relative threshold below which an eigenvalue of P counts as
            zero and is excluded from the positive sum.

    Values that would under-report the bound (a negative ``psd``, an ``eig``
    outside [0, 1)) raise ParameterOutOfRange.
    """

    psd: float = 1e-10
    eig: float = 1e-12

    def __post_init__(self):
        if not (self.psd >= 0.0 and 0.0 <= self.eig < 1.0):
            raise ParameterOutOfRange(f"need psd >= 0 and 0 <= eig < 1, got {self}")


DEFAULT_TOLERANCES = Tolerances()


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _checked_grid(
    values,
    name: str = "strikes",
    *,
    positive: bool = True,
    min_size: int = 1,
    increasing: bool = True,
) -> np.ndarray:
    """``values`` as a float array, raising ParameterOutOfRange unless it is a
    1-d grid of at least ``min_size`` points, positive with ``positive`` and
    strictly increasing with ``increasing``.  The one grid rule every layer
    and the CLI share."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < min_size:
        raise ParameterOutOfRange(f"{name} must form a 1-d grid of at least {min_size} point(s)")
    if positive and not np.all(arr > 0.0):
        raise ParameterOutOfRange(f"{name} must be positive, got {arr[~(arr > 0.0)][0]}")
    if increasing and not np.all(np.diff(arr) > 0.0):
        raise ParameterOutOfRange(f"{name} must be strictly increasing")
    return arr


@dataclass(frozen=True)
class MomentMatrix:
    """Symmetric PSD matrix of pairwise moments E[sqrt(a_m a_n)].

    Diagonal entries are the asset prices and must be strictly positive.
    Exact symmetry is required: builders in this package always construct
    both triangles from the same expression.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch(f"moment matrix must be square, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise DimensionMismatch("moment matrix must be at least 1x1")
        if not np.all(np.isfinite(arr)):
            raise ParameterOutOfRange("moment matrix entries must be finite")
        if not np.array_equal(arr, arr.T):
            raise ParameterOutOfRange("moment matrix must be exactly symmetric")
        if not np.all(np.diag(arr) > 0.0):
            raise ParameterOutOfRange("moment matrix diagonal (asset prices) must be positive")
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PsdFactor:
    """Rectangular factor S (rank x dim) with Q = S^T S.

    ``method`` names the factorization, always "eigen" (the eigen square
    root).  ``clipped_negative_mass`` is the total negative eigenvalue mass
    of Q scaled to unit diagonal, zeroed during factorization.
    """

    matrix: np.ndarray
    rank: int
    method: str
    clipped_negative_mass: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix))


@dataclass(frozen=True)
class BoundSweep:
    """Outcome of the positive-eigenvalue bound for each row of a sweep, as
    arrays over the k rows.

    Attributes:
        bounds: (k,) bound of each row: the sum of the positive eigenvalues
            of its P (price units, >= 0).
        eigenvalues: (k, rank_q) eigenvalues of each row's P, descending.
        rank_q: numerical rank of Q, shared by the sweep.
        clipped_negative_mass: negative eigenvalue mass of Q, scaled to unit
            diagonal, clipped to zero; shared likewise.
        positive_counts: (k,) eigenvalues above each row's zero threshold.
    """

    bounds: np.ndarray
    eigenvalues: np.ndarray
    rank_q: int
    clipped_negative_mass: float
    positive_counts: np.ndarray

    def __post_init__(self):
        for name in ("bounds", "eigenvalues", "positive_counts"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), None))


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, in descending order.

    A stack of shape (k, n, n) gives a (k, n) array, one row per matrix, and
    each matrix is checked for symmetry on its own scale.  Raises
    ConvergenceFailure if the underlying QR iteration fails, which signals
    pathological scaling of the inputs.
    """
    arr = np.asarray(matrix, dtype=float)
    if arr.ndim not in (2, 3) or arr.shape[-1] != arr.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got shape {arr.shape}")
    transposed = arr.swapaxes(-1, -2)
    if arr.size:
        scale = np.max(np.abs(arr), axis=(-2, -1))
        asymmetry = np.max(np.abs(arr - transposed), axis=(-2, -1))
        if np.any((scale > 0.0) & (asymmetry > 16.0 * np.finfo(float).eps * scale)):
            raise ParameterOutOfRange("matrix is not symmetric within representation")
    sym = 0.5 * (arr + transposed)
    try:
        eigs = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"symmetric eigensolver failed: {exc}") from exc
    return eigs[..., ::-1].copy()


def factor_psd(q: MomentMatrix, tol: Tolerances = DEFAULT_TOLERANCES) -> PsdFactor:
    """Eigen square root of Q scaled to unit diagonal.

    With D = diag(sqrt(diag Q)) and D^-1 Q D^-1 = V diag(w) V^T, the factor
    is S = diag(sqrt(w)) V^T D.  The scaling resolves each eigenvalue against
    the diagonal entries it comes from rather than the largest one, so the
    small eigenvalue of two nearly collinear assets far below the largest
    price keeps its digits.  Eigenvalues in [-psd, 0) are roundoff in the
    moments: they are clipped to zero and their mass is reported.  The rank
    cutoff sits at roundoff level, ``dim * eps * w_max`` (Higham 1990), so
    every direction Q resolves in double precision is kept and the bound is
    never under-reported.

    Raises:
        NotPositiveSemiDefinite: min eigenvalue below -psd.
        ConvergenceFailure: the symmetric eigensolver failed.
    """
    if not isinstance(q, MomentMatrix):
        q = MomentMatrix(q)
    d = np.sqrt(np.diag(q.entries))
    try:
        w, v = np.linalg.eigh(q.entries / np.outer(d, d))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"symmetric eigensolver failed: {exc}") from exc
    if w[0] < -tol.psd:
        raise NotPositiveSemiDefinite(
            f"min eigenvalue {w[0]:.3e} of the unit-diagonal moment matrix is below "
            f"{-tol.psd:.3e}; input moments are inconsistent"
        )
    clipped = float(-np.sum(w[w < 0.0]))
    # The unit diagonal makes w_max >= 1, so at least one row is kept.
    keep = w > q.dim * np.finfo(float).eps * w[-1]
    s = (np.sqrt(w[keep])[:, None] * v[:, keep].T) * d[None, :]
    return PsdFactor(s, s.shape[0], "eigen", clipped)


def positive_eigenvalue_bounds(
    q: MomentMatrix,
    quantities,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> BoundSweep:
    """Supremum price of the portfolio option for each row of a (k, n)
    array of signed quantities, from the moment matrix Q.

    Computes P = S L S^T for a factor Q = S^T S and sums the positive
    eigenvalues of P; eigenvalues within ``tol.eig`` of zero (relative to
    the spectral radius of P) count as zero.  Q is validated and factored
    once; the P matrices are formed and solved in stacks of at most
    ``STACK_BYTES``.  Quantities must be finite, and each row gets its own
    zero threshold, so row ``i`` of the sweep is identical to what a one-row
    sweep of that row returns.
    """
    if not isinstance(q, MomentMatrix):
        q = MomentMatrix(q)
    try:
        weights = np.array(quantities, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch(f"quantities must form a (k, n) array: {exc}") from exc
    if weights.ndim != 2 or weights.shape[1] == 0:
        raise DimensionMismatch(
            f"quantities must form a (k, n) array of non-empty rows, got shape {weights.shape}"
        )
    if not np.all(np.isfinite(weights)):
        raise ParameterOutOfRange("quantities must be finite")
    if weights.shape[1] != q.dim:
        raise DimensionMismatch(
            f"quantity vector has length {weights.shape[1]}, moment matrix is {q.dim}x{q.dim}"
        )
    factor = factor_psd(q, tol)
    s = factor.matrix
    per_stack = max(1, STACK_BYTES // s.nbytes)
    eigs = np.empty((len(weights), factor.rank))
    for start in range(0, len(weights), per_stack):
        p = (s[None] * weights[start : start + per_stack, None, :]) @ s.T
        eigs[start : start + per_stack] = symmetric_eigenvalues(0.5 * (p + p.swapaxes(1, 2)))
    # Each row's positive eigenvalues are a prefix of its descending ones;
    # rows with equal counts sum their prefixes together, as single rows would.
    counts = np.sum(eigs > tol.eig * np.max(np.abs(eigs), axis=1)[:, None], axis=1)
    bounds = np.zeros(len(weights))
    for m in np.unique(counts[counts > 0]):
        rows = counts == m
        bounds[rows] = np.sum(eigs[rows, :m], axis=1)
    return BoundSweep(bounds, eigs, factor.rank, factor.clipped_negative_mass, counts)
