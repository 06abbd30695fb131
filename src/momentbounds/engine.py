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
quantities, so a caller factors Q once with ``factor_psd`` and hands the
factor to ``positive_eigenvalue_bounds``, which solves the eigenproblems of
all quantity vectors in stacks and returns the sweep as arrays
(``BoundSweep``).  A single portfolio is a one-row sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NotPositiveSemiDefinite,
    ParameterOutOfRange,
)

__all__ = [
    "PSD_TOL",
    "EIG_TOL",
    "MomentMatrix",
    "PsdFactor",
    "BoundSweep",
    "factor_psd",
    "positive_eigenvalue_bounds",
]

# Largest stack of S L products formed at once, in bytes.  It bounds the
# memory of a sweep; a single product above it is solved on its own.
STACK_BYTES = 1 << 20


# Roundoff allowance for negative eigenvalues of Q scaled to unit diagonal:
# those in [-PSD_TOL, 0) are clipped to zero, anything below is an error.
PSD_TOL = 1e-10
# Relative threshold below which an eigenvalue of P is not counted as
# positive (``BoundSweep.positive_counts``), or a singular caplet basket's
# moving eigenvalue counts as zero in ``markets.caplet_point_mass``.  It only
# counts: the bound sums every positive eigenvalue, so it never drops
# positive mass.
EIG_TOL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _reject_first_bad(*checks) -> None:
    """The package's one rule for bad grid elements: a grid raises, for the
    first bad element in grid order, the error a loop over the elements
    would raise.

    ``checks`` are ``(ok, error, *values)`` in the order the loop tests
    them: ``ok`` is True where an element passes, and ``error`` builds the
    exception from the failing element's entries of ``values``; masks and
    values broadcast together.  The first element that fails any check
    raises the error of the first check it fails, the only error built.
    """
    valid = reduce(np.logical_and, [check[0] for check in checks])
    if not valid.all():
        i = int(np.argmin(valid))
        _, error, *values = next(c for c in checks if not np.broadcast_to(c[0], valid.shape).flat[i])
        raise error(*(np.broadcast_to(v, valid.shape).flat[i] for v in values))


def _rule(rule: str):
    """The ``error`` of a check whose failing value v raises
    ParameterOutOfRange "<rule>, got <v>"."""
    return lambda value: ParameterOutOfRange(f"{rule}, got {value}")


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
    if positive:
        _reject_first_bad((arr > 0.0, _rule(f"{name} must be positive"), arr))
    if increasing:
        _reject_first_bad((arr[1:] > arr[:-1], lambda lo, hi: ParameterOutOfRange(
            f"{name} must be strictly increasing, got {hi} after {lo}"), arr[:-1], arr[1:]))
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
        eigenvalues: (k, rank) eigenvalues of each row's P, descending, with
            ``rank`` that of the factor.
        positive_counts: (k,) eigenvalues above ``EIG_TOL`` times each
            row's largest |eigenvalue|.
    """

    bounds: np.ndarray
    eigenvalues: np.ndarray
    positive_counts: np.ndarray

    def __post_init__(self):
        for name in ("bounds", "eigenvalues", "positive_counts"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), None))


def factor_psd(q: MomentMatrix) -> PsdFactor:
    """Eigen square root of Q scaled to unit diagonal.

    With D = diag(sqrt(diag Q)) and D^-1 Q D^-1 = V diag(w) V^T, the factor
    is S = diag(sqrt(w)) V^T D.  The scaling resolves each eigenvalue against
    the diagonal entries it comes from rather than the largest one, so the
    small eigenvalue of two nearly collinear assets far below the largest
    price keeps its digits.  Eigenvalues in [-PSD_TOL, 0) are roundoff in the
    moments: they are clipped to zero and their mass is reported.  The rank
    cutoff sits at roundoff level, ``dim * eps * w_max`` (Higham 1990), so
    every direction Q resolves in double precision is kept and the bound is
    never under-reported.

    Raises:
        NotPositiveSemiDefinite: min eigenvalue below -PSD_TOL.
        ConvergenceFailure: the symmetric eigensolver failed.
    """
    if not isinstance(q, MomentMatrix):
        q = MomentMatrix(q)
    d = np.sqrt(np.diag(q.entries))
    try:
        w, v = np.linalg.eigh(q.entries / np.outer(d, d))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"symmetric eigensolver failed: {exc}") from exc
    if w[0] < -PSD_TOL:
        raise NotPositiveSemiDefinite(
            f"min eigenvalue {w[0]:.3e} of the unit-diagonal moment matrix is below "
            f"{-PSD_TOL:.3e}; input moments are inconsistent"
        )
    clipped = float(-np.sum(w[w < 0.0]))
    # The unit diagonal makes w_max >= 1, so at least one row is kept.
    keep = w > q.dim * np.finfo(float).eps * w[-1]
    s = (np.sqrt(w[keep])[:, None] * v[:, keep].T) * d[None, :]
    return PsdFactor(s, s.shape[0], "eigen", clipped)


def positive_eigenvalue_bounds(factor: PsdFactor, quantities) -> BoundSweep:
    """Supremum price of the portfolio option for each row of a (k, n)
    array of signed quantities, from a factor Q = S^T S of the moment matrix
    (``factor_psd``).

    Computes P = S L S^T and sums every positive eigenvalue of P; ``EIG_TOL``
    (relative to the spectral radius of P) only sets which of them
    ``positive_counts`` counts.  The P matrices are formed, symmetrised and
    solved in stacks of at most ``STACK_BYTES``.  Each row is solved in units
    of the power of two of its largest quantity, which is exact and keeps P
    finite for quantities near the float maximum; the bound is homogeneous of
    degree one in them.  Quantities must be finite, and each row gets its own
    count threshold, so row ``i`` of the sweep is identical to what a one-row
    sweep of that row returns.

    Raises:
        ConvergenceFailure: the symmetric eigensolver failed, which signals
            pathological scaling of the inputs.
    """
    dim = factor.matrix.shape[1]
    try:
        weights = np.array(quantities, dtype=float)
    except ValueError as exc:
        raise DimensionMismatch(f"quantities must form a (k, n) array: {exc}") from exc
    if weights.ndim != 2 or weights.shape[1] == 0:
        raise DimensionMismatch(
            f"quantities must form a (k, n) array of non-empty rows, got shape {weights.shape}"
        )
    _reject_first_bad((np.isfinite(weights), lambda row, column, value: ParameterOutOfRange(
        f"quantities must be finite, got {value} in row {row}, column {column}"), *np.indices(weights.shape), weights))
    if weights.shape[1] != dim:
        raise DimensionMismatch(
            f"quantity vector has length {weights.shape[1]}, moment matrix is {dim}x{dim}"
        )
    s = factor.matrix
    e = np.frexp(np.max(np.abs(weights), axis=1))[1]
    weights = np.ldexp(weights, -e[:, None])
    per_stack = max(1, STACK_BYTES // s.nbytes)
    eigs = np.empty((len(weights), factor.rank))
    for start in range(0, len(weights), per_stack):
        p = (s[None] * weights[start : start + per_stack, None, :]) @ s.T
        try:
            stack = np.linalg.eigvalsh(0.5 * (p + p.swapaxes(1, 2)))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"symmetric eigensolver failed: {exc}") from exc
        eigs[start : start + per_stack] = stack[:, ::-1]
    # Each row's positive eigenvalues are a prefix of its descending ones;
    # rows with equal counts sum their prefixes together, as single rows would.
    positive = np.sum(eigs > 0.0, axis=1)
    bounds = np.zeros(len(weights))
    for m in np.unique(positive[positive > 0]):
        rows = positive == m
        bounds[rows] = np.sum(eigs[rows, :m], axis=1)
    # The spectral radius of a descending row is the larger of its ends.
    radius = np.maximum(eigs[:, 0], -eigs[:, -1])
    counts = np.sum(eigs > EIG_TOL * radius[:, None], axis=1)
    bounds, eigs = np.ldexp(bounds, e), np.ldexp(eigs, e[:, None])
    return BoundSweep(bounds, eigs, counts)
