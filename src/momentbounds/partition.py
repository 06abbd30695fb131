"""Refining the vanilla bound with partitions of the asset.

A partition of unity u_n splits the spread a - k into the portfolio
sum_n a u_n[a] - k sum_n u_n[a] of 2N positive assets, whose moment matrix
bounds the option through the eigenvalue problem of the engine.  Two families
are supported, and ``refined_bounds`` solves each by its structure:

* Flat: digital indicators of a decomposition of (0, inf) into cells.  The
  moment matrix has diagonal quadrants built from per-cell digital prices,
  conditional prices and conditional root-variances.  Disjoint cells make it
  a direct sum of 2x2 blocks, so the bound is a sum of per-cell vanilla
  bounds in closed form.
* Linear: hat functions anchored at a strike grid.  Only consecutive
  functions overlap, so the four quadrants are tridiagonal, with the
  off-diagonal moments computed by quadrature under a reference model.
  Interleaving the components makes the matrix banded, and the bound is
  solved as a banded eigenproblem per strike.

``partition_moment_matrix`` assembles the full matrix for the dense engine,
which is the fallback for a singular hat-partition matrix and the reference
the tests hold both structured paths to.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import (
    DEFAULT_TOLERANCES,
    MomentMatrix,
    Tolerances,
    _checked_grid,
    _frozen_array,
    positive_eigenvalue_bounds,
)
from .errors import ConvergenceFailure, DegenerateCell, ParameterOutOfRange, QuadratureBudgetExceeded
from .models import LognormalModel, lognormal_partial_moments, _gl_rule
from .moments import root_variance_from_moments
from .vanilla import vanilla_bounds

__all__ = [
    "ConditionalMoments",
    "flat_conditional_moments",
    "linear_conditional_moments",
    "partition_moment_matrix",
    "refined_bounds",
    "LinearPartition",
]

# Cells with less probability mass than this add pure numerical noise.
CELL_FLOOR = 1e-12

# Default nodes per quadrature panel and overall evaluation budget.
PANEL_NODES = 64
NODE_BUDGET = 1_000_000

# Log-space cutoff for the density: 13 standard deviations covers any mass
# above 1e-30, far below every tolerance used here.
_TAIL_SIGMAS = 13.0


@dataclass(frozen=True)
class ConditionalMoments:
    """Per-cell moments of a partitioned asset.

    digital[n] is the price of the partition asset u_n, price[n] the
    conditional asset price and root_variance[n] the conditional
    root-variance.  For overlapping (linear) partitions the three cross
    sequences hold the tridiagonal off-diagonal moments
    E[a sqrt(u_n u_{n+1})], E[sqrt(a u_n u_{n+1})] and E[sqrt(u_n u_{n+1})];
    they are None for disjoint (flat) partitions.
    """

    digital: np.ndarray
    price: np.ndarray
    root_variance: np.ndarray
    cross_price: np.ndarray | None = None
    cross_sqrt: np.ndarray | None = None
    cross_digital: np.ndarray | None = None

    def __post_init__(self):
        for name in ("digital", "price", "root_variance"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        n = self.digital.size
        if not (self.price.size == n and self.root_variance.size == n and n >= 1):
            raise ParameterOutOfRange("per-cell sequences must share one length >= 1")
        crosses = [self.cross_price, self.cross_sqrt, self.cross_digital]
        if any(c is not None for c in crosses):
            if any(c is None for c in crosses):
                raise ParameterOutOfRange("supply all three cross sequences or none")
            for name in ("cross_price", "cross_sqrt", "cross_digital"):
                arr = _frozen_array(getattr(self, name))
                if arr.size != n - 1:
                    raise ParameterOutOfRange("cross sequences must have length cells - 1")
                object.__setattr__(self, name, arr)
        sequences = (self.digital, self.price, self.root_variance, self.cross_price,
                     self.cross_sqrt, self.cross_digital)
        if not all(np.all(np.isfinite(s)) for s in sequences if s is not None):
            raise ParameterOutOfRange("partition moments must be finite")
        if np.any(self.digital <= 0.0) or np.any(self.price <= 0.0):
            raise ParameterOutOfRange("digital prices and conditional prices must be positive")
        if np.any(self.root_variance < 0.0) or np.any(self.root_variance > 1.0):
            raise ParameterOutOfRange("conditional root-variances must lie in [0, 1]")

    @property
    def cells(self) -> int:
        return self.digital.size

    @property
    def sqrt_scaled(self) -> np.ndarray:
        """Per-cell E[sqrt(a) u_n] = sqrt(f_n (1 - nu_n)) d_n."""
        return np.sqrt(self.price * (1.0 - self.root_variance)) * self.digital

    def normalisation_sums(self):
        """The three partition sums (sum d_n, sum f_n d_n, sum sqrt(f_n(1-nu_n)) d_n).

        For an exact decomposition these reproduce (1, f, sqrt(f (1 - nu)))
        of the unpartitioned asset.
        """
        return (
            float(np.sum(self.digital)),
            float(np.sum(self.price * self.digital)),
            float(np.sum(self.sqrt_scaled)),
        )


def _density(model: LognormalModel, a: np.ndarray) -> np.ndarray:
    stdev = model.sigma * math.sqrt(model.expiry)
    z = (np.log(a / model.forward) + 0.5 * model.total_variance) / stdev
    return np.exp(-0.5 * z * z) / (a * stdev * math.sqrt(2.0 * math.pi))


def _quadrature_partial_moment(
    model: LognormalModel,
    p: float,
    lower: float,
    upper: float,
    n_nodes: int = PANEL_NODES,
) -> float:
    """E[a^p 1{lower < a <= upper}] by Gauss-Legendre quadrature.

    Head cells starting at zero integrate in log coordinates; tail cells
    ending at infinity use the substitution a = upper_strike / t.  Serves as
    the independent cross-check for the closed-form partial moments and as
    the shared panel integrator for partition moments.
    """
    if model.sigma == 0.0:
        raise ParameterOutOfRange("quadrature path requires sigma > 0")
    if lower < 0.0 or not upper > lower:
        raise ParameterOutOfRange(f"need 0 <= lower < upper, got ({lower}, {upper})")
    nodes, weights = _gl_rule(n_nodes)
    if math.isinf(upper):
        # a = lower / t maps (lower, inf) to t in (0, 1).
        if lower <= 0.0:
            raise ParameterOutOfRange("full-line integrals should be split at a strike")
        t = 0.5 * (nodes + 1.0)
        a = lower / t
        values = a**p * _density(model, a) * (lower / (t * t))
        return 0.5 * float(np.dot(weights, values))
    if lower == 0.0:
        # Log coordinates, cut _TAIL_SIGMAS standard deviations below the median.
        stdev = model.sigma * math.sqrt(model.expiry)
        y_lo = math.log(model.forward) - 0.5 * model.total_variance - _TAIL_SIGMAS * stdev
        y_hi = math.log(upper)
        if y_hi <= y_lo:
            return 0.0
        mid, half = 0.5 * (y_hi + y_lo), 0.5 * (y_hi - y_lo)
        a = np.exp(mid + half * nodes)
        return half * float(np.dot(weights, a**p * _density(model, a) * a))
    mid, half = 0.5 * (upper + lower), 0.5 * (upper - lower)
    a = mid + half * nodes
    return half * float(np.dot(weights, a**p * _density(model, a)))


def _moments_from_raw(
    digital: np.ndarray, first: np.ndarray, half: np.ndarray, tol: Tolerances
):
    """Convert raw partial moments (p = 0, 1, 1/2) to conditional quantities."""
    price = first / digital
    return price, root_variance_from_moments(price, half / digital, tol)


def flat_conditional_moments(
    model: LognormalModel,
    boundaries: Sequence[float],
    *,
    cell_floor: float = CELL_FLOOR,
    strict: bool = False,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ConditionalMoments:
    """Conditional moments for the digital partition with the given interior boundaries.

    Cells are (0, b_1], (b_1, b_2], ..., (b_{N-1}, inf).  Cells with digital
    price below ``cell_floor`` signal boundaries far in the tail: with
    ``strict`` they raise DegenerateCell, otherwise they are dropped with a
    warning (their contribution to any moment is below every tolerance in
    use).
    """
    if model.sigma == 0.0:
        raise ParameterOutOfRange("flat conditional moments require sigma > 0")
    grid = _checked_grid(boundaries, "partition boundaries", min_size=0)
    edges = np.concatenate([[0.0], grid, [math.inf]])
    digital, first, half = lognormal_partial_moments(model, [0.0, 1.0, 0.5], edges)
    keep = ~(digital < cell_floor)
    dropped = np.flatnonzero(~keep)
    if dropped.size and strict:
        lo, hi, d = edges[dropped[0]], edges[dropped[0] + 1], digital[dropped[0]]
        raise DegenerateCell(f"cell ({lo}, {hi}) has digital price {d:.3e} below {cell_floor}")
    if dropped.size:
        warnings.warn(
            f"dropped {dropped.size} partition cell(s) with mass below {cell_floor}: "
            + ", ".join(f"({edges[i]:g}, {edges[i + 1]:g})" for i in dropped),
            stacklevel=2,
        )
    if not keep.any():
        raise DegenerateCell("all partition cells are numerically empty")
    price, nu = _moments_from_raw(digital[keep], first[keep], half[keep], tol)
    return ConditionalMoments(digital[keep], price, nu)


class LinearPartition:
    """Hat-function partition of unity anchored at strikes k_1 < ... < k_N.

    Each function is 1 at its own strike, falls linearly to 0 at the
    neighbouring strikes, and the end functions extend flat to 0 and
    infinity.  Only consecutive functions have overlapping support.
    """

    def __init__(self, strikes):
        self.strikes = _frozen_array(_checked_grid(strikes, "partition strikes", min_size=2))

    @property
    def count(self) -> int:
        return self.strikes.size

    def weight(self, n: int, a) -> np.ndarray:
        """Value of the n-th partition function (0-based) at asset level(s) a."""
        if not 0 <= n < self.count:
            raise ParameterOutOfRange(f"partition index {n} out of range")
        a = np.asarray(a, dtype=float)
        k = self.strikes
        value = np.ones_like(a)
        if n > 0:
            left = k[n] - k[n - 1]
            value = value - (np.clip(k[n] - a, 0.0, None) - np.clip(k[n - 1] - a, 0.0, None)) / left
        if n < self.count - 1:
            right = k[n + 1] - k[n]
            value = value - (np.clip(a - k[n], 0.0, None) - np.clip(a - k[n + 1], 0.0, None)) / right
        return np.clip(value, 0.0, 1.0)

    def sqrt_cross(self, n: int, a) -> np.ndarray:
        """sqrt(u_n u_{n+1}) at asset level(s) a, supported on (k_n, k_{n+1})."""
        if not 0 <= n < self.count - 1:
            raise ParameterOutOfRange(f"cross index {n} out of range")
        a = np.asarray(a, dtype=float)
        lo, hi = self.strikes[n], self.strikes[n + 1]
        inside = (a > lo) & (a < hi)
        out = np.zeros_like(a)
        out[inside] = np.sqrt((a[inside] - lo) * (hi - a[inside])) / (hi - lo)
        return out


def _panel_sums(values, weights) -> np.ndarray:
    """Quadrature sums weights . v over the last axis of ``values``.

    Each row is one (1, nodes) @ (nodes, 1) product, which numpy sums with the
    same BLAS dot as ``np.dot(weights, v)``; a matrix-vector product would sum
    in another order and move the moments by an ulp.
    """
    return (np.asarray(values)[..., None, :] @ weights[:, None])[..., 0, 0]


def linear_conditional_moments(
    model: LognormalModel,
    strikes,
    *,
    n_nodes: int = PANEL_NODES,
    node_budget: int = NODE_BUDGET,
    cell_floor: float = CELL_FLOOR,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ConditionalMoments:
    """Conditional and cross moments of the hat partition under the model.

    All six tridiagonal moment families are integrated against the model
    density: one Gauss-Legendre panel per strike interval, laid out as one
    node grid over all intervals, the head cell in log coordinates and the
    tail cell via the a = k_N / t substitution.  On each interval the
    descending ramp of u_i and the ascending ramp of u_{i+1} give the diagonal
    moments, and sqrt(u_i u_{i+1}) the cross moments.
    """
    if model.sigma == 0.0:
        raise ParameterOutOfRange("linear conditional moments require sigma > 0")
    part = LinearPartition(strikes)
    n = part.count
    planned = (n + 1 + (n - 1)) * n_nodes * 3
    if planned > node_budget:
        raise QuadratureBudgetExceeded(
            f"{planned} integrand evaluations exceed the budget {node_budget}"
        )
    k = part.strikes
    orders = (0.0, 0.5, 1.0)
    # Head and tail cells, where the end functions sit flat at one.
    raw = np.zeros((len(orders), n))
    raw[:, 0] = [_quadrature_partial_moment(model, p, 0.0, k[0], n_nodes) for p in orders]
    raw[:, -1] += [_quadrature_partial_moment(model, p, k[-1], math.inf, n_nodes) for p in orders]
    nodes, weights = _gl_rule(n_nodes)
    lo, hi = k[:-1, None], k[1:, None]
    width = hi - lo
    # Ramps: a^p times the ascending ramp of u_{i+1} and the descending ramp
    # of u_i, on every interval at once.
    a = 0.5 * (hi + lo) + 0.5 * width * nodes
    dens = _density(model, a) * (0.5 * width)
    asc = (a - lo) / width
    ramps = _panel_sums([[a**p * asc * dens, a**p * (1.0 - asc) * dens] for p in orders], weights)
    raw[:, 1:] += ramps[:, 0]
    raw[:, :-1] += ramps[:, 1]
    digital, half, first = raw
    # Crosses: the substitution a = lo + (hi - lo) sin^2(phi) removes the
    # square-root kinks of sqrt(u_i u_{i+1}) at both ends of the interval.
    phi = 0.25 * math.pi * (nodes + 1.0)
    s2 = np.sin(2.0 * phi)
    a = lo + width * np.sin(phi) ** 2
    base = 0.25 * math.pi * 0.5 * width * s2 * s2 * _density(model, a)
    crosses = _panel_sums([a**p * base for p in orders], weights)
    cross_digital, cross_sqrt, cross_price = crosses
    if np.any(digital < cell_floor):
        raise DegenerateCell(
            "a hat function carries numerically zero mass; move its strike toward the forward"
        )
    price, nu = _moments_from_raw(digital, first, half, tol)
    return ConditionalMoments(digital, price, nu, cross_price, cross_sqrt, cross_digital)


def partition_moment_matrix(moments: ConditionalMoments) -> MomentMatrix:
    """Assemble the 2N x 2N moment matrix of the partition assets.

    Components 0..N-1 are the asset-weighted partition assets a u_n and
    components N..2N-1 the bare partition assets u_n.  Disjoint partitions
    give diagonal quadrants; overlapping ones add the tridiagonal cross
    moments.
    """
    n = moments.cells
    q = np.zeros((2 * n, 2 * n))
    upper = moments.price * moments.digital
    mixed = moments.sqrt_scaled
    idx = np.arange(n)
    q[idx, idx] = upper
    q[idx, idx + n] = mixed
    q[idx + n, idx] = mixed
    q[idx + n, idx + n] = moments.digital
    if moments.cross_price is not None:
        i = np.arange(n - 1)
        for block_row, block_col, values in (
            (0, 0, moments.cross_price),
            (0, n, moments.cross_sqrt),
            (n, 0, moments.cross_sqrt),
            (n, n, moments.cross_digital),
        ):
            q[block_row + i, block_col + i + 1] = values
            q[block_col + i + 1, block_row + i] = values
    return MomentMatrix(q)


def _dense_bounds(moments: ConditionalMoments, ks: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Refined bounds through the dense engine, factoring Q once per grid."""
    n = moments.cells
    quantities = np.ones((ks.size, 2 * n))
    quantities[:, n:] = -ks[:, None]
    sweep = positive_eigenvalue_bounds(partition_moment_matrix(moments), quantities, tol)
    return sweep.bounds.copy()  # writable, like the other paths' results


def _banded_bounds(moments: ConditionalMoments, ks: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Refined bounds of a hat partition from banded factorizations.

    With the components interleaved as (a u_0, u_0, a u_1, u_1, ...), Q has
    three bands above the diagonal.  Scaled to unit diagonal, as in
    ``engine.factor_psd``, it factors as R^T R with R upper triangular and
    banded alike, so S = R D and P = R (D L D) R^T keep the three bands and
    each strike costs one banded eigensolve.  A Q that is not numerically
    positive definite goes to the dense engine, which checks it for
    positive semi-definiteness and cuts its rank.
    """
    # Imported here: scipy.linalg is slow to import and only hat partitions
    # need it.
    from scipy.linalg import cholesky_banded
    from scipy.linalg.lapack import dsbevd

    dim = 2 * moments.cells
    diag = np.empty(dim)
    diag[0::2] = moments.price * moments.digital
    diag[1::2] = moments.digital
    # Upper band storage: band[3 - s, j] = Q[j - s, j].
    band = np.zeros((4, dim))
    band[3] = 1.0
    band[2, 1::2] = moments.sqrt_scaled
    band[2, 2::2] = moments.cross_sqrt
    band[1, 2::2] = moments.cross_price
    band[1, 3::2] = moments.cross_digital
    band[0, 3::2] = moments.cross_sqrt
    scale = 1.0 / np.sqrt(diag)
    for s in (1, 2, 3):
        band[3 - s, s:] *= scale[:-s] * scale[s:]
    try:
        r = cholesky_banded(band, lower=False, check_finite=False)
    except np.linalg.LinAlgError:
        return _dense_bounds(moments, ks, tol)
    # Diagonal of D L D per strike: quantities 1 on a u_n and -k on u_n.
    weights = np.tile(diag, (ks.size, 1))
    weights[:, 1::2] *= -ks[:, None]
    # P[j - o, j] = sum_t R[j - o, j + t] weights[j + t] R[j, j + t], 0 <= t <= 3 - o.
    p = np.zeros((ks.size, 4, dim))
    for o in range(4):
        for t in range(4 - o):
            factors = r[3 - o - t, o + t :] * r[3 - t, o + t :]
            p[:, 3 - o, o : dim - t] += factors * weights[:, o + t :]
    bounds = np.empty(ks.size)
    for i, band_p in enumerate(p):
        # LAPACK's dsbevd, which eigvals_banded calls after checking its input.
        eigs, _, info = dsbevd(band_p, compute_v=0, lower=0)
        if info > 0:
            raise ConvergenceFailure(f"banded eigensolve did not converge at strike {ks[i]}")
        positive = eigs[eigs > tol.eig * float(np.max(np.abs(eigs)))]
        bounds[i] = float(np.sum(positive))
    return bounds


def refined_bounds(
    moments: ConditionalMoments, strikes, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Partition-refined upper bounds for E[(a - k)^+] over a strike grid.

    The method follows the structure of the moments.  Disjoint (flat) cells
    split Q into one 2x2 vanilla block per cell, so the bound is exactly
    sum_n d_n vanilla_bounds(f_n, nu_n, k), with no rank cutoff to lower it.
    Overlapping (hat) partitions have a banded Q and are solved as banded
    eigenproblems, one per strike after one factorization of Q.
    """
    ks = _checked_grid(strikes, min_size=0, increasing=False)
    if moments.cross_price is None:
        cells = vanilla_bounds(moments.price, moments.root_variance, ks[:, None])
        return np.sum(cells * moments.digital, axis=1)
    return _banded_bounds(moments, ks, tol)
