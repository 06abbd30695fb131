"""Market applications of the bound machinery.

* FX cross rates: an option on x1/x2 is a vanilla option whose root-variance
  composes from the two legs' root-variances and their square-root
  correlation, nu = 1 - (sqrt((1-nu1)(1-nu2)) + rho sqrt(nu1 nu2))^2, and
  its bound is ``vanilla_bounds`` at that root-variance.
* Forward-starting caplets: the n-period forward rate decomposes as
  r_n = (lam_n + 1) s_n - lam_n s_{n-1} over the swap rates, with
  lam_n fixed by discount factors and daycounts, so the caplet is a
  three-asset basket (s_n, s_{n-1}, cash).  ``caplet_basket`` builds its
  strike-free moment matrix Q, factor and minors once for every sweep, point
  mass and vol inversion; a sweep solves the cubic det(mu I - W Q) = 0.
  Negative rates are handled by shifting rates and strike by a proportion
  of the economic floor, which leaves the payoff unchanged.  Where an
  eigenvalue of P crosses zero the implied CDF jumps by (u . s_c)^2 (u its
  eigenvector, s_c the cash column of S); with Q of full rank, Sylvester's law
  leaves one jump, at the shifted floor, of nu_n nu_{n-1} (1-rho^2) / ((1-q)(1+q)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    EIG_TOL,
    BoundSweep,
    MomentMatrix,
    PsdFactor,
    _checked_grid,
    _frozen_array,
    factor_psd,
)
from .errors import NegativeShiftedRate, ParameterOutOfRange
from .moments import AssetMoments, assemble_q, cross_term

__all__ = [
    "SwapCurveSlice",
    "AnnuityWeights",
    "CapletBasket",
    "CapletScan",
    "cross_root_variance",
    "annuity_weights",
    "caplet_basket",
    "caplet_bounds",
    "caplet_cdf_scan",
    "caplet_point_mass",
]


def cross_root_variance(nu1: float, nu2: float, rho: float) -> float:
    """Root-variance of a cross rate from its two legs, 1 - q^2.

    Monotone decreasing in rho: higher co-movement of the legs leaves less
    variance in their ratio.  Exact limits: matched legs with rho = 1 give
    zero; a deterministic leg passes the other leg's root-variance through.
    """
    q = cross_term(AssetMoments(1.0, nu1), AssetMoments(1.0, nu2), rho)
    return min(1.0, max(0.0, 1.0 - q * q))


@dataclass(frozen=True)
class SwapCurveSlice:
    """Curve data for the swap-rate decomposition, periods indexed 1..N.

    Attributes:
        discounts: discount factors p_1..p_N to the payment dates.
        daycounts: accrual fractions delta_1..delta_N in years.
        forwards: swap rates s_1..s_N (may be negative before shifting).
        root_variances: root-variances of the shifted swap rates.
        adjacent_correlations: square-root correlations between consecutive
            swap rates, entry i pairing periods i+1 and i+2.
        shift: proportion alpha in [0, 1] of the economic floor applied to
            rates and strike before bounding.
    """

    discounts: np.ndarray
    daycounts: np.ndarray
    forwards: np.ndarray
    root_variances: np.ndarray
    adjacent_correlations: np.ndarray
    shift: float = 0.0

    def __post_init__(self):
        names = ("discounts", "daycounts", "forwards", "root_variances", "adjacent_correlations")
        for name in names:
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        n = self.discounts.size
        if n < 1:
            raise ParameterOutOfRange("need at least one period")
        if not (self.daycounts.size == n and self.forwards.size == n and self.root_variances.size == n):
            raise ParameterOutOfRange("per-period arrays must share one length")
        if self.adjacent_correlations.size != max(n - 1, 0):
            raise ParameterOutOfRange("need one correlation per consecutive swap pair")
        # inf passes the sign checks below, and NaN every comparison.
        if not all(np.isfinite(getattr(self, name)).all() for name in names):
            raise ParameterOutOfRange("curve data must be finite")
        if np.any(self.discounts <= 0.0) or np.any(self.daycounts <= 0.0):
            raise ParameterOutOfRange("discount factors and daycounts must be positive")
        if np.any(self.root_variances < 0.0) or np.any(self.root_variances > 1.0):
            raise ParameterOutOfRange("root-variances must lie in [0, 1]")
        if self.adjacent_correlations.size and np.any(np.abs(self.adjacent_correlations) > 1.0):
            raise ParameterOutOfRange("correlations must lie in [-1, 1]")
        if not 0.0 <= self.shift <= 1.0:
            raise ParameterOutOfRange(f"shift must lie in [0, 1], got {self.shift}")

    @property
    def periods(self) -> int:
        return self.discounts.size

    @classmethod
    def with_flat_discounting(
        cls,
        discount_rate: float,
        periods: int,
        daycount: float,
        swap_rate: float,
        root_variance: float,
        correlation: float,
        shift: float = 0.0,
    ) -> "SwapCurveSlice":
        """Flat curve: p_n = (1 + r)^-n, constant daycount, rate, nu and rho."""
        # At r = -1 the discount factors are 1 / 0.  Closer to -1 they may
        # overflow, and the finiteness check rejects them.
        if not discount_rate > -1.0:
            raise ParameterOutOfRange(f"discount rate must exceed -1, got {discount_rate}")
        n = np.arange(1, periods + 1)
        with np.errstate(over="ignore"):
            discounts = (1.0 + discount_rate) ** (-n)
        return cls(
            discounts=discounts,
            daycounts=np.full(periods, daycount),
            forwards=np.full(periods, swap_rate),
            root_variances=np.full(periods, root_variance),
            adjacent_correlations=np.full(max(periods - 1, 0), correlation),
            shift=shift,
        )


@dataclass(frozen=True)
class AnnuityWeights:
    """Decomposition weights for one swap tenor.

    ``weights`` average the forward rates into the swap rate; ``lam`` is the
    inversion weight with r_n = (lam + 1) s_n - lam s_{n-1};
    ``mean_daycount`` is the discount-weighted average daycount, which sets
    the swap rate's economic floor -1 / mean_daycount.
    """

    weights: np.ndarray
    lam: float
    mean_daycount: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights))

    def forward_from_swaps(self, swap: float, previous_swap: float) -> float:
        """Invert the running average: r_n from s_n and s_{n-1}."""
        return (self.lam + 1.0) * swap - self.lam * previous_swap


def annuity_weights(slice_: SwapCurveSlice, n: int) -> AnnuityWeights:
    """Weights, inversion weight and mean daycount for the n-period swap (1-based)."""
    if not 1 <= n <= slice_.periods:
        raise ParameterOutOfRange(f"period index {n} outside 1..{slice_.periods}")
    p = slice_.discounts[:n]
    d = slice_.daycounts[:n]
    annuity = float(np.sum(p * d))
    weights = p * d / annuity
    lam = float(np.sum(p[:-1] * d[:-1]) / (p[-1] * d[-1]))
    mean_daycount = float(np.sum(p * d) / np.sum(p))
    return AnnuityWeights(weights, lam, mean_daycount)


@dataclass(frozen=True)
class CapletBasket:
    """The n-th caplet as a three-asset basket (s_n, s_{n-1}, cash): ``q``
    the strike-free moment matrix of the shifted swap rates and cash,
    ``factor`` its ``factor_psd``, ``lam`` the inversion weight,
    ``strike_shift`` the shift alpha / delta_n every strike takes, and
    ``forward`` the unshifted forward rate r_n = (lam + 1) s_n - lam s_{n-1}.
    ``minors`` (M12, M13, M23) are Q's principal 2x2 minors and ``det`` its
    determinant, each exact for the float ``q`` and rounded once, or 0 beyond
    the factor's rank."""

    q: MomentMatrix
    factor: PsdFactor
    lam: float
    strike_shift: float
    forward: float
    minors: tuple
    det: float


def caplet_basket(slice_: SwapCurveSlice, n: int) -> CapletBasket:
    """Assemble and factor the basket of the n-th caplet (2 <= n <= periods).

    Raises NegativeShiftedRate unless both shifted swap rates are positive.
    """
    if not 2 <= n <= slice_.periods:
        raise ParameterOutOfRange(
            f"caplet decomposition needs 2 <= n <= {slice_.periods}, got {n}"
        )
    here = annuity_weights(slice_, n)
    prev = annuity_weights(slice_, n - 1)
    alpha = slice_.shift
    f_n = float(slice_.forwards[n - 1]) + alpha / here.mean_daycount
    f_prev = float(slice_.forwards[n - 2]) + alpha / prev.mean_daycount
    strike_shift = alpha / float(slice_.daycounts[n - 1])
    if f_n <= 0.0 or f_prev <= 0.0:
        raise NegativeShiftedRate(
            f"shifted swap rates ({f_n}, {f_prev}) must be positive; increase the shift"
        )
    assets = [
        AssetMoments(f_n, float(slice_.root_variances[n - 1])),
        AssetMoments(f_prev, float(slice_.root_variances[n - 2])),
        AssetMoments(1.0, 0.0),
    ]
    rho = float(slice_.adjacent_correlations[n - 2])
    q = assemble_q(assets, [[1.0, rho, 0.0], [rho, 1.0, 0.0], [0.0, 0.0, 1.0]])
    forward = here.forward_from_swaps(slice_.forwards[n - 1], slice_.forwards[n - 2])
    factor = factor_psd(q)
    # Q's minors in integers over the entries' common power-of-two denominator,
    # each rounded once; those beyond the factor's rank are roundoff, and 0.
    ratios = [x.as_integer_ratio() for x in q.entries.ravel().tolist()]
    scale = max(den for _, den in ratios)
    a, b, c, _, e, f, _, _, i = (num * (scale // den) for num, den in ratios)
    m12, m13, m23 = a * e - b * b, a * i - c * c, e * i - f * f
    det = (a * m23 - b * (b * i - c * f) + c * (b * f - c * e)) * (factor.rank == 3) / scale**3
    minors = tuple(m * (factor.rank > 1) / scale**2 for m in (m12, m13, m23))
    return CapletBasket(q, factor, here.lam, strike_shift, float(forward), minors, det)


def caplet_bounds(baskets, strikes) -> BoundSweep:
    """Upper bounds for the undiscounted caplets E[(r_n - k)^+] of a config's
    baskets over one strike grid, as a sweep with a leading slice axis.

    At the shifted strike k', with w = (lam + 1, -lam, -k'), P's eigenvalues
    are the roots of mu^3 - c2 mu^2 + c1 mu - c0, c2 = sum_i w_i Q_ii,
    c1 = sum_{i<j} w_i w_j M_ij and c0 = w_1 w_2 w_3 det Q.  The largest |root|
    comes from the trigonometric form, the other two from Vieta's formulas,
    so the one positive root at a far strike keeps its relative accuracy.
    The bound sums every positive root; ``EIG_TOL`` times the largest |root|
    only sets which ``positive_counts`` counts.  Each slice is solved in units
    of the power of two of its largest price, each strike in those of its
    largest quantity: exact, and the coefficients stay finite.
    """
    lam = np.array([[basket.lam] for basket in baskets])
    shifted = np.asarray(strikes, dtype=float)[None, :] + [[b.strike_shift] for b in baskets]
    if not np.all(np.isfinite(shifted)):
        raise ParameterOutOfRange("shifted strikes must be finite")
    terms = np.array([[*np.diag(b.q.entries), *b.minors, b.det] for b in baskets])
    g = np.frexp(np.max(terms[:, :3], axis=1, keepdims=True))[1]
    d1, d2, d3, m12, m13, m23, det = np.ldexp(terms, -g * [1, 1, 1, 2, 2, 2, 3]).T[..., None]
    e = np.frexp(np.maximum(lam + 1.0, np.abs(shifted)))[1]
    w1, w2, w3 = np.ldexp(lam + 1.0, -e), np.ldexp(-lam, -e), np.ldexp(-shifted, -e)
    c2 = w1 * d1 + w2 * d2 + w3 * d3
    c1 = w1 * w2 * m12 + w3 * (w1 * m13 + w2 * m23)
    c0 = w1 * w2 * w3 * det
    # The roots are h + 2 r cos(theta - 2 pi j / 3): top at j = 0, bottom at j = 2.
    h = c2 / 3.0
    r = np.sqrt(np.maximum(h * h - c1 / 3.0, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos3 = np.where(r > 0.0, (c0 - c1 * h + 2.0 * h**3) / (2.0 * r**3), 1.0)
        theta = np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0
        top, bottom = h + 2.0 * r * np.cos(theta), h + 2.0 * r * np.cos(theta + 2.0 * np.pi / 3.0)
        big = np.where(np.abs(top) >= np.abs(bottom), top, bottom)
        # The other two have product c0 / big and sum (c1 - c0 / big) / big.
        product = np.where(big != 0.0, c0 / big, 0.0)
        total = np.where(big != 0.0, (c1 - product) / big, 0.0)
        gap = np.sqrt(np.maximum(total * total - 4.0 * product, 0.0))
        half = 0.5 * (total + np.copysign(gap, total))
        other = np.where(half != 0.0, product / half, 0.0)
    eigs = np.sort(np.stack([big, half, other], axis=-1), axis=-1)[..., ::-1]
    counts = np.sum(eigs > EIG_TOL * np.max(np.abs(eigs), axis=-1, keepdims=True), axis=-1)
    bounds, scale = np.sum(np.maximum(eigs, 0.0), axis=-1), e + g
    return BoundSweep(np.ldexp(bounds, scale), np.ldexp(eigs, scale[..., None]), counts)


@dataclass(frozen=True)
class CapletScan:
    """Strike scan of the caplet bounds of a config's slices (the leading axis).

    ``cdf`` holds 1 + d(bound)/dk by central differences on the grid
    (one-sided at the ends).  ``positive_counts`` is the number of positive
    eigenvalues of P per strike, and ``switch_strikes`` holds, per slice, the
    grid strikes where that count drops from two to one; each marks the
    location of a discrete probability in the implied distribution.
    """

    strikes: np.ndarray
    bounds: np.ndarray
    cdf: np.ndarray
    positive_counts: np.ndarray
    switch_strikes: tuple

    def __post_init__(self):
        for name in ("strikes", "bounds", "cdf", "positive_counts"):
            # A copy: freezing the caller's own array would make it read-only.
            object.__setattr__(self, name, _frozen_array(getattr(self, name), None))


def caplet_cdf_scan(baskets, strikes) -> CapletScan:
    """Scan bounds, implied CDF and the eigenvalue regime of every basket
    over one strike grid, in one ``caplet_bounds`` sweep."""
    ks = _checked_grid(strikes, positive=False, min_size=3)
    sweep = caplet_bounds(baskets, ks)
    bounds = sweep.bounds
    cdf = np.empty_like(bounds)
    cdf[:, 1:-1] = 1.0 + (bounds[:, 2:] - bounds[:, :-2]) / (ks[2:] - ks[:-2])
    cdf[:, 0] = 1.0 + (bounds[:, 1] - bounds[:, 0]) / (ks[1] - ks[0])
    cdf[:, -1] = 1.0 + (bounds[:, -1] - bounds[:, -2]) / (ks[-1] - ks[-2])
    counts = sweep.positive_counts
    switches = tuple(tuple(ks[1:][(row[:-1] == 2) & (row[1:] == 1)].tolist()) for row in counts)
    return CapletScan(ks, bounds, cdf, counts, switches)


def caplet_point_mass(basket: CapletBasket, strike: float) -> float:
    """Discrete probability at a strike: the jump of the implied CDF there.

    With P = S diag(w) S^T, w = (lam + 1, -lam, -k') for the shifted strike k',
    dP/dk = -s_c s_c^T, so by Hellmann-Feynman the CDF jumps by (u . s_c)^2
    summed over the eigenvectors u of P with zero eigenvalue, within
    ``EIG_TOL`` times sum_i |w_i| Q_ii (which bounds ||P|| and stays positive
    when P vanishes).  With Q of full rank, P has the inertia of diag(w)
    (Sylvester's law), so no eigenvalue crosses zero off k' = 0 and the mass
    there is exactly 0.  At k' = 0 it is the squared distance of s_c from
    the rate columns' span, nu_n nu_{n-1} (1 - rho^2) / ((1 - q)(1 + q))
    with q their normalised cross moment, or nu_n when q = +-1.  S is the
    basket's factor: nothing is factored here.
    """
    if not np.isfinite(strike):
        raise ParameterOutOfRange(f"strike must be finite, got {strike}")
    lam, factor = basket.lam, basket.factor
    weights = np.array([lam + 1.0, -lam, -(strike + basket.strike_shift)])
    if factor.rank == 3 and weights[2] != 0.0:
        return 0.0
    s = factor.matrix
    eigs, vectors = np.linalg.eigh((s * weights) @ s.T)
    zero = np.abs(eigs) <= EIG_TOL * float(np.sum(np.abs(weights) * np.diag(basket.q.entries)))
    return float(np.sum((s[:, 2] @ vectors[:, zero]) ** 2))
