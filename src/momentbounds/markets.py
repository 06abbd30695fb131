"""Market applications of the bound machinery.

* FX cross rates: an option on x1/x2 is a vanilla option whose root-variance
  composes from the two legs' root-variances and their square-root
  correlation, nu = 1 - (sqrt((1-nu1)(1-nu2)) + rho sqrt(nu1 nu2))^2, and
  its bound is ``vanilla_bounds`` at that root-variance.
* Forward-starting caplets: the n-period forward rate decomposes as
  r_n = (lam_n + 1) s_n - lam_n s_{n-1} over the swap rates, with
  lam_n fixed by discount factors and daycounts, so the caplet is a
  three-asset basket (s_n, s_{n-1}, cash).  Its strike-free moment matrix Q
  enters only through its diagonal, its principal 2x2 minors and its
  determinant, which ``caplet_basket`` computes once, in closed form from
  the model; a sweep solves the cubic det(mu I - W Q) = 0 and the point
  mass reads the same numbers, so nothing on the caplet path assembles,
  factors or eigensolves a matrix.  Negative rates are handled by shifting
  rates and strike by a proportion of the economic floor, which leaves the
  payoff unchanged.  Where an eigenvalue of P crosses zero the implied CDF
  jumps by its slope in the strike; with Q of full rank, Sylvester's law
  leaves one jump, at the shifted floor, of det Q / M12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import EIG_TOL, BoundSweep, _checked_grid, _frozen_array, _reject_first_bad
from .errors import NegativeShiftedRate, ParameterOutOfRange
from .moments import AssetMoments, cross_term

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
        """Invert the running average: r_n from s_n and s_{n-1}, in units of the power of two of max |s|."""
        e = math.frexp(max(abs(swap), abs(previous_swap)))[1]
        forward = (self.lam + 1.0) * math.ldexp(swap, -e) - self.lam * math.ldexp(previous_swap, -e)
        if not math.isfinite(forward) or math.frexp(forward)[1] + e > 1024:
            raise ParameterOutOfRange(f"forward rate from swap rates ({swap}, {previous_swap}) overflows")
        return math.ldexp(forward, e)


def annuity_weights(slice_: SwapCurveSlice, n: int) -> AnnuityWeights:
    """Weights, inversion weight and mean daycount for the n-period swap (1-based)."""
    if not 1 <= n <= slice_.periods:
        raise ParameterOutOfRange(f"period index {n} outside 1..{slice_.periods}")
    p = slice_.discounts[:n]
    # The weights and lam are homogeneous of degree 0 in the daycounts, and
    # the mean daycount of degree 1: evaluated in units of the power of two
    # of the largest daycount, no sum overflows, and the scaling is exact.
    e = np.frexp(np.max(slice_.daycounts[:n]))[1]
    d = np.ldexp(slice_.daycounts[:n], -e)
    annuity = float(np.sum(p * d))
    weights = p * d / annuity
    lam = float(np.sum(p[:-1] * d[:-1]) / (p[-1] * d[-1]))
    mean_daycount = math.ldexp(float(np.sum(p * d) / np.sum(p)), int(e))
    return AnnuityWeights(weights, lam, mean_daycount)


@dataclass(frozen=True)
class CapletBasket:
    """The n-th caplet as a three-asset basket (s_n, s_{n-1}, cash): ``prices``
    (f_n, f_{n-1}, 1) of the shifted swap rates and cash, the diagonal of the
    strike-free moment matrix Q = E[v v^T] with v = (sqrt s_n, sqrt s_{n-1}, 1);
    ``lam`` the inversion weight, ``strike_shift`` the shift alpha / delta_n
    every strike takes, and ``forward`` the unshifted forward rate
    r_n = (lam + 1) s_n - lam s_{n-1}.  ``minors`` (M12, M13, M23) are Q's
    principal 2x2 minors and ``det`` its determinant, in closed form from the
    model: each is exactly 0 where it vanishes in exact arithmetic."""

    prices: tuple
    lam: float
    strike_shift: float
    forward: float
    minors: tuple
    det: float


def caplet_basket(slice_: SwapCurveSlice, n: int) -> CapletBasket:
    """The basket of the n-th caplet (2 <= n <= periods), with Q's invariants.

    With x = sqrt(nu_{n-1} (1 - nu_n)) and y = sqrt(nu_n (1 - nu_{n-1})),
    M13 = f_n nu_n, M23 = f_{n-1} nu_{n-1}, det Q = f_n f_{n-1} nu_n nu_{n-1}
    (1 - rho)(1 + rho) (the Schur complement of the cash entry), and
    M12 = f_n f_{n-1} (1 - q^2), q the rates' normalised cross moment, as
    f_n f_{n-1} [nu_n nu_{n-1} (1 - rho)(1 + rho) + (x - y)^2 + 2 (1 - rho) x y]
    with x - y = (nu_{n-1} - nu_n) / (x + y).  Each is a sum of non-negative
    products, so it keeps its relative digits and is an exact zero where Q is
    singular.

    Raises NegativeShiftedRate unless both shifted swap rates are positive,
    and ParameterOutOfRange if the forward rate, a minor or the determinant is not finite.
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
    nu_n, nu_prev = float(slice_.root_variances[n - 1]), float(slice_.root_variances[n - 2])
    rho = float(slice_.adjacent_correlations[n - 2])
    x, y = math.sqrt(nu_prev * (1.0 - nu_n)), math.sqrt(nu_n * (1.0 - nu_prev))
    spread = (nu_prev - nu_n) / (x + y) if x + y else 0.0
    schur = nu_n * nu_prev * (1.0 - rho) * (1.0 + rho)
    m12 = f_n * f_prev * (schur + spread * spread + 2.0 * (1.0 - rho) * x * y)
    det = f_n * f_prev * nu_n * nu_prev * (1.0 - rho) * (1.0 + rho)
    forward = here.forward_from_swaps(slice_.forwards[n - 1], slice_.forwards[n - 2])
    minors = (m12, f_n * nu_n, f_prev * nu_prev)
    if not all(map(math.isfinite, (*minors, det))):
        raise ParameterOutOfRange(f"caplet moment invariants overflow at shifted rates ({f_n}, {f_prev})")
    return CapletBasket((f_n, f_prev, 1.0), here.lam, strike_shift, float(forward), minors, det)


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
    ks = np.asarray(strikes, dtype=float)
    shifted = ks + [[b.strike_shift] for b in baskets]
    _reject_first_bad((np.isfinite(shifted), lambda i, k, value: ParameterOutOfRange(
        f"shifted strikes must be finite, got {value} at strike {k} of slice {i}"),
        np.arange(len(baskets))[:, None], ks, shifted))
    terms = np.array([[*b.prices, *b.minors, b.det] for b in baskets])
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

    With w = (lam + 1, -lam, -k') for the shifted strike k', the elementary
    symmetric functions of W Q's eigenvalues are e_j(k') = a_j - k' b_j, with
    a = (1, w1 f_n + w2 f_{n-1}, w1 w2 M12, 0) and
    b = (0, 1, w1 M13 + w2 M23, w1 w2 det Q).  With r the last j whose e_j is
    not identically zero, r eigenvalues of W Q move with the strike and the
    rest stay 0; one of them crosses zero where e_r(k') = 0, with slope
    -b_r / e_{r-1}(k'), which is the jump of the CDF (by Hellmann-Feynman,
    the (u . s_c)^2 of its eigenvector u of P = S W S^T, s_c the cash column
    of S).  At r = 3 (det Q > 0) P has the inertia of diag(w) (Sylvester's
    law), so the only crossing is at k' = 0 exactly, with mass det Q / M12.
    At r < 3, e_r counts as zero within ``EIG_TOL`` times
    sum_i |w_i| Q_ii (which bounds ||P|| and stays positive when P vanishes)
    times |e_{r-1}|.  Nothing is factored or solved here.
    """
    if not np.isfinite(strike):
        raise ParameterOutOfRange(f"strike must be finite, got {strike}")
    shifted = strike + basket.strike_shift
    w1, w2 = basket.lam + 1.0, -basket.lam
    (f_n, f_prev, _), (m12, m13, m23) = basket.prices, basket.minors
    a = (1.0, w1 * f_n + w2 * f_prev, w1 * w2 * m12, 0.0)
    b = (0.0, 1.0, w1 * m13 + w2 * m23, w1 * w2 * basket.det)
    r = max(j for j in range(4) if a[j] or b[j])
    if r == 3:
        return basket.det / m12 if shifted == 0.0 else 0.0
    e_r, e_below = (a[j] - shifted * b[j] for j in (r, r - 1))
    scale = w1 * f_n - w2 * f_prev + abs(shifted)
    return abs(b[r] / e_below) if abs(e_r) <= EIG_TOL * scale * abs(e_below) else 0.0
