"""Market applications of the bound machinery.

* FX cross rates: an option on x1/x2 is a vanilla option whose root-variance
  composes from the two legs' root-variances and their square-root
  correlation, nu = 1 - (sqrt((1-nu1)(1-nu2)) + rho sqrt(nu1 nu2))^2, and
  its bound is ``vanilla_bounds`` at that root-variance.
* Forward-starting caplets: the n-period forward rate decomposes as
  r_n = (lam_n + 1) s_n - lam_n s_{n-1} over the swap rates, with
  lam_n fixed by discount factors and daycounts, so the caplet is a
  three-asset basket (s_n, s_{n-1}, cash) fed to the eigenvalue engine.
  Negative rates are handled by shifting rates and strike by a proportion
  of the economic floor, which leaves the payoff unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    BoundSweep,
    DEFAULT_TOLERANCES,
    Tolerances,
    _checked_grid,
    _frozen_array,
    positive_eigenvalue_bounds,
)
from .errors import NegativeShiftedRate, ParameterOutOfRange
from .moments import AssetMoments, assemble_q, cross_term

__all__ = [
    "FxLegMoments",
    "SwapCurveSlice",
    "AnnuityWeights",
    "CapletScan",
    "cross_root_variance",
    "annuity_weights",
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
class FxLegMoments:
    """Domestic-measure moments of two FX legs and the cross forward."""

    nu1: float
    nu2: float
    rho: float
    forward: float

    def __post_init__(self):
        if not 0.0 <= self.nu1 <= 1.0 or not 0.0 <= self.nu2 <= 1.0:
            raise ParameterOutOfRange("leg root-variances must lie in [0, 1]")
        if not -1.0 <= self.rho <= 1.0:
            raise ParameterOutOfRange(f"correlation must lie in [-1, 1], got {self.rho}")
        if not self.forward > 0.0:
            raise ParameterOutOfRange(f"cross forward must be positive, got {self.forward}")

    @property
    def cross_nu(self) -> float:
        return cross_root_variance(self.nu1, self.nu2, self.rho)


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
        for name in ("discounts", "daycounts", "forwards", "root_variances", "adjacent_correlations"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        n = self.discounts.size
        if n < 1:
            raise ParameterOutOfRange("need at least one period")
        if not (self.daycounts.size == n and self.forwards.size == n and self.root_variances.size == n):
            raise ParameterOutOfRange("per-period arrays must share one length")
        if self.adjacent_correlations.size != max(n - 1, 0):
            raise ParameterOutOfRange("need one correlation per consecutive swap pair")
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
        n = np.arange(1, periods + 1)
        return cls(
            discounts=(1.0 + discount_rate) ** (-n),
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


def _shifted_inputs(slice_: SwapCurveSlice, n: int):
    """Inversion weight, shifted swap rates and strike shift of the n-th caplet."""
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
    return here.lam, f_n, f_prev, strike_shift


def caplet_bounds(
    slice_: SwapCurveSlice, n: int, strikes, tol: Tolerances = DEFAULT_TOLERANCES
) -> BoundSweep:
    """Upper bounds for the undiscounted forward-starting caplet E[(r_n - k)^+]
    over a strike grid, as one engine sweep (bounds, eigenvalues, rank and
    positive counts per strike).

    The three-asset moment matrix does not depend on the strike, so it is
    assembled and factored once for the whole grid.  Strikes may be negative:
    after shifting each is just the (signed) quantity of the cash asset, and
    scanning below the shifted floor is what exposes the eigenvalue-regime
    switch.  Discounting and annuity scaling are the caller's business.
    """
    lam, f_n, f_prev, strike_shift = _shifted_inputs(slice_, n)
    rho = float(slice_.adjacent_correlations[n - 2])
    assets = [
        AssetMoments(f_n, float(slice_.root_variances[n - 1])),
        AssetMoments(f_prev, float(slice_.root_variances[n - 2])),
        AssetMoments(1.0, 0.0),
    ]
    q = assemble_q(assets, {(0, 1): rho})
    shifted = np.asarray(strikes, dtype=float) + strike_shift
    quantities = np.empty((shifted.size, 3))
    quantities[:, 0] = lam + 1.0
    quantities[:, 1] = -lam
    quantities[:, 2] = -shifted
    return positive_eigenvalue_bounds(q, quantities, tol)


@dataclass(frozen=True)
class CapletScan:
    """Strike scan of the caplet bound.

    ``cdf`` holds 1 + d(bound)/dk by central differences on the grid
    (one-sided at the ends).  ``positive_counts`` is the number of positive
    eigenvalues of P per strike, and ``switch_strikes`` the grid strikes
    where that count drops from two to one; each marks the location of a
    discrete probability in the implied distribution.
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


def caplet_cdf_scan(
    slice_: SwapCurveSlice,
    n: int,
    strikes,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CapletScan:
    """Scan bounds, implied CDF and the eigenvalue regime over a strike grid."""
    ks = _checked_grid(strikes, positive=False, min_size=3)
    sweep = caplet_bounds(slice_, n, ks, tol)
    bounds = sweep.bounds
    cdf = np.empty_like(bounds)
    cdf[1:-1] = 1.0 + (bounds[2:] - bounds[:-2]) / (ks[2:] - ks[:-2])
    cdf[0] = 1.0 + (bounds[1] - bounds[0]) / (ks[1] - ks[0])
    cdf[-1] = 1.0 + (bounds[-1] - bounds[-2]) / (ks[-1] - ks[-2])
    counts = sweep.positive_counts
    switches = tuple(ks[1:][(counts[:-1] == 2) & (counts[1:] == 1)].tolist())
    return CapletScan(ks, bounds, cdf, counts, switches)


def caplet_point_mass(
    slice_: SwapCurveSlice,
    n: int,
    strike: float,
    *,
    step: float = 1e-6,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> float:
    """Discrete probability at a strike: the jump of the implied CDF there.

    Measured as the difference of one-sided strike derivatives of the bound,
    each from a second-order one-sided stencil, so a smooth bound reports
    O(step^2) instead of a spurious mass.
    """
    stencil = [strike, strike + step, strike + 2 * step, strike - step, strike - 2 * step]
    b0, up1, up2, dn1, dn2 = caplet_bounds(slice_, n, stencil, tol).bounds.tolist()
    right = (-3.0 * b0 + 4.0 * up1 - up2) / (2.0 * step)
    left = (3.0 * b0 - 4.0 * dn1 + dn2) / (2.0 * step)
    return right - left
