"""Closed-form two-asset bound for vanilla options, the implied smile and the
implied cumulative density, each an array form that broadcasts its arguments.

The option to receive a - k, with only the price f and root-variance nu of
the asset known, is bounded by the positive root of

    p^2 - (f - k) p - f k nu = 0,

equivalently (f - k)/2 + sqrt((f - k)^2 + 4 f k nu)/2.  The implied
distribution behind this bound combines a point mass nu at strike zero with
a continuous density on the upper half-line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    DEFAULT_TOLERANCES,
    Tolerances,
    _checked_grid,
    _frozen_array,
    positive_eigenvalue_bounds,
)
from .errors import MomentBoundsError, ParameterOutOfRange, ShapeViolation
from .models import _check_elements, implied_lognormal_vols
from .moments import AssetMoments, assemble_q

__all__ = [
    "VanillaBoundCurve",
    "vanilla_bounds",
    "vanilla_bounds_via_engine",
    "implied_cdfs",
    "smile_curves",
    "check_decreasing_convex",
]

# Slack for curve shape checks: second differences of a valid bound curve may
# dip this far below zero before we call it an arbitrage violation.
SHAPE_TOL = 1e-10


def _checked(f, nu, k, strike_rule: str):
    """f, nu and k as float arrays, after the first element in grid order
    that breaks a rule raises ParameterOutOfRange.  ``strike_rule`` is
    "positive" or "non-negative"."""
    f, nu, k = (np.asarray(x, dtype=float) for x in (f, nu, k))
    _check_elements(
        (f > 0.0, "forward must be positive", f),
        ((nu >= 0.0) & (nu <= 1.0), "root-variance must lie in [0, 1]", nu),
        (k > 0.0 if strike_rule == "positive" else k >= 0.0, f"strike must be {strike_rule}", k),
    )
    return f, nu, k


def vanilla_bounds(f, nu, k) -> np.ndarray:
    """Upper bound for E[(a - k)^+] given price f and root-variance nu,
    elementwise over arrays of f, nu and k, broadcast together.

    Evaluated in a cancellation-free form: the explicit root when f >= k,
    and the product-of-roots form 2 f k nu / (sqrt(D) + (k - f)) when f < k,
    which stays accurate deep out of the money with tiny nu.
    """
    f, nu, k = _checked(f, nu, k, "positive")
    # d * d, not d ** 2: numpy squares arrays by multiplication but hands a
    # scalar's power to libm, which may round differently.
    d = f - k
    root = np.sqrt(d * d + 4.0 * f * k * nu)
    # The out-of-the-money form divides by zero at f = k, nu = 0, where the
    # explicit root is taken instead.
    with np.errstate(divide="ignore", invalid="ignore"):
        otm = 2.0 * f * k * nu / (root + (k - f))
    return np.where(f >= k, 0.5 * (d + root), otm)


def vanilla_bounds_via_engine(
    f: float, nu: float, strikes, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """``vanilla_bounds`` over a strike grid through the general eigenvalue
    engine.

    Assembles the 2x2 moment matrix for the asset paired with the constant
    asset 1, factors it once, and solves quantities (1, -k) per strike.
    Agrees with the closed form to within eigensolver roundoff; kept as an
    independent route for cross-checks.
    """
    assets = [AssetMoments(f, nu), AssetMoments(1.0, 0.0)]
    ks = _checked_grid(strikes, increasing=False)
    q = assemble_q(assets, {(0, 1): 0.0})
    quantities = np.column_stack([np.ones(ks.size), -ks])
    return positive_eigenvalue_bounds(q, quantities, tol).bounds


def implied_cdfs(f, nu, k) -> np.ndarray:
    """Cumulative density implied by the bound, 1 + d(bound)/dk, elementwise
    over arrays of f, nu and k >= 0, broadcast together.

    Evaluated analytically as 1/2 + (2 f nu - (f - k)) / (2 sqrt(D)).  The
    right-limit convention applies at kinks, so k = 0 reports the point mass
    nu and, for nu = 0, the strike at the forward reports 1.
    """
    f, nu, k = _checked(f, nu, k, "non-negative")
    d = f - k
    root = np.sqrt(d * d + 4.0 * f * k * nu)
    # root is zero only at nu = 0, k = f: the point mass at the forward.
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf = np.where(root == 0.0, 1.0, 0.5 + (2.0 * f * nu - d) / (2.0 * root))
    return np.where(k == 0.0, nu, cdf)


def check_decreasing_convex(
    strikes, values, shape_tol: float = SHAPE_TOL, label: str = "bound curve"
) -> None:
    """Raise ShapeViolation unless the curve is decreasing and convex in strike.

    Convexity uses divided differences, so unevenly spaced grids are handled;
    both checks allow slack ``shape_tol``.
    """
    ks = _checked_grid(strikes, positive=False, min_size=2)
    vs = np.asarray(values, dtype=float)
    if ks.shape != vs.shape:
        raise ParameterOutOfRange("curve values must match the strike grid")
    slopes = np.diff(vs) / np.diff(ks)
    if np.any(slopes > shape_tol):
        i = int(np.argmax(slopes))
        raise ShapeViolation(
            f"{label} increases between strikes {ks[i]} and {ks[i + 1]} "
            f"(slope {slopes[i]:.3e})"
        )
    if slopes.size >= 2:
        curvature = np.diff(slopes)
        if np.any(curvature < -shape_tol):
            i = int(np.argmin(curvature))
            raise ShapeViolation(
                f"{label} is concave around strike {ks[i + 1]} "
                f"(slope change {curvature[i]:.3e})"
            )


@dataclass(frozen=True)
class VanillaBoundCurve:
    """Bound, implied-vol and implied-CDF values over a strike grid.

    Construction enforces the no-arbitrage shape invariants: bounds are
    decreasing and convex in strike, the CDF is non-decreasing with values
    in [0, 1].  Implied vols use math.inf as the diverging-vol sentinel.
    """

    strikes: np.ndarray
    bounds: np.ndarray
    implied_vols: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        for name in ("strikes", "bounds", "implied_vols", "cdf"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        if not (self.strikes.shape == self.bounds.shape == self.implied_vols.shape == self.cdf.shape):
            raise ParameterOutOfRange("curve columns must share one strike grid")
        check_decreasing_convex(self.strikes, self.bounds)
        if np.any(np.diff(self.cdf) < -SHAPE_TOL):
            raise ShapeViolation("implied CDF must be non-decreasing in strike")
        if np.any(self.cdf < -SHAPE_TOL) or np.any(self.cdf > 1.0 + SHAPE_TOL):
            raise ShapeViolation("implied CDF must take values in [0, 1]")


def smile_curves(f: float, nus, strikes, expiry: float) -> list:
    """Bound curves with implied lognormal vols and implied CDF on one strike
    grid, one per root-variance in ``nus``.  All bounds invert in one call; if
    it fails, the curves invert one by one, so the first failing curve raises
    as it would on its own."""
    ks = _checked_grid(strikes, min_size=2)
    nus = np.asarray(nus, dtype=float).reshape(-1)
    bounds = vanilla_bounds(f, nus[:, None], ks)
    cdf = implied_cdfs(f, nus[:, None], ks)
    try:
        vols = implied_lognormal_vols(f, np.tile(ks, nus.size), expiry, bounds.ravel())
        vols = vols.reshape(bounds.shape)
    except MomentBoundsError:
        vols = [None] * nus.size
    return [
        VanillaBoundCurve(ks, b, implied_lognormal_vols(f, ks, expiry, b) if v is None else v, c)
        for b, v, c in zip(bounds, vols, cdf)
    ]
