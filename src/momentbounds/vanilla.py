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

from .engine import _checked_grid, _frozen_array, _reject_first_bad, _rule
from .errors import NonFiniteResult, ParameterOutOfRange, ShapeViolation
from .models import implied_lognormal_vols

__all__ = [
    "VanillaBoundCurve",
    "vanilla_bounds",
    "implied_cdfs",
    "smile_curves",
    "check_decreasing_convex",
]

# Slack for curve shape checks: second differences of a valid bound curve may
# dip this far below zero before we call it an arbitrage violation.
SHAPE_TOL = 1e-10


def _checked(f, nu, k, strike_rule: str):
    """f, nu and k as float arrays, after an element that breaks a rule
    raises ParameterOutOfRange.  ``strike_rule`` is "positive" or
    "non-negative"."""
    f, nu, k = (np.asarray(x, dtype=float) for x in (f, nu, k))
    _reject_first_bad(
        (f > 0.0, _rule("forward must be positive"), f),
        ((nu >= 0.0) & (nu <= 1.0), _rule("root-variance must lie in [0, 1]"), nu),
        (k > 0.0 if strike_rule == "positive" else k >= 0.0, _rule(f"strike must be {strike_rule}"), k),
    )
    return f, nu, k


def vanilla_bounds(f, nu, k) -> np.ndarray:
    """Upper bound for E[(a - k)^+] given price f and root-variance nu,
    elementwise over arrays of f, nu and k, broadcast together.

    Evaluated in a cancellation-free form: the explicit root when f >= k,
    and the product-of-roots form 2 f k nu / (sqrt(D) + (k - f)) when f < k,
    which stays accurate deep out of the money with tiny nu.  The bound is
    homogeneous of degree one in (f, k), so it is evaluated in units of the
    power of two 2**e with max(f, k) = m 2**e, 1/2 <= m < 1, and scaled back:
    the squares and products cannot overflow, and where they would not have,
    the scaling is exact and the result the same.  Where 2 f k nu is
    subnormal in those units it has lost digits, so the out-of-the-money
    bound is taken as the unscaled f times the ratio 2 k nu / (sqrt(D) + k - f).
    """
    f, nu, k = _checked(f, nu, k, "positive")
    forward = f
    e = np.frexp(np.maximum(f, k))[1]
    f, k = np.ldexp(f, -e), np.ldexp(k, -e)
    # d * d, not d ** 2: numpy squares arrays by multiplication but hands a
    # scalar's power to libm, which may round differently.
    d = f - k
    # The out-of-the-money form divides by zero at f = k, nu = 0, where the
    # explicit root is taken instead, and its unscaled form may overflow
    # where it is not taken.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = np.sqrt(d * d + 4.0 * f * k * nu)
        product = 2.0 * f * k * nu
        otm = product / (root + (k - f))
        tiny_otm = forward * (2.0 * k * nu / (root + (k - f)))
    tiny = (f < k) & (product < np.finfo(float).tiny)
    bounds = np.where(f >= k, 0.5 * (d + root), np.where(tiny, tiny_otm, otm))
    return np.ldexp(bounds, np.where(tiny, 0, e))


def implied_cdfs(f, nu, k) -> np.ndarray:
    """Cumulative density implied by the bound, 1 + d(bound)/dk, elementwise
    over arrays of f, nu and k >= 0, broadcast together.

    Evaluated analytically as 1/2 + (2 f nu - (f - k)) / (2 sqrt(D)).  The
    right-limit convention applies at kinks, so k = 0 reports the point mass
    nu and, for nu = 0, the strike at the forward reports 1.
    """
    f, nu, k = _checked(f, nu, k, "non-negative")
    # Scale-free: evaluated in the units of vanilla_bounds, not scaled back.
    e = np.frexp(np.maximum(f, k))[1]
    f, k = np.ldexp(f, -e), np.ldexp(k, -e)
    d = f - k
    root = np.sqrt(d * d + 4.0 * f * k * nu)
    # root is zero only at nu = 0, k = f: the point mass at the forward.
    with np.errstate(divide="ignore", invalid="ignore"):
        cdf = np.where(root == 0.0, 1.0, 0.5 + (2.0 * f * nu - d) / (2.0 * root))
    return np.where(k == 0.0, nu, cdf)


def check_decreasing_convex(strikes, values, label="bound curve") -> None:
    """Raise ShapeViolation unless each curve is decreasing and convex in strike.

    ``values`` is one curve or a (curves, strikes) stack, with one ``label``
    for every curve or a sequence of one per row.  A stack raises what a loop
    over its rows, then strikes, raises first: a row with a value that is not
    finite raises NonFiniteResult for its first such value, before its shape
    checks; any other row raises ShapeViolation at the first strike k_j where
    the slope to k_(j+1) rises or the slopes bend around k_j, a rise first.
    Convexity uses divided differences, so uneven grids are handled.  Both
    checks allow slack ``SHAPE_TOL`` plus the roundoff, 4 eps |v| a value, of
    the values each slope spans, over its step.
    """
    ks = _checked_grid(strikes, positive=False, min_size=2)
    vs = np.asarray(values, dtype=float)
    if vs.ndim > 2 or vs.shape[-1:] != ks.shape:
        raise ParameterOutOfRange("curve values must match the strike grid")
    rows = vs.reshape(-1, ks.size)
    labels = [label] * len(rows) if isinstance(label, str) else list(label)
    if len(labels) != len(rows):
        raise ParameterOutOfRange("a curve stack needs one label per row")
    finite, roundoff = np.isfinite(rows), 4.0 * np.finfo(float).eps * np.abs(rows)
    # Cell (r, j) checks value j, then slope j, from k_j to k_(j+1), and its
    # bend from slope j - 1.  Column j + 1 of ``ds`` and ``slack`` holds slope j
    # and its slack, infinite over a step too short for roundoff to resolve a
    # slope; for n strikes, columns 0 and n are NaN: cell 0 has no bend, cell n-1 no slope.
    ds, slack = np.full((2, len(rows), ks.size + 1), np.nan)
    steps = ks[1:] - ks[:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        ds[:, 1:-1] = (rows[:, 1:] - rows[:, :-1]) / steps
        slack[:, 1:-1] = (roundoff[:, :-1] + roundoff[:, 1:]) / steps
        curvature = ds[:, 1:] - ds[:, :-1]
        rises, bends = ds[:, 1:] - slack[:, 1:], curvature + (slack[:, :-1] + slack[:, 1:])
    finite_rows, row, column = finite.all(axis=1, keepdims=True), np.arange(len(rows))[:, None], np.arange(ks.size)
    _reject_first_bad(
        (finite, lambda r, j: NonFiniteResult(f"{labels[r]} is {rows[r, j]} at strike {ks[j]}"), row, column),
        (~(finite_rows & (rises > SHAPE_TOL)), lambda r, j: ShapeViolation(
            f"{labels[r]} increases between strikes {ks[j]} and {ks[j + 1]} (slope {ds[r, j + 1]:.3e})"), row, column),
        (~(finite_rows & (bends < -SHAPE_TOL)), lambda r, j: ShapeViolation(
            f"{labels[r]} is concave around strike {ks[j]} (slope change {curvature[r, j]:.3e})"), row, column),
    )


@dataclass(frozen=True)
class VanillaBoundCurve:
    """Bound, implied-vol and implied-CDF values over a strike grid, for one
    curve or a (curves, strikes) stack of them.

    Construction enforces the no-arbitrage shape invariants on every row:
    bounds decreasing and convex in strike, the CDF non-decreasing in [0, 1].
    Implied vols use math.inf as the diverging-vol sentinel.
    """

    strikes: np.ndarray
    bounds: np.ndarray
    implied_vols: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        for name in ("strikes", "bounds", "implied_vols", "cdf"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        if not self.bounds.shape == self.implied_vols.shape == self.cdf.shape:
            raise ParameterOutOfRange("curve columns must share one strike grid")
        check_decreasing_convex(self.strikes, self.bounds)  # also matches the rows to the grid
        ks, cdf = self.strikes, self.cdf.reshape(-1, self.strikes.size)
        row = np.arange(len(cdf))[:, None]
        _reject_first_bad((~(np.diff(cdf) < -SHAPE_TOL), lambda r, k: ShapeViolation(
            f"implied CDF must be non-decreasing in strike, falls after strike {k} in row {r}"), row, ks[:-1]))
        _reject_first_bad((~((cdf < -SHAPE_TOL) | (cdf > 1.0 + SHAPE_TOL)), lambda r, k, v: ShapeViolation(
            f"implied CDF must take values in [0, 1], got {v} at strike {k} in row {r}"), row, ks, cdf))


def smile_curves(f: float, nus, strikes, expiry: float) -> VanillaBoundCurve:
    """Bound curves with implied lognormal vols and implied CDF on one strike
    grid, one row per root-variance in ``nus``, as one stacked curve.  All
    bounds invert in one call before the stack checks its shape."""
    ks = _checked_grid(strikes, min_size=2)
    nus = np.asarray(nus, dtype=float).reshape(-1, 1)
    bounds = vanilla_bounds(f, nus, ks)
    vols = implied_lognormal_vols(f, np.tile(ks, nus.size), expiry, bounds.ravel())
    return VanillaBoundCurve(ks, bounds, vols.reshape(bounds.shape), implied_cdfs(f, nus, ks))
