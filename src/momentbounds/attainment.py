"""Attainment checks for the vanilla bound.

Local attainment: for each strike there is a two-state model, calibrated to
the price and root-variance, whose call price meets the bound exactly.  The
calibration is trigonometric: with nu = cos(theta)^2, the state weights are
sin(chi)^2 and cos(chi)^2 and the spectrum follows from theta and chi; the
bound-attaining angle solves tan(2 chi) = -f sin(2 theta) / (f cos(2 theta) + k)
and depends on the strike.  The calibration (``binomial_calibrate``) and the
two-state call price (``binomial_call_prices``) are array forms, so a whole
strike grid is one expression.

Global attainment fails: replicating the payoff a^(1/2) statically from the
bound curve yields a square-root moment whose implied root-variance strictly
exceeds the constraint everywhere inside (0, 1), so no single measure
matching the constraint can generate the bound at all strikes.  The
replication integral has the closed form E(1 - nu) - nu K(1 - nu) in complete
elliptic integrals, evaluated by Gauss's arithmetic-geometric mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _checked_grid, _frozen_array, _reject_first_bad, _rule
from .errors import AngleOutOfRange, BranchResolutionFailure, NonFiniteResult, ParameterOutOfRange
from .vanilla import vanilla_bounds

__all__ = [
    "ATTAIN_TOL",
    "AttainmentReport",
    "GlobalAttainmentCurve",
    "binomial_calibrate",
    "binomial_call_prices",
    "local_attainment_scan",
    "implied_root_variance_curve",
]

# Largest relative gap between a two-state model's price and the bound it
# attains.
ATTAIN_TOL = 1e-9
_ANGLE_SLACK = 1e-12
_EPS = float(np.finfo(float).eps)


def _theta(nu: float) -> float:
    if not 0.0 < nu < 1.0:
        raise ParameterOutOfRange(
            f"binomial attainment needs root-variance strictly inside (0, 1), got {nu}"
        )
    return math.acos(math.sqrt(nu))


def binomial_calibrate(f: float, nu: float, chi):
    """Two-state models matching price f and root-variance nu, one per weight
    angle in ``chi``: the arrays ``(low, high)`` of their states, which carry
    the weights sin(chi)^2 and cos(chi)^2.

    Uses the branch with low state below the high state, valid for chi in
    [pi/2 - theta, pi/2) where nu = cos(theta)^2.  The mirror branch is this
    one with the states swapped under chi -> pi/2 - chi.  An angle off the
    branch raises AngleOutOfRange.
    """
    if not f > 0.0:
        raise ParameterOutOfRange(f"price must be positive, got {f}")
    theta = _theta(nu)
    chi = np.asarray(chi, dtype=float)
    on_branch = (chi >= 0.5 * math.pi - theta - _ANGLE_SLACK) & (chi > 0.0) & (chi < 0.5 * math.pi)
    _reject_first_bad((on_branch, lambda angle: AngleOutOfRange(
        f"angle {angle} outside the branch range [{0.5 * math.pi - theta}, pi/2)"), chi))
    # np.square, not ** 2: a numpy scalar's power goes to libm, which may
    # round differently from the multiplication arrays get.
    low = f * np.square(np.cos(theta + chi)) / np.square(np.sin(chi))
    high = f * np.square(np.sin(theta + chi)) / np.square(np.cos(chi))
    return low, high


def binomial_call_prices(chi, low, high, k) -> np.ndarray:
    """Call prices of two-state models with weight angles ``chi`` and states
    ``low``, ``high`` at strikes ``k``, all broadcast together."""
    weight_low, weight_high = np.square(np.sin(chi)), np.square(np.cos(chi))
    return weight_low * np.maximum(low - k, 0.0) + weight_high * np.maximum(high - k, 0.0)


def _attaining_models(f: float, nu: float, strikes: np.ndarray):
    """Formula angles, the states of their two-state models and the models'
    call prices, as arrays over the strike grid.

    The tangent equation fixes 2 chi up to the arctangent branch; resolving
    into (pi - 2 theta, pi) picks the branch on which the calibrated model
    exists.  Every two-state model matching f and nu prices at or below the
    bound, so a wrongly resolved angle shows as a gap, which
    ``AttainmentReport`` rejects.
    """
    theta = _theta(nu)
    # The angle is scale-free: in units of the power of two of max(f, k), as
    # in ``vanilla_bounds``, f cos(2 theta) + k cannot overflow.
    e = np.frexp(np.maximum(f, strikes))[1]
    g, k = np.ldexp(f, -e), np.ldexp(strikes, -e)
    two_chi = np.arctan2(-g * math.sin(2.0 * theta), g * math.cos(2.0 * theta) + k)
    chi = 0.5 * np.where(two_chi <= 0.0, two_chi + math.pi, two_chi)
    # Near the float maximum a state can lie above the float range.
    with np.errstate(over="ignore"):
        low, high = binomial_calibrate(f, nu, chi)
    _reject_first_bad((np.isfinite(low) & np.isfinite(high), lambda k: NonFiniteResult(
        f"two-state model state above the float range at strike {k}"), strikes))
    return chi, low, high, binomial_call_prices(chi, low, high, strikes)


@dataclass(frozen=True)
class AttainmentReport:
    """Per-strike local attainment against the closed-form bound.

    ``gaps`` holds |binomial price - bound| relative to the bound; the
    constructor raises BranchResolutionFailure for the first strike whose gap
    exceeds ``ATTAIN_TOL``, so constructing the report is the attainment
    check, and it catches a formula angle resolved onto the wrong branch.
    The global section records the moment implied by the whole bound curve
    and its root-variance, which strictly exceeds ``constraint_nu`` away from
    the edges.
    """

    strikes: np.ndarray
    angles: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    binomial_prices: np.ndarray
    bounds: np.ndarray
    gaps: np.ndarray
    constraint_nu: float
    implied_sqrt_moment: float
    implied_nu: float

    def __post_init__(self):
        for name in ("strikes", "angles", "lows", "highs", "binomial_prices", "bounds", "gaps"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        _reject_first_bad((~(self.gaps > ATTAIN_TOL), lambda gap, k: BranchResolutionFailure(
            f"attainment gap {gap:.3e} at strike {k} exceeds {ATTAIN_TOL}"), self.gaps, self.strikes))

    @property
    def max_gap(self) -> float:
        return float(np.max(self.gaps))


def local_attainment_scan(f: float, nu: float, strikes) -> AttainmentReport:
    """Verify the closed-form bound is attained strike by strike by optimal
    two-state models."""
    ks = _checked_grid(strikes, increasing=False)
    angles, lows, highs, prices = _attaining_models(f, nu, ks)
    bounds = vanilla_bounds(f, nu, ks)
    gaps = np.abs(prices - bounds) / np.maximum(np.abs(bounds), 1e-300)
    moment = _sqrt_moment(nu)
    return AttainmentReport(
        strikes=ks,
        angles=angles,
        lows=lows,
        highs=highs,
        binomial_prices=prices,
        bounds=bounds,
        gaps=gaps,
        constraint_nu=nu,
        implied_sqrt_moment=moment,
        implied_nu=1.0 - moment * moment,
    )


@dataclass(frozen=True)
class GlobalAttainmentCurve:
    """Implied square-root moments and root-variances over a constraint grid."""

    constraint_nu: np.ndarray
    sqrt_moment: np.ndarray
    implied_nu: np.ndarray

    def __post_init__(self):
        for name in ("constraint_nu", "sqrt_moment", "implied_nu"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    @property
    def margins(self) -> np.ndarray:
        """implied - constraint; strictly positive away from the endpoints."""
        return self.implied_nu - self.constraint_nu


def _sqrt_moment(nu: float) -> float:
    """E(1 - nu) - nu K(1 - nu) for one nu in [0, 1], by the arithmetic-
    geometric mean of 1 and sqrt(nu) (see ``implied_root_variance_curve``)."""
    if nu == 0.0:
        return 1.0
    a, b = 1.0, math.sqrt(nu)
    total, weight = 0.5 * (1.0 - nu), 1.0
    while True:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        total -= weight * c * c
        weight *= 2.0
        if not c > _EPS * a:
            return 0.5 * math.pi / a * total


def implied_root_variance_curve(nus) -> GlobalAttainmentCurve:
    """E[sqrt(a)] / sqrt(f) implied by the bound curve via static
    replication, and its root-variance 1 - (E[sqrt(a)] / sqrt(f))^2, over a
    grid of constraint values nu.

    The strike integral over the bound curve collapses, after substitutions,
    to 1 - (1/2) * integral of the rationalised excess over x in [0, 1].
    With the radicand Q = x^4 - 2 c x^2 + 1, c = 1 - 2 nu, integration by
    parts gives 2 - 2 sqrt(nu) + 2 * integral of (x^2 - c) / sqrt(Q), and
    with the integrals of 1 / sqrt(Q) = K/2 and x^2 / sqrt(Q) = K/2 - E +
    sqrt(nu), the complete elliptic integrals at m = 1 - nu, the excess
    integral is 2 (1 - E + nu K): the moment is E(m) - nu K(m).
    Gauss's arithmetic-geometric mean of 1 and sqrt(nu) gives
    K = pi / (2 a_inf) and E - nu K = K (m/2 - sum_{n>=1} 2^(n-1) c_n^2)
    (Abramowitz & Stegun 17.6), a form that does not cancel as nu -> 1.  The
    recurrence is one scalar function of nu, in floats, mapped over the grid;
    it stops once c_n <= eps a_n, so every nu gets the bits it gets alone.
    nu = 0 is a point mass with moment 1.  A nu outside [0, 1] raises
    ParameterOutOfRange.
    """
    grid = _checked_grid(nus, "root-variances", positive=False, increasing=False)
    _reject_first_bad(((grid >= 0.0) & (grid <= 1.0), _rule("root-variance must lie in [0, 1]"), grid))
    moments = np.fromiter(map(_sqrt_moment, grid.tolist()), float, grid.size)
    return GlobalAttainmentCurve(grid, moments, 1.0 - moments * moments)
