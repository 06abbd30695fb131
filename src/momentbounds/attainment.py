"""Attainment checks for the vanilla bound.

Local attainment: for each strike there is a two-state model, calibrated to
the price and root-variance, whose call price meets the bound exactly.  The
calibration is trigonometric: with nu = cos(theta)^2, the state weights are
sin(chi)^2 and cos(chi)^2 and the spectrum follows from theta and chi; the
bound-attaining angle solves tan(2 chi) = -f sin(2 theta) / (f cos(2 theta) + k)
and depends on the strike.  The calibration (``binomial_calibrate``) and the
two-state call price (``binomial_call_prices``) are array forms, so a whole
strike grid, and the angle grid that guards it, are each one expression.

Global attainment fails: replicating the payoff a^n statically from the
bound curve yields moments whose implied root-variance strictly exceeds the
constraint everywhere inside (0, 1), so no single measure matching the
constraint can generate the bound at all strikes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import DEFAULT_TOLERANCES, STACK_BYTES, Tolerances, _checked_grid, _frozen_array
from .errors import (
    AngleOutOfRange,
    BranchResolutionFailure,
    ParameterOutOfRange,
    QuadratureBudgetExceeded,
)
from .models import _gl_rule
from .partition import _panel_sums
from .vanilla import vanilla_bounds_via_engine

__all__ = [
    "AttainmentReport",
    "GlobalAttainmentCurve",
    "binomial_calibrate",
    "binomial_call_prices",
    "local_attainment_scan",
    "implied_root_variance_curve",
]

_ANGLE_SLACK = 1e-12
_SCAN_POINTS = 241


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
    one with the states swapped under chi -> pi/2 - chi.  The first angle
    off the branch, in grid order, raises AngleOutOfRange.
    """
    if not f > 0.0:
        raise ParameterOutOfRange(f"price must be positive, got {f}")
    theta = _theta(nu)
    chi = np.asarray(chi, dtype=float)
    on_branch = (chi >= 0.5 * math.pi - theta - _ANGLE_SLACK) & (chi > 0.0) & (chi < 0.5 * math.pi)
    if not on_branch.all():
        raise AngleOutOfRange(
            f"angle {chi.flat[np.argmin(on_branch)]} outside the branch range "
            f"[{0.5 * math.pi - theta}, pi/2)"
        )
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


def _scanned_maxima(f: float, nu: float, strikes: np.ndarray) -> np.ndarray:
    """Largest two-state call price over an angle grid on the branch
    [pi/2 - theta, pi/2), at each strike.

    The grid's models depend only on f and nu, so they are calibrated once
    for all strikes and priced as (strikes x angles) blocks of at most
    ``STACK_BYTES``.
    """
    chi = np.linspace(0.5 * math.pi - _theta(nu), 0.5 * math.pi, _SCAN_POINTS)[:-1]
    low, high = binomial_calibrate(f, nu, chi)
    best, step = np.empty(strikes.size), max(1, STACK_BYTES // chi.nbytes)
    for start in range(0, strikes.size, step):
        k = strikes[start : start + step, None]
        best[start : start + step] = np.max(binomial_call_prices(chi, low, high, k), axis=1)
    return best


def _attaining_models(f: float, nu: float, strikes: np.ndarray):
    """Formula angles, the states of their two-state models and the models'
    call prices, as arrays over the strike grid.

    The tangent equation fixes 2 chi up to the arctangent branch; resolving
    into (pi - 2 theta, pi) picks the branch on which the calibrated model
    exists.  One angle-grid scan guards every strike: the first strike whose
    model prices below the scan's maximum raises BranchResolutionFailure.
    """
    theta = _theta(nu)
    best = _scanned_maxima(f, nu, strikes)
    two_chi = np.arctan2(-f * math.sin(2.0 * theta), f * math.cos(2.0 * theta) + strikes)
    chi = 0.5 * np.where(two_chi <= 0.0, two_chi + math.pi, two_chi)
    low, high = binomial_calibrate(f, nu, chi)
    achieved = binomial_call_prices(chi, low, high, strikes)
    short = np.flatnonzero(achieved < best - 1e-9 * max(1.0, f))
    if short.size:
        i = short[0]
        raise BranchResolutionFailure(
            f"formula angle {chi[i]} prices {achieved[i]}, below scanned maximum {best[i]}"
        )
    return chi, low, high, achieved


@dataclass(frozen=True)
class AttainmentReport:
    """Per-strike local attainment against the closed-form bound.

    ``gaps`` holds |binomial price - bound| relative to the bound; the
    constructor rejects any gap above ``attain_tol``, so constructing the
    report is the attainment check.  The global section records the moment
    implied by the whole bound curve and its root-variance, which strictly
    exceeds ``constraint_nu`` away from the edges.
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
    attain_tol: float

    def __post_init__(self):
        for name in ("strikes", "angles", "lows", "highs", "binomial_prices", "bounds", "gaps"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        if np.any(self.gaps > self.attain_tol):
            worst = int(np.argmax(self.gaps))
            raise BranchResolutionFailure(
                f"attainment gap {self.gaps[worst]:.3e} at strike {self.strikes[worst]} "
                f"exceeds {self.attain_tol}"
            )

    @property
    def max_gap(self) -> float:
        return float(np.max(self.gaps))


def local_attainment_scan(
    f: float,
    nu: float,
    strikes,
    *,
    attain_tol: float = 1e-9,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> AttainmentReport:
    """Verify the bound is attained strike by strike by optimal two-state models."""
    ks = _checked_grid(strikes, increasing=False)
    angles, lows, highs, prices = _attaining_models(f, nu, ks)
    bounds = vanilla_bounds_via_engine(f, nu, ks, tol)
    gaps = np.abs(prices - bounds) / np.maximum(np.abs(bounds), 1e-300)
    moment = float(implied_root_variance_curve([nu]).sqrt_moment[0])
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
        attain_tol=attain_tol,
    )


def _bound_excess(x: np.ndarray, nu: float) -> np.ndarray:
    """(sqrt((1-x^2)^2 + 4 x^2 nu) - (1 - x^2)) / x^2, cancellation-free.

    Rationalising gives 4 nu / (sqrt((1-x^2)^2 + 4 x^2 nu) + (1 - x^2)),
    smooth on [0, 1] with value 2 nu at x = 0 and 2 sqrt(nu) at x = 1.
    """
    one_minus = 1.0 - x * x
    return 4.0 * nu / (np.sqrt(one_minus * one_minus + 4.0 * x * x * nu) + one_minus)


def _refine(evaluate, rows: int, start_nodes: int, target: float, node_budget: int) -> np.ndarray:
    """Double quadrature nodes until two successive values of each row agree
    to target; ``evaluate(active, nodes)`` gives the values of rows ``active``.
    A row leaves once it converges, so each takes the steps it would alone."""
    active, nodes = np.arange(rows), start_nodes
    value, result = evaluate(active, nodes), np.empty(rows)
    while active.size:
        if 2 * nodes > node_budget:
            raise QuadratureBudgetExceeded(
                f"no convergence to {target} within {node_budget} nodes"
            )
        nodes *= 2
        refined = evaluate(active, nodes)
        done = np.abs(refined - value) <= target
        result[active[done]] = refined[done]
        active, value = active[~done], refined[~done]
    return result


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


def implied_root_variance_curve(
    nus, *, target_error: float = 1e-10, node_budget: int = 1 << 16
) -> GlobalAttainmentCurve:
    """E[sqrt(a)] / sqrt(f) implied by the bound curve via static
    replication, and its root-variance 1 - (E[sqrt(a)] / sqrt(f))^2, over a
    grid of constraint values nu.

    The strike integral over the bound curve collapses, after substitutions,
    to 1 - (1/2) * integral of the rationalised excess over x in [0, 1].
    The panel is split where the square root's curvature peaks, at
    x = sqrt(1 - 2 nu) for nu < 1/2, and nodes double until two successive
    values agree to ``target_error``.  The refinement runs on the whole grid
    at once: each node count evaluates the panels of every unconverged nu as
    (panels x nodes) blocks of at most ``STACK_BYTES``.  The first nu outside
    [0, 1] in grid order raises.
    """
    grid = np.asarray(nus, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ParameterOutOfRange("need a 1-d grid of root-variances")
    valid = (grid >= 0.0) & (grid <= 1.0)
    stop = grid.size if valid.all() else int(np.argmin(valid))
    # nu = 0 is a point mass, moment 1; a bad nu raises after the ones before it.
    rows = np.flatnonzero(grid[:stop] != 0.0)
    split = grid[rows] < 0.5
    edge = np.ones(rows.size)
    edge[split] = np.sqrt(1.0 - 2.0 * grid[rows[split]])

    def evaluate(active: np.ndarray, nodes: int) -> np.ndarray:
        # Panels [0, edge] of every row, then [edge, 1] of the split rows.
        x, w = _gl_rule(nodes)
        second = active[split[active]]
        lo = np.concatenate([np.zeros(active.size), edge[second]])
        hi = np.concatenate([edge[active], np.ones(second.size)])
        nu = grid[rows[np.concatenate([active, second])]]
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        sums, step = np.empty(lo.size), max(1, STACK_BYTES // x.nbytes)
        for start in range(0, lo.size, step):
            block = slice(start, start + step)
            excess = _bound_excess(mid[block, None] + half[block, None] * x, nu[block, None])
            sums[block] = half[block] * _panel_sums(excess, w)
        totals = sums[: active.size]
        totals[split[active]] += sums[active.size :]
        return totals

    moments = np.ones(stop)
    moments[rows] = 1.0 - 0.5 * _refine(evaluate, rows.size, 64, target_error, node_budget)
    if stop < grid.size:
        raise ParameterOutOfRange(f"root-variance must lie in [0, 1], got {float(grid[stop])}")
    return GlobalAttainmentCurve(grid, moments, 1.0 - moments * moments)


def _general_moment(
    nu: float,
    n: float,
    *,
    target_error: float = 1e-10,
    node_budget: int = 1 << 16,
) -> float:
    """E[a^n] / f^n implied by the bound curve, for 0 < n < 1.

    The integrand carries integrable x^(2n-1) and x^(1-2n) factors, so each
    term is integrated in log coordinates, x = exp(-u), where it becomes an
    analytic, exponentially decaying function of u.  The expression is
    symmetric under n -> 1 - n by construction, and n = 1/2 reproduces the
    square-root moment through an independent quadrature route.
    """
    if not 0.0 <= nu <= 1.0:
        raise ParameterOutOfRange(f"root-variance must lie in [0, 1], got {nu}")
    if not 0.0 < n < 1.0:
        raise ParameterOutOfRange(f"moment order must lie in (0, 1), got {n}")
    if nu == 0.0:
        return 1.0

    def tail_integral(s: float, nodes_per_panel: int) -> float:
        # integral over (0, 1] of x^s * excess(x) dx with x = exp(-u).
        decay = s + 1.0
        u_max = 41.0 / decay
        panels = max(8, int(math.ceil(u_max / (2.0 / decay))))
        edges = np.linspace(0.0, u_max, panels + 1)
        x, w = _gl_rule(nodes_per_panel)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            u = mid + half * x
            total += half * float(np.dot(w, np.exp(-decay * u) * _bound_excess(np.exp(-u), nu)))
        return total

    def evaluate(_, nodes: int) -> np.ndarray:  # the one row of ``_refine``
        return np.array([tail_integral(2.0 * n - 1.0, nodes) + tail_integral(1.0 - 2.0 * n, nodes)])

    integral = float(_refine(evaluate, 1, 24, target_error, node_budget)[0])
    return 1.0 + n * (n - 1.0) * integral
