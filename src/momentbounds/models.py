"""Reference models used as oracles: lognormal (Black) and normal
(Bachelier) call prices, lognormal partial moments, implied lognormal/normal
volatility inversion, and the Gauss-Legendre rule that serves the
hat-partition quadrature.

Each formula has one array form that broadcasts its arguments
(``bs_call_prices``, ``bachelier_call_prices``); a single strike is a
one-element grid.  The vol inversions run one safeguarded Halley iteration
(third order) over a whole strike grid (``implied_lognormal_vols``,
``implied_normal_vols``) and check their residuals with those pricers,
against ``PRICE_TOL`` times the larger of 1 and the price scale, since a
price's roundoff grows with its size; each element takes the same steps as
in a one-strike inversion.  The Bachelier inversion starts from a
cubic-Hermite inverse of the normalised time value, one table built on the
first call and cached, within 1e-7 of each root, so one Halley step usually
finishes an element.
The normal CDF is ``math.erfc``, so importing the module loads no scipy.

All prices are undiscounted forward values.  Discounting enters only through
the rates application, via explicit discount factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import _checked_grid, _reject_first_bad, _rule
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    ParameterOutOfRange,
    PriceOutsideArbitrageBounds,
)

__all__ = [
    "LognormalModel",
    "norm_cdf",
    "norm_pdf",
    "bs_call_prices",
    "bachelier_call_prices",
    "implied_lognormal_vols",
    "implied_normal_vols",
    "lognormal_partial_moments",
]

# Bracket for the lognormal implied vol.  Desk-scale prices never need vols
# above 10; anything outside is reported as a convergence failure rather than
# silently extrapolated.
_VOL_BRACKET = (1e-8, 10.0)
_ITERATIONS = 90
_LOG_RESIDUAL_FLOOR = 1e-9  # below it, roundoff drives the steps
_CONVERGED_STEP = 1e-6  # a Halley step this small leaves a correction below roundoff
# Largest price residual accepted at an inverted vol, in units of the larger
# of 1 and the price scale: the forward (Black), or |f| and |k| (Bachelier).
PRICE_TOL = 1e-10

# Prices this close to the forward are treated as the upper arbitrage bound,
# where the implied lognormal volatility diverges.
UPPER_BOUND_MARGIN = 1e-14

_SQRT_HALF = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(x):
    """Standard normal CDF, ``0.5 * math.erfc(-x * sqrt(0.5))``.

    Single shared primitive for all lognormal math.  ``erfc`` keeps relative
    accuracy far into the lower tail: within eps (8 + x^2) of the exact value
    on [-37.5, 9].  A float gives a float; arrays are mapped element by
    element.
    """
    if isinstance(x, float):
        return 0.5 * math.erfc(-x * _SQRT_HALF)
    return 0.5 * _mapped(math.erfc, np.multiply(x, -_SQRT_HALF, dtype=float))


def norm_pdf(x):
    """Standard normal density."""
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class LognormalModel:
    """Driftless lognormal forward model (undiscounted Black dynamics).

    Attributes:
        forward: forward price, > 0.
        sigma: lognormal volatility per sqrt(year), >= 0.
        expiry: time to expiry in years, > 0.
    """

    forward: float
    sigma: float
    expiry: float

    def __post_init__(self):
        if not self.forward > 0.0:
            raise ParameterOutOfRange(f"forward must be positive, got {self.forward}")
        if self.sigma < 0.0:
            raise ParameterOutOfRange(f"sigma must be non-negative, got {self.sigma}")
        if not self.expiry > 0.0:
            raise ParameterOutOfRange(f"expiry must be positive, got {self.expiry}")

    @property
    def total_variance(self) -> float:
        return self.sigma * self.sigma * self.expiry

    @property
    def root_variance(self) -> float:
        """Normalised variance of the square-root of the terminal asset.

        For a lognormal asset, E[sqrt(a)]^2 / E[a] = exp(-sigma^2 T / 4), so
        the root-variance is 1 - exp(-sigma^2 T / 4).
        """
        return -math.expm1(-0.25 * self.total_variance)

    def moment(self, p: float) -> float:
        """E[a^p] = f^p exp(p (p - 1) sigma^2 T / 2)."""
        return self.forward**p * math.exp(0.5 * p * (p - 1.0) * self.total_variance)


def _mapped(fn, x):
    """``fn`` applied to each element of the array ``x``, in its shape."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _log(x: float) -> float:
    """``math.log``, with log(0) = -inf: a ratio that underflows to zero."""
    return -math.inf if x == 0.0 else math.log(x)


def bs_call_prices(forward, strikes, sigma, expiry) -> np.ndarray:
    """Undiscounted Black call prices E[(a - k)^+], elementwise over arrays of
    forward, strike, lognormal vol and expiry, broadcast together.

    log(f / k) is ``_log`` per element: numpy's vectorised log differs from
    ``math.log`` by an ulp on rare inputs.  Zero vol gives the intrinsic
    value, and so does an f / k that overflows or underflows.
    """
    f, k, sigma, expiry = (np.asarray(x, dtype=float) for x in (forward, strikes, sigma, expiry))
    _reject_first_bad(
        (f > 0.0, _rule("forward must be positive"), f),
        (sigma >= 0.0, _rule("sigma must be non-negative"), sigma),
        (expiry > 0.0, _rule("expiry must be positive"), expiry),
        (k > 0.0, _rule("strike must be positive"), k),
    )
    stdev = sigma * np.sqrt(expiry)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_moneyness = _mapped(_log, f / k)
        d1 = (log_moneyness + 0.5 * stdev * stdev) / stdev
        prices = f * norm_cdf(d1) - k * norm_cdf(d1 - stdev)
    return np.where(stdev == 0.0, np.maximum(f - k, 0.0), prices)


def bachelier_call_prices(forward, strikes, sigma, expiry) -> np.ndarray:
    """Undiscounted Bachelier (normal) call prices, elementwise over arrays of
    forward, strike, normal vol and expiry, broadcast together; supports
    negative rates and strikes.  Zero vol gives the intrinsic value."""
    f, k, sigma, expiry = (np.asarray(x, dtype=float) for x in (forward, strikes, sigma, expiry))
    _reject_first_bad(
        (sigma >= 0.0, _rule("normal vol must be non-negative"), sigma),
        (expiry >= 0.0, _rule("expiry must be non-negative"), expiry),
    )
    stdev = sigma * np.sqrt(expiry)
    moneyness = f - k
    with np.errstate(divide="ignore", invalid="ignore"):
        d = moneyness / stdev
        prices = moneyness * norm_cdf(d) + stdev * norm_pdf(d)
    return np.where(stdev == 0.0, np.maximum(moneyness, 0.0), prices)


def _as_grid(strikes, prices):
    ks = np.asarray(strikes, dtype=float)
    ps = np.asarray(prices, dtype=float)
    if ks.ndim != 1 or ks.shape != ps.shape:
        raise DimensionMismatch(
            f"need matching 1-d strike and price grids, got {ks.shape} and {ps.shape}"
        )
    return ks, ps


def _halley(time_value, s, lo, hi, q):
    """Solve ``time_value(s) = q`` elementwise, by Halley's method on the log
    residual ``g = log(time_value(s) / q)`` safeguarded by the bracket
    ``[lo, hi]``.

    ``time_value(s, i)`` gives the time values ``V`` of the elements ``i`` at
    ``s`` and their first two derivatives ``V'`` and ``V''`` in ``s``.  The
    third-order step is ``s - 2 g g' / (2 g'^2 - g g'')``, with ``g' = V' / V``
    and ``g'' = V'' / V - g'^2``.  Each evaluation narrows its element's
    bracket; a step that lands outside it, or whose denominator is not
    positive and finite, is replaced by bisection.  An element stops once its
    step is at most 4 eps s; once an accepted Halley step is at most
    ``_CONVERGED_STEP`` s, as the next correction, about the cube of that
    one, would be below roundoff; or once its step stops shrinking while the
    log residual is below ``_LOG_RESIDUAL_FLOOR``.  Elements run
    independently, for at most ``_ITERATIONS`` steps.
    """
    s, lo, hi = s.copy(), lo.copy(), hi.copy()
    last = np.full(s.size, math.inf)
    i = np.arange(s.size)
    for _ in range(_ITERATIONS):
        if not i.size:
            break
        at = s[i]
        # Underflowed time values and derivatives give infinite or NaN
        # residuals, denominators and steps, which turn into bisection.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            value, slope, curvature = time_value(at, i)
            residual = np.where(value > 0.0, np.log(value / q[i]), -math.inf)
            g1 = slope / value
            denominator = 2.0 * g1 * g1 - residual * (curvature / value - g1 * g1)
            halley = at - 2.0 * residual * g1 / denominator
        lo[i] = below = np.where(residual < 0.0, at, lo[i])
        hi[i] = above = np.where(residual > 0.0, at, hi[i])
        ok = (denominator > 0.0) & (denominator < math.inf) & (halley >= below) & (halley <= above)
        s[i] = np.where(ok, halley, 0.5 * (below + above))
        step = np.abs(s[i] - at)
        done = (step <= 4.0 * np.finfo(float).eps * at) | (ok & (step <= _CONVERGED_STEP * at))
        done |= (step >= last[i]) & (np.abs(residual) < _LOG_RESIDUAL_FLOOR)
        last[i] = step
        i = i[~done]
    return s


def implied_lognormal_vols(forward: float, strikes, expiry: float, prices) -> np.ndarray:
    """Invert the Black call formula on a strike grid, by Halley's method
    within the bracket ``_VOL_BRACKET``.  It starts from the larger of the
    Manaster-Koehler point ``sqrt(2 |log(f / k)|)`` and the first-order
    at-the-money estimate ``sqrt(2 pi) q / f`` of ``s = sigma sqrt(T)``,
    where ``q`` is the out-of-the-money time value.

    Returns ``math.inf`` where the price sits at the upper arbitrage bound
    (within ``UPPER_BOUND_MARGIN`` of the forward), where the implied
    volatility diverges.  Each element takes the same steps, in the same
    floating-point operations, as a one-strike inversion.

    Raises:
        ParameterOutOfRange: non-positive forward, strike or expiry.
        PriceOutsideArbitrageBounds: price not finite or outside [(f-k)^+, f].
        ConvergenceFailure: no vol in the bracket reproduces the price within
            ``PRICE_TOL max(1, f)``.
    """
    if not forward > 0.0 or not expiry > 0.0:
        raise ParameterOutOfRange(f"forward and expiry must be positive, got {forward}, {expiry}")
    ks, ps = _as_grid(strikes, prices)
    intrinsic = np.maximum(forward - ks, 0.0)
    slack = 1e-12 * max(1.0, forward)
    positive = ks > 0.0
    inside = (ps >= intrinsic - slack) & (ps <= forward + slack)
    at_upper = ps >= forward - UPPER_BOUND_MARGIN
    vols = np.where(at_upper, math.inf, 0.0)
    # Deep in the money the time value collapses below representable
    # resolution; zero vol reproduces such prices within PRICE_TOL.
    solve = np.flatnonzero(positive & inside & ~at_upper & ~(ps <= intrinsic + slack))
    k, p = ks[solve], ps[solve]
    root_expiry = math.sqrt(expiry)
    lo, hi = _VOL_BRACKET
    x = _mapped(_log, forward / k)  # log(f / k), mapped as in ``bs_call_prices``
    # The out-of-the-money option (the put below the forward) has time value
    # q by put-call parity, and keeps its digits away from the money.
    q = p - np.maximum(forward - k, 0.0)
    sign = np.where(x > 0.0, -1.0, 1.0)

    def time_value(s, i):
        d1 = x[i] / s + 0.5 * s
        d2 = d1 - s
        cdf = norm_cdf(sign[i] * np.stack([d1, d2]))
        vega = forward * norm_pdf(d1)
        return sign[i] * (forward * cdf[0] - k[i] * cdf[1]), vega, vega * d1 * d2 / s

    # Manaster-Koehler: the price is convex in s below sqrt(2 |x|) and concave
    # above it.  Near the money, where sqrt(2 |x|) falls towards zero, the
    # first-order ATM estimate sqrt(2 pi) q / f: it also covers a strike that
    # is a rounding away from the forward.
    start = np.maximum(np.sqrt(2.0 * np.abs(x)), _SQRT_2PI * q / forward)
    lo_s, hi_s = np.full(k.size, lo * root_expiry), np.full(k.size, hi * root_expiry)
    # A price above the bracket's top has no root: Halley's safeguard pins
    # it at the top, and the residual check reports it.
    s = _halley(time_value, np.clip(start, lo_s, hi_s), lo_s, hi_s, q)
    vols[solve] = s / root_expiry
    converged = np.ones(ks.shape, dtype=bool)
    converged[solve] = ~(np.abs(bs_call_prices(forward, k, vols[solve], expiry) - p) > PRICE_TOL * max(1.0, forward))
    _reject_first_bad(
        (positive, _rule("strike must be positive"), ks),
        (inside, lambda p, lo, k: PriceOutsideArbitrageBounds(f"price {p} outside [{lo}, {forward}] for strike {k}"),
         ps, intrinsic, ks),
        (converged, lambda p, k, v: ConvergenceFailure(
            f"implied lognormal vol above bracket {hi} for price {p} at strike {k}"
            if bs_call_prices(forward, k, hi, expiry) < p
            else f"price residual exceeds tolerance at sigma={v} for strike {k}"
        ), ps, ks, vols),
    )
    return vols


@lru_cache(maxsize=None)
def _normal_start_table():
    """Nodes of the inverse of ``u(d) = log d - log phi~(d)``, cached and
    read-only: ``u``, ``d`` and ``dd/du`` at 200 geometric nodes of ``d`` on
    [1e-3, 7], where ``phi~(d) = phi(d) - d N(-d)`` is the normalised
    out-of-the-money Bachelier time value.  ``u`` increases with ``d``, and
    ``phi~'(d) = -N(-d)`` gives ``du/dd = 1 / d + N(-d) / phi~(d)``.  The
    table ends above every solved strike: ``implied_normal_vols`` solves
    only ``q > 1e-12 max(1, |f|, |k|) >= 5e-13 |f - k|``, so ``u < log 2e12``
    and ``d < 6.6``.
    """
    d = 1e-3 * 7e3 ** (np.arange(200) / 199.0)
    tail = norm_cdf(-d)
    excess = norm_pdf(d) - d * tail
    u = np.log(d) - np.log(excess)
    slope = 1.0 / (1.0 / d + tail / excess)
    for nodes in (u, d, slope):
        nodes.setflags(write=False)
    return u, d, slope


def _normal_start(a, q):
    """Start of the Bachelier inversion in ``s = sigma sqrt(T)``, from the
    distances ``a = |f - k| > 0`` and out-of-the-money time values ``q > 0``.

    With ``d = a / s`` the price satisfies ``q / a = phi~(d) / d``, so ``d``
    is the inverse of ``u = log a - log q`` for every strike, forward and
    expiry; the start ``a / d(u)`` interpolates it by cubic Hermite between
    the nodes of ``_normal_start_table``, within 1e-7 relative of ``d``.
    Below the table (``d < 1e-3``) it is the at-the-money expansion
    ``sqrt(2 pi) (q + a / 2)``; above it, which no solved strike reaches,
    ``d`` is held at the last node, a start inside Halley's bracket.
    """
    nodes, ds, slopes = _normal_start_table()
    u = np.log(a) - np.log(q)
    inside = np.minimum(np.maximum(u, nodes[0]), nodes[-1])
    # ``inside`` lies in [u_j, u_j+1] for j the count of inner nodes below it.
    j = nodes[1:-1].searchsorted(inside)
    h = nodes[j + 1] - nodes[j]
    t = (inside - nodes[j]) / h
    # The cubic Hermite basis: d_j and d_j+1 weighted by (1 - t)^2 (1 + 2 t)
    # and t^2 (3 - 2 t), the slopes times h by t (1 - t)^2 and -t^2 (1 - t).
    r = 1.0 - t
    d = r * r * ((1.0 + 2.0 * t) * ds[j] + t * h * slopes[j])
    d += t * t * ((3.0 - 2.0 * t) * ds[j + 1] - r * h * slopes[j + 1])
    return np.where(u < nodes[0], _SQRT_2PI * (q + 0.5 * a), a / d)


def implied_normal_vols(forward, strikes, expiry: float, prices) -> np.ndarray:
    """Invert the Bachelier call formula on a strike grid; supports negative
    forwards and strikes.  ``forward`` is a number or one forward per strike,
    so several curves invert in one call.

    Prices within 1e-12 (relative to the larger of 1, |f| and |k|) of
    intrinsic give zero vol, and at-the-money prices invert exactly.
    The rest run Halley's method within a closed-form bracket.  Each starts
    from ``_normal_start``: ``d = |f - k| / s`` is one function of ``log |f -
    k| - log q`` for every strike, forward and expiry, and a cached cubic-
    Hermite table of it starts within 1e-7 of the root, so Halley takes one
    evaluation on the shipped caplet grids.  Each element takes the same
    steps, in the same floating-point operations, as a one-strike inversion.

    Raises:
        PriceOutsideArbitrageBounds: price not finite or below intrinsic.
        ConvergenceFailure: the vol cannot be solved to ``PRICE_TOL max(1,
            |f|, |k|)``.
    """
    if not expiry > 0.0:
        raise ParameterOutOfRange(f"expiry must be positive, got {expiry}")
    ks, ps = _as_grid(strikes, prices)
    forward = np.asarray(forward, dtype=float)
    if forward.ndim and forward.shape != ks.shape:
        raise DimensionMismatch(f"need one forward or one per strike, got {forward.shape}")
    moneyness = forward - ks
    intrinsic = np.maximum(moneyness, 0.0)
    scale = np.maximum(np.maximum(1.0, np.abs(forward)), np.abs(ks))
    nonfinite = ~np.isfinite(ps)
    below = ps < intrinsic - 1e-12 * scale
    # Prices within the same slack above intrinsic carry no resolvable time
    # value: zero vol reproduces them within PRICE_TOL, where an inversion
    # would turn the sign of a roundoff into a vol.
    at_intrinsic = ~(nonfinite | below) & (ps <= intrinsic + 1e-12 * scale)
    # ATM Bachelier identity: price = sigma sqrt(T / 2 pi), inverted exactly.
    atm = ~(nonfinite | below | at_intrinsic) & (ks == forward)
    # Only the at-the-money prices are scaled: an off-the-money price near
    # the float maximum would overflow.
    vols = np.zeros(ps.shape)
    vols[atm] = ps[atm] * math.sqrt(2.0 * math.pi / expiry)

    solve = np.flatnonzero(~(nonfinite | below | at_intrinsic | atm))
    m, p = moneyness[solve], ps[solve]
    # In s = sigma sqrt(T) the time value q of the out-of-the-money option is
    # s (phi(d) - d N(-d)) with d = |m| / s.  The upper bracket
    # s = 2 sqrt(2 pi) (p + |m|) has d < 0.2, so the call price there is at
    # least s phi(0.2) - |m| / 2 >= 1.96 (p + |m|) - |m| / 2 > p.
    a = np.abs(m)
    q = p - np.maximum(m, 0.0)

    def time_value(s, i):
        d = a[i] / s
        density = norm_pdf(d)
        return s * density - a[i] * norm_cdf(-d), density, density * d * d / s

    hi = 2.0 * _SQRT_2PI * (p + a)
    root_expiry = math.sqrt(expiry)
    vols[solve] = _halley(time_value, _normal_start(a, q), np.zeros(p.size), hi, q) / root_expiry
    converged = np.ones(ks.shape, dtype=bool)
    converged[solve] = ~(np.abs(bachelier_call_prices(forward, ks, vols, expiry)[solve] - p) > PRICE_TOL * scale[solve])
    _reject_first_bad(
        (~nonfinite, lambda p, k: PriceOutsideArbitrageBounds(f"price {p} is not finite for strike {k}"), ps, ks),
        (~below, lambda p, lo, k: PriceOutsideArbitrageBounds(f"price {p} below intrinsic {lo} for strike {k}"),
         ps, intrinsic, ks),
        (converged, lambda v, k: ConvergenceFailure(f"price residual exceeds tolerance at sigma={v} for strike {k}"),
         vols, ks),
    )
    return vols


def lognormal_partial_moments(model: LognormalModel, p, edges) -> np.ndarray:
    """Truncated moments E[a^p 1{e_i < a <= e_{i+1}}] in closed form, for the
    cells between consecutive edges of a grid.

    Cells are half-open on the left, ``(e_i, e_{i+1}]``, with the full line
    recovered as (0, inf).  ``p`` is one order or an array of them; the result
    has shape ``np.shape(p) + (cells,)``.  A zero-volatility model is treated
    as a point mass at the forward.
    """
    p = np.asarray(p, dtype=float)
    e = _checked_grid(edges, "cell edges", positive=False, min_size=2, increasing=False)
    _reject_first_bad(((e[:-1] >= 0.0) & (e[1:] > e[:-1]),
                       lambda lo, hi: ParameterOutOfRange(f"need 0 <= lower < upper, got ({lo}, {hi})"), e[:-1], e[1:]))
    moments = np.reshape([model.moment(q) for q in p.ravel().tolist()], p.shape + (1,))
    if model.sigma == 0.0:
        return np.where((e[:-1] < model.forward) & (model.forward <= e[1:]), moments, 0.0)
    stdev = model.sigma * math.sqrt(model.expiry)
    # log(e / f) once per edge, -inf at zero and inf at infinity.  math.log keeps the values
    # off numpy's vectorised log, which differs from it by an ulp on rare inputs.  e / f,
    # and h for a subnormal stdev, overflow to the infinity that is right.
    with np.errstate(over="ignore"):
        logs = _mapped(_log, e / model.forward)
        h = (logs + (0.5 - p[..., None]) * model.total_variance) / stdev
    # One CDF per edge: the lower tail t = N(-|h|) keeps its digits on either
    # side.  Upper-tail cells take differences of the complements t, where
    # N(hi) - N(lo) would cancel two numbers close to one.
    t = norm_cdf(-np.abs(h))
    cdf = np.where(h < 0.0, t, 1.0 - t)
    return moments * np.where(h[..., :-1] > 0.0, t[..., :-1] - t[..., 1:], np.diff(cdf))


@lru_cache(maxsize=None)
def _gl_rule(n_nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights
