"""Reference models used as oracles: lognormal (Black) and normal
(Bachelier) call prices, lognormal partial moments, implied lognormal/normal
volatility inversion, and the Gauss-Legendre rule the quadratures share.

Each formula has one array form that broadcasts its arguments
(``bs_call_prices``, ``bachelier_call_prices``); a single strike is a
one-element grid.  The vol inversions run one safeguarded Newton iteration
over a whole strike grid (``implied_lognormal_vols``,
``implied_normal_vols``) and check their residuals with those pricers; each
element takes the same steps as in a one-strike inversion.  The normal CDF is
``math.erfc``, so importing the module loads no scipy.

All prices are undiscounted forward values.  Discounting enters only through
the rates application, via explicit discount factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

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
_NEWTON_ITERATIONS = 90
_LOG_RESIDUAL_FLOOR = 1e-9  # below it, roundoff drives the Newton steps
# Largest price residual accepted at an inverted vol.
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


def _check_elements(*checks) -> None:
    """Raise ParameterOutOfRange "<rule>, got <value>" for the first element,
    in grid order, that breaks a rule.

    ``checks`` are ``(ok, rule, values)`` with ``ok`` True where ``values``
    keeps the rule, listed in the order a loop over the broadcast elements
    would test them, so a grid fails exactly as that loop would.
    """
    valid = reduce(np.logical_and, [ok for ok, _, _ in checks])
    if not valid.all():
        i = int(np.argmin(valid))  # the first element that breaks any rule
        for ok, rule, values in checks:
            if not np.broadcast_to(ok, valid.shape).flat[i]:
                value = np.broadcast_to(values, valid.shape).flat[i]
                raise ParameterOutOfRange(f"{rule}, got {value}")


def bs_call_prices(forward, strikes, sigma, expiry) -> np.ndarray:
    """Undiscounted Black call prices E[(a - k)^+], elementwise over arrays of
    forward, strike, lognormal vol and expiry, broadcast together.

    log(f / k) is ``_log`` per element: numpy's vectorised log differs from
    ``math.log`` by an ulp on rare inputs.  Zero vol gives the intrinsic
    value, and so does an f / k that overflows or underflows.
    """
    f, k, sigma, expiry = (np.asarray(x, dtype=float) for x in (forward, strikes, sigma, expiry))
    _check_elements(
        (f > 0.0, "forward must be positive", f),
        (sigma >= 0.0, "sigma must be non-negative", sigma),
        (expiry > 0.0, "expiry must be positive", expiry),
        (k > 0.0, "strike must be positive", k),
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
    _check_elements(
        (sigma >= 0.0, "normal vol must be non-negative", sigma),
        (expiry >= 0.0, "expiry must be non-negative", expiry),
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


def _first(indices, error):
    """``[(i, error(i))]`` for the first grid index ``i`` that fails a check;
    ``_raise_first`` raises the earliest over all checks, as a loop would."""
    return [(indices[0], error(indices[0]))] if len(indices) else []


def _raise_first(failures) -> None:
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


def _newton(time_value, s, lo, hi, q):
    """Solve ``time_value(s) = q`` elementwise, by Newton on the log residual
    ``log(time_value(s) / q)`` safeguarded by the bracket ``[lo, hi]``.

    ``time_value(s, i)`` gives the time values of the elements ``i`` at ``s``
    and their derivatives in ``s``.  Each evaluation narrows its element's
    bracket; a Newton step that lands outside it is replaced by bisection.
    An element stops once its step is at most 4 eps s, or once its step stops
    shrinking while the log residual is below ``_LOG_RESIDUAL_FLOOR``.
    Elements run independently, for at most ``_NEWTON_ITERATIONS`` steps.
    """
    s, lo, hi = s.copy(), lo.copy(), hi.copy()
    last = np.full(s.size, math.inf)
    i = np.arange(s.size)
    for _ in range(_NEWTON_ITERATIONS):
        if not i.size:
            break
        at = s[i]
        # Underflowed time values and vegas give infinite or NaN residuals and
        # steps, which the bracket test turns into bisection.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            value, vega = time_value(at, i)
            residual = np.where(value > 0.0, np.log(value / q[i]), -math.inf)
            newton = at - residual * value / vega
        lo[i] = below = np.where(residual < 0.0, at, lo[i])
        hi[i] = above = np.where(residual > 0.0, at, hi[i])
        s[i] = np.where((newton >= below) & (newton <= above), newton, 0.5 * (below + above))
        step = np.abs(s[i] - at)
        done = (step <= 4.0 * np.finfo(float).eps * at) | (
            (step >= last[i]) & (np.abs(residual) < _LOG_RESIDUAL_FLOOR)
        )
        last[i] = step
        i = i[~done]
    return s


def implied_lognormal_vols(forward: float, strikes, expiry: float, prices) -> np.ndarray:
    """Invert the Black call formula on a strike grid, by Newton from the
    Manaster-Koehler start within the bracket ``_VOL_BRACKET``.

    Returns ``math.inf`` where the price sits at the upper arbitrage bound
    (within ``UPPER_BOUND_MARGIN`` of the forward), where the implied
    volatility diverges.  Each element takes the same steps, in the same
    floating-point operations, as a one-strike inversion.

    Raises, for the first failing strike in grid order:
        ParameterOutOfRange: non-positive forward, strike or expiry.
        PriceOutsideArbitrageBounds: price not finite or outside [(f-k)^+, f].
        ConvergenceFailure: price requires a volatility above the bracket.
    """
    if not forward > 0.0 or not expiry > 0.0:
        raise ParameterOutOfRange(f"forward and expiry must be positive, got {forward}, {expiry}")
    ks, ps = _as_grid(strikes, prices)
    intrinsic = np.maximum(forward - ks, 0.0)
    slack = 1e-12 * max(1.0, forward)
    bad_strike = ~(ks > 0.0)
    outside = ~bad_strike & ~((ps >= intrinsic - slack) & (ps <= forward + slack))
    at_upper = ~(bad_strike | outside) & (ps >= forward - UPPER_BOUND_MARGIN)
    # Deep in the money the time value collapses below representable
    # resolution; zero vol reproduces such prices within PRICE_TOL.
    at_intrinsic = ~(bad_strike | outside | at_upper) & (ps <= intrinsic + slack)
    failures = _first(
        np.flatnonzero(bad_strike),
        lambda i: ParameterOutOfRange(f"strike must be positive, got {ks[i]}"),
    ) + _first(
        np.flatnonzero(outside),
        lambda i: PriceOutsideArbitrageBounds(
            f"price {ps[i]} outside [{intrinsic[i]}, {forward}] for strike {ks[i]}"
        ),
    )
    vols = np.where(at_upper, math.inf, 0.0)

    solve = np.flatnonzero(~(bad_strike | outside | at_upper | at_intrinsic))
    k, p = ks[solve], ps[solve]
    root_expiry = math.sqrt(expiry)
    lo, hi = _VOL_BRACKET
    unbracketed = bs_call_prices(forward, k, hi, expiry) < p
    failures += _first(
        solve[unbracketed],
        lambda i: ConvergenceFailure(
            f"implied lognormal vol above bracket {hi} for price {ps[i]} at strike {ks[i]}"
        ),
    )
    keep = ~unbracketed
    k, p = k[keep], p[keep]
    x = _mapped(_log, forward / k)  # log(f / k), mapped as in ``bs_call_prices``
    # The out-of-the-money option (the put below the forward) has time value
    # q by put-call parity, and keeps its digits away from the money.
    q = p - np.maximum(forward - k, 0.0)
    sign = np.where(x > 0.0, -1.0, 1.0)

    def time_value(s, i):
        d1 = x[i] / s + 0.5 * s
        cdf = norm_cdf(sign[i] * np.stack([d1, d1 - s]))
        return sign[i] * (forward * cdf[0] - k[i] * cdf[1]), forward * norm_pdf(d1)

    # Manaster-Koehler: the price is convex in s below sqrt(2 |x|) and concave
    # above it.  At the money (f / k rounds to 1), the first-order ATM price.
    start = np.where(x == 0.0, _SQRT_2PI * q / forward, np.sqrt(2.0 * np.abs(x)))
    lo_s, hi_s = np.full(k.size, lo * root_expiry), np.full(k.size, hi * root_expiry)
    s = _newton(time_value, np.clip(start, lo_s, hi_s), lo_s, hi_s, q)
    off = np.abs(bs_call_prices(forward, k, s / root_expiry, expiry) - p) > PRICE_TOL
    vols[solve[keep]] = s / root_expiry
    failures += _first(
        solve[keep][off],
        lambda i: ConvergenceFailure(
            f"Newton residual exceeds tolerance at sigma={vols[i]} for strike {ks[i]}"
        ),
    )
    _raise_first(failures)
    return vols


def implied_normal_vols(forward, strikes, expiry: float, prices) -> np.ndarray:
    """Invert the Bachelier call formula on a strike grid; supports negative
    forwards and strikes.  ``forward`` is a number or one forward per strike,
    so several curves invert in one call.

    Prices within 1e-12 (relative to the larger of 1, |f| and |k|) of
    intrinsic give zero vol, and at-the-money prices invert exactly.
    The rest run Newton within a closed-form bracket; each element takes the
    same steps, in the same floating-point operations, as a one-strike
    inversion.

    Raises, for the first failing strike in grid order:
        PriceOutsideArbitrageBounds: price not finite or below intrinsic.
        ConvergenceFailure: the vol cannot be solved to ``PRICE_TOL``.
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
    below = ~nonfinite & (ps < intrinsic - 1e-12 * scale)
    # Prices within the same slack above intrinsic carry no resolvable time
    # value: zero vol reproduces them within PRICE_TOL, where an inversion
    # would turn the sign of a roundoff into a vol.
    at_intrinsic = ~(nonfinite | below) & (ps <= intrinsic + 1e-12 * scale)
    # ATM Bachelier identity: price = sigma sqrt(T / 2 pi), inverted exactly.
    atm = ~(nonfinite | below | at_intrinsic) & (ks == forward)
    failures = _first(
        np.flatnonzero(nonfinite),
        lambda i: PriceOutsideArbitrageBounds(f"price {ps[i]} is not finite for strike {ks[i]}"),
    ) + _first(
        np.flatnonzero(below),
        lambda i: PriceOutsideArbitrageBounds(
            f"price {ps[i]} below intrinsic {intrinsic[i]} for strike {ks[i]}"
        ),
    )
    vols = np.where(atm, ps * math.sqrt(2.0 * math.pi / expiry), 0.0)

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
        return s * density - a[i] * norm_cdf(-d), density

    # Far from the money q / |m| ~ phi(d) / d^3; two fixed-point steps in
    # d^2 = -2 log(sqrt(2 pi) d^3 q / |m|).  Otherwise the lower bound
    # q sqrt(2 pi) from the ATM price, the largest at a given s.
    log_ratio = 2.0 * (np.log(a) - np.log(_SQRT_2PI * q))
    d = np.sqrt(np.maximum(log_ratio, 0.0))
    for _ in range(2):
        d = np.sqrt(np.maximum(log_ratio - 6.0 * np.log(np.maximum(d, 1.0)), 0.0))
    start = np.where(d > 1.0, a / np.maximum(d, 1.0), _SQRT_2PI * q)
    hi = 2.0 * _SQRT_2PI * (p + a)
    root_expiry = math.sqrt(expiry)
    vols[solve] = _newton(time_value, start, np.zeros(p.size), hi, q) / root_expiry
    off = np.abs(bachelier_call_prices(forward, ks, vols, expiry)[solve] - p) > PRICE_TOL
    failures += _first(
        solve[off],
        lambda i: ConvergenceFailure(
            f"Newton residual exceeds tolerance at sigma={vols[i]} for strike {ks[i]}"
        ),
    )
    _raise_first(failures)
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
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or e.size < 2:
        raise ParameterOutOfRange("need a 1-d grid of at least two cell edges")
    bad = np.flatnonzero(~((e[:-1] >= 0.0) & (e[1:] > e[:-1])))
    if bad.size:
        raise ParameterOutOfRange(f"need 0 <= lower < upper, got ({e[bad[0]]}, {e[bad[0] + 1]})")
    moments = np.reshape([model.moment(q) for q in p.ravel().tolist()], p.shape + (1,))
    if model.sigma == 0.0:
        return np.where((e[:-1] < model.forward) & (model.forward <= e[1:]), moments, 0.0)
    stdev = model.sigma * math.sqrt(model.expiry)
    # log(e / f) once per edge, -inf at zero and inf at infinity.  math.log keeps the values
    # off numpy's vectorised log, which differs from it by an ulp on rare inputs.
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
