"""Property-based tests of the implied-vol inversions."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from momentbounds.models import (
    LognormalModel,
    bachelier_call_price,
    bs_call_price,
    implied_lognormal_vols,
    implied_normal_vols,
)

# Prices this far inside the arbitrage bounds pin the vol down well enough
# for the round trip; closer to a bound the vega vanishes (see
# test_models.TestImpliedLognormalVol.test_round_trip_identity).
TIME_VALUE_FLOOR = 1e-9
ROUND_TRIP_TOL = 1e-10

forwards = st.floats(0.05, 20.0)
expiries = st.floats(0.05, 10.0)
log_moneyness = st.floats(-2.0, 2.0)
lognormal_vols = st.floats(0.01, 3.0)
rates = st.floats(-0.05, 0.1)
normal_vols = st.floats(1e-4, 0.05)


def black_price(forward, strike, expiry, sigma):
    return bs_call_price(LognormalModel(forward, sigma, expiry), strike)


@settings(deadline=None)
@given(forwards, expiries, st.lists(st.tuples(log_moneyness, lognormal_vols), min_size=1, max_size=12))
def test_black_round_trip(forward, expiry, points):
    strikes = np.array([forward * math.exp(x) for x, _ in points])
    prices = np.array([black_price(forward, k, expiry, s) for k, (_, s) in zip(strikes, points)])
    interior = (prices - np.maximum(forward - strikes, 0.0) > TIME_VALUE_FLOOR) & (
        prices < forward - 1e-12
    )
    vols = implied_lognormal_vols(forward, strikes[interior], expiry, prices[interior])
    repriced = [black_price(forward, k, expiry, v) for k, v in zip(strikes[interior], vols)]
    assert np.all(np.abs(np.array(repriced) - prices[interior]) <= ROUND_TRIP_TOL)


@settings(deadline=None)
@given(rates, expiries, st.lists(st.tuples(rates, normal_vols), min_size=1, max_size=12))
def test_bachelier_round_trip(forward, expiry, points):
    strikes = np.array([k for k, _ in points])
    prices = np.array([bachelier_call_price(forward, k, s, expiry) for k, s in points])
    vols = implied_normal_vols(forward, strikes, expiry, prices)
    repriced = [bachelier_call_price(forward, k, v, expiry) for k, v in zip(strikes, vols)]
    assert np.all(np.abs(np.array(repriced) - prices) <= ROUND_TRIP_TOL)


def _increasing(values, gap):
    """Sorted values with neighbours at least ``gap`` apart."""
    kept = []
    for v in sorted(values):
        if not kept or v - kept[-1] >= gap:
            kept.append(v)
    return np.array(kept)


# Prices closer than twice the residual allowance may invert in either order.
PRICE_GAP = 1e-9


@settings(deadline=None)
@given(forwards, expiries, log_moneyness, st.lists(lognormal_vols, min_size=2, max_size=12))
def test_lognormal_vol_increases_with_price(forward, expiry, x, sigmas):
    strike = forward * math.exp(x)
    prices = _increasing([black_price(forward, strike, expiry, s) for s in sigmas], PRICE_GAP)
    intrinsic = max(forward - strike, 0.0)
    prices = prices[(prices - intrinsic > TIME_VALUE_FLOOR) & (prices < forward - 1e-12)]
    vols = implied_lognormal_vols(forward, np.full(prices.size, strike), expiry, prices)
    assert np.all(np.diff(vols) > 0.0)


@settings(deadline=None)
@given(rates, rates, expiries, st.lists(normal_vols, min_size=2, max_size=12))
def test_normal_vol_increases_with_price(forward, strike, expiry, sigmas):
    prices = _increasing([bachelier_call_price(forward, strike, s, expiry) for s in sigmas], PRICE_GAP)
    prices = prices[prices > max(forward - strike, 0.0)]
    vols = implied_normal_vols(forward, np.full(prices.size, strike), expiry, prices)
    assert np.all(np.diff(vols) > 0.0)
