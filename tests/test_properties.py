"""Property-based tests of the engine bound, the vanilla bound, the
partition-refined bounds and the implied-vol inversions."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from momentbounds.engine import MomentMatrix, factor_psd, positive_eigenvalue_bounds
from momentbounds.errors import DegenerateCell
from momentbounds.models import (
    LognormalModel,
    bachelier_call_prices,
    bs_call_prices,
    implied_lognormal_vols,
    implied_normal_vols,
)
from momentbounds.moments import AssetMoments, CorrelationMatrix, assemble_q
from momentbounds.partition import (
    flat_conditional_moments,
    linear_conditional_moments,
    refined_bounds,
)
from momentbounds.vanilla import vanilla_bounds

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


@st.composite
def moment_problems(draw):
    """A PSD moment matrix a^T a + 1e-3 I of random rank and signed quantities."""
    n = draw(st.integers(1, 6))
    rank = draw(st.integers(1, n))
    entries = st.floats(-3.0, 3.0)
    a = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=rank, max_size=rank)))
    q = a.T @ a
    q = 0.5 * (q + q.T) + 1e-3 * np.eye(n)
    # Six decimals keep the quantities clear of subnormal products.
    weights = st.floats(-5.0, 5.0).map(lambda x: round(x, 6))
    quantities = np.array(draw(st.lists(weights, min_size=n, max_size=n)))
    return q, quantities


def engine_bound(q, quantities):
    return positive_eigenvalue_bounds(factor_psd(MomentMatrix(q)), [quantities]).bounds[0]


def bound_slack(q, quantities):
    """Roundoff allowance: the spectral radius of P is at most max|lam| tr(Q),
    and eigenvalues below 1e-12 of it are dropped."""
    return 1e-10 * float(np.max(np.abs(quantities))) * float(np.trace(q))


@settings(deadline=None)
@given(moment_problems(), st.data())
def test_bound_invariant_under_permutation(problem, data):
    q, quantities = problem
    order = np.array(data.draw(st.permutations(range(len(quantities)))))
    permuted = engine_bound(q[np.ix_(order, order)], quantities[order])
    assert abs(permuted - engine_bound(q, quantities)) <= bound_slack(q, quantities)


@settings(deadline=None)
@given(moment_problems(), st.floats(1e-3, 1e3))
def test_bound_positively_homogeneous_in_q(problem, scale):
    q, quantities = problem
    scaled = engine_bound(scale * q, quantities)
    assert abs(scaled - scale * engine_bound(q, quantities)) <= scale * bound_slack(q, quantities)


@settings(deadline=None)
@given(moment_problems(), st.sampled_from([1, -1, 300, -300, 900, -900, 1000, -1000]))
def test_bound_homogeneous_in_quantities_at_extreme_scales(problem, power):
    # Bit for bit: each sweep row is solved in units of the power of two of
    # its largest quantity, also where P = S L S^T leaves the float range.
    q, quantities = problem
    scaled = engine_bound(q, np.ldexp(quantities, power))
    assert scaled == np.ldexp(engine_bound(q, quantities), power)


@settings(deadline=None)
@given(moment_problems())
def test_bound_within_price_limits(problem):
    # Exercising always gives the intrinsic (sum lam_i f_i)^+, and the long
    # legs alone cap the payoff at sum lam_i^+ f_i: for one asset against
    # cash, (f - k)^+ <= bound <= f.
    q, quantities = problem
    bound = engine_bound(q, quantities)
    prices = np.diag(q)
    slack = bound_slack(q, quantities)
    assert bound >= max(float(quantities @ prices), 0.0) - slack
    assert bound <= float(np.maximum(quantities, 0.0) @ prices) + slack


@settings(deadline=None)
@given(moment_problems(), st.integers(1, 12), st.data())
def test_sweep_rows_equal_single_row_calls(problem, rows, data):
    # Exact at the n <= 6 drawn here.  From rank 8 a BLAS build may compute
    # a stack of products differently from a single one, in the last bit.
    q, quantities = problem
    weights = st.floats(-5.0, 5.0).map(lambda x: round(x, 6))
    sweep_rows = [quantities] + [
        np.array(data.draw(st.lists(weights, min_size=q.shape[0], max_size=q.shape[0])))
        for _ in range(rows - 1)
    ]
    factor = factor_psd(MomentMatrix(q))
    sweep = positive_eigenvalue_bounds(factor, sweep_rows)
    for i, row in enumerate(sweep_rows):
        single = positive_eigenvalue_bounds(factor, [row])
        assert sweep.bounds[i] == single.bounds[0]
        assert sweep.positive_counts[i] == single.positive_counts[0]


@st.composite
def independent_asset_baskets(draw):
    """Prices, root-variances and quantities of a basket plus cash, whose
    first asset is uncorrelated with the others."""
    n = draw(st.integers(1, 4))
    prices = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    nus = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    corr = np.eye(n + 1)
    if n > 2:
        row = st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1)
        a = np.array(draw(st.lists(row, min_size=n - 1, max_size=n - 1)))
        c = a @ a.T + 1e-3 * np.eye(n - 1)
        d = np.sqrt(np.diag(c))
        c = c / np.outer(d, d)
        c = 0.5 * (c + c.T)
        np.fill_diagonal(c, 1.0)
        corr[1:n, 1:n] = c
    weights = st.floats(-3.0, 3.0).map(lambda x: round(x, 6))
    quantities = np.array(draw(st.lists(weights, min_size=n + 1, max_size=n + 1)))
    return prices, nus, CorrelationMatrix(corr), quantities


def basket_q(prices, nus, corr):
    assets = [AssetMoments(f, nu) for f, nu in zip(prices, nus)] + [AssetMoments(1.0, 0.0)]
    return assemble_q(assets, corr).entries


@settings(deadline=None)
@given(independent_asset_baskets(), st.floats(0.0, 1.0))
def test_engine_bound_monotone_in_root_variance(basket, raised):
    # Raising the root-variance of an asset uncorrelated with the others
    # never lowers the bound.  With correlation this fails: see
    # test_engine.TestEngineProperties.test_not_monotone_in_root_variance_under_correlation.
    prices, nus, corr, quantities = basket
    low, high = sorted([nus[0], raised])
    q_low = basket_q(prices, [low, *nus[1:]], corr)
    q_high = basket_q(prices, [high, *nus[1:]], corr)
    slack = bound_slack(q_high, quantities)
    assert engine_bound(q_high, quantities) >= engine_bound(q_low, quantities) - slack


@st.composite
def split_baskets(draw):
    """Prices, root-variances and square-root correlations of 1-4 assets,
    positive weights w_i and positive strikes k_i splitting K = sum w_i k_i."""
    n = draw(st.integers(1, 4))
    prices = draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
    nus = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    corr = np.eye(n + 1)
    if n > 1:
        row = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
        a = np.array(draw(st.lists(row, min_size=n, max_size=n)))
        c = a @ a.T + 1e-3 * np.eye(n)
        d = np.sqrt(np.diag(c))
        c = c / np.outer(d, d)
        c = 0.5 * (c + c.T)
        np.fill_diagonal(c, 1.0)
        corr[:n, :n] = c
    weights = np.array(draw(st.lists(st.floats(0.1, 3.0).map(lambda x: round(x, 6)), min_size=n, max_size=n)))
    strikes = np.array(draw(st.lists(st.floats(0.05, 5.0), min_size=n, max_size=n)))
    return prices, nus, CorrelationMatrix(corr), weights, strikes


def held_root_variances(q):
    """The root-variance of each asset against cash (the last row) that the
    float Q holds, 1 - Q[i,n]^2 / (Q[i,i] Q[n,n]) in exact arithmetic,
    raised by the eigensolver's backward error 4 (n + 1) eps, capped at 1.

    For a nearly deterministic asset the bound scales like the square root
    of Q's small eigenvalue, so the rounding of Q's cross entry moves it
    far more than ``bound_slack`` allows; the drawn nu is not what Q holds.
    """
    n = q.shape[0] - 1
    raise_by = 4.0 * (n + 1) * np.finfo(float).eps
    held = [
        1 - Fraction(q[i, n]) ** 2 / (Fraction(q[i, i]) * Fraction(q[n, n])) for i in range(n)
    ]
    return np.minimum(np.array([float(nu) for nu in held]) + raise_by, 1.0)


@settings(deadline=None)
@given(split_baskets())
@example(([3.0], [1e-14], CorrelationMatrix(np.eye(2)), np.array([1.0]), np.array([3.0])))
def test_engine_bound_below_any_split_into_vanilla_bounds(basket):
    # Ky Fan: the sum of the positive eigenvalues is subadditive, and
    # splitting L = sum_i diag(w_i e_i - w_i k_i e_cash) prices each asset
    # against cash at strike k_i, which is w_i times its vanilla bound.
    prices, nus, corr, weights, strikes = basket
    q = basket_q(prices, nus, corr)
    quantities = np.append(weights, -float(weights @ strikes))
    split = float(weights @ vanilla_bounds(prices, held_root_variances(q), strikes))
    assert engine_bound(q, quantities) <= split + bound_slack(q, quantities)


@settings(deadline=None)
@given(forwards, log_moneyness, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
def test_vanilla_bounds_within_limits_and_monotone_in_nu(forward, x, nus):
    strike = forward * math.exp(2.0 * x)
    nu = np.sort(nus)
    bounds = vanilla_bounds(forward, nu, strike)
    assert np.all(bounds >= max(forward - strike, 0.0))
    assert np.all(bounds <= forward * (1.0 + 4.0 * np.finfo(float).eps))
    assert np.all(np.diff(bounds) >= -4.0 * np.finfo(float).eps * bounds[1:])


@settings(deadline=None)
@given(
    st.floats(1e-6, 1e6),
    st.just(0.0) | st.floats(1e-12, 1.0),
    st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=12),
    st.sampled_from([900, -900]),
)
def test_vanilla_bounds_homogeneous_at_extreme_scales(forward, nu, strikes, power):
    # B(c f, nu, c k) = c B(f, nu, k) exactly for a power of two c, far
    # beyond the range where f k or (f - k)^2 fit in a float.  The draws keep
    # every nonzero bound above 1e-18, clear of subnormal rounding.
    c = 2.0**power
    bounds = vanilla_bounds(forward, nu, strikes)
    scaled = vanilla_bounds(c * forward, nu, c * np.array(strikes))
    assert np.all(np.isfinite(scaled))
    assert scaled.tolist() == (c * bounds).tolist()


@st.composite
def far_strikes(draw):
    """(forward, strike) with f / k from 1 down to 1e-320 and f >= 1e-290."""
    ratio = draw(st.floats(0.0, 320.0))
    strike = draw(st.floats(max(ratio - 290.0, -290.0), 300.0))
    return 10.0 ** (strike - ratio), 10.0**strike


@settings(deadline=None)
@given(far_strikes(), st.floats(1e-12, 1.0))
@example((1e-300, 1e30), 0.5)
@example((1e-150, 1e150), 1e-20)
def test_vanilla_bound_keeps_its_digits_far_below_the_strike(pair, nu):
    # Against 2 f k nu / (sqrt(D) + k - f) at 60 digits, also where 2 f k nu
    # is subnormal in the units of max(f, k)'s power of two.
    forward, strike = pair
    with mpmath.workdps(60):
        f, v, k = mpmath.mpf(forward), mpmath.mpf(nu), mpmath.mpf(strike)
        exact = 2 * f * k * v / (mpmath.sqrt((f - k) ** 2 + 4 * f * k * v) + k - f)
    assert abs(vanilla_bounds(forward, nu, [strike])[0] - exact) <= 1e-15 * exact


def black_price(forward, strike, expiry, sigma):
    return bs_call_prices(forward, [strike], sigma, expiry)[0]


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
    prices = np.array([bachelier_call_prices(forward, [k], s, expiry)[0] for k, s in points])
    vols = implied_normal_vols(forward, strikes, expiry, prices)
    repriced = [bachelier_call_prices(forward, [k], v, expiry)[0] for k, v in zip(strikes, vols)]
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
    prices = _increasing(bachelier_call_prices(forward, strike, sigmas, expiry).tolist(), PRICE_GAP)
    prices = prices[prices > max(forward - strike, 0.0)]
    vols = implied_normal_vols(forward, np.full(prices.size, strike), expiry, prices)
    assert np.all(np.diff(vols) > 0.0)


# Partition grids keep their points this far apart: in narrower cells the
# closed-form root-variance 1 - E[sqrt(a)]^2 / E[a] cancels to roundoff.
GRID_GAP = 1e-3
partition_vols = st.floats(0.1, 0.6)
partition_points = st.lists(st.floats(0.3, 2.5), min_size=1, max_size=13)
eval_strikes = st.lists(st.floats(0.3, 2.5), min_size=1, max_size=8).map(np.array)


def flat_moments(sigma, boundaries):
    # Cells below CELL_FLOOR are dropped with a warning; dropping only lowers
    # a bound, and a fine cell is never heavier than the coarse cell holding it.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return flat_conditional_moments(LognormalModel(1.0, sigma, 1.0), boundaries)


@settings(deadline=None)
@given(partition_vols, partition_points, st.floats(0.3, 2.5), eval_strikes)
def test_adding_a_flat_boundary_never_raises_the_bound(sigma, points, extra, strikes):
    coarse = _increasing(points, GRID_GAP)
    assume(np.min(np.abs(coarse - extra)) >= GRID_GAP)
    fine = np.sort(np.append(coarse, extra))
    coarser = refined_bounds(flat_moments(sigma, coarse), strikes)
    finer = refined_bounds(flat_moments(sigma, fine), strikes)
    assert np.all(finer <= coarser * (1.0 + 1e-12))


# Refinement monotonicity is a property of nested partitions.  Adding a strike
# to a hat partition does not nest: the new hat is shared between its two old
# neighbours with fractional weights, so the old hats are not sums of new
# ones, and only the flat case is tested above.


@settings(deadline=None)
@given(st.sampled_from(["flat", "linear"]), partition_vols, partition_points, eval_strikes)
def test_refined_bounds_dominate_black(kind, sigma, points, strikes):
    model = LognormalModel(1.0, sigma, 1.0)
    grid = _increasing(points, GRID_GAP)
    if kind == "flat":
        moments = flat_moments(sigma, grid)
    elif grid.size < 2:
        reject()
    else:
        try:
            moments = linear_conditional_moments(model, grid)
        except DegenerateCell:
            reject()
    black = bs_call_prices(1.0, strikes, sigma, 1.0)
    assert np.all(refined_bounds(moments, strikes) >= black - 1e-12)
