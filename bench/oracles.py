"""Independent correctness checks for the CSVs the CLI writes.

Each check reads the emitted CSV and the job's config and returns a list of
violations (empty when the job passes).  The formulas here are written out
from the paper's closed forms with the standard library, not taken from the
package, so a defect in the package cannot also hide in its oracle.  The one
exception is the flat-partition check, which reuses the package's
``flat_conditional_moments`` so that the engine is compared with the per-cell
closed form on identical moments.  Each tolerance below has one meaning.
"""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np
from scipy.integrate import quad

from momentbounds.models import LognormalModel
from momentbounds.partition import flat_conditional_moments

# Acceptance gate: engine vs closed form, relative.
GATE_REL = 1e-12
# The CSV keeps 12 significant digits, so reading it back moves a value by at
# most half a unit in the 12th digit.
CSV_REL = 5e-12
CLOSED_FORM_REL = GATE_REL + CSV_REL
# Engine eigenvalues below this share of the spectral radius count as zero, so
# the engine may omit up to this much (times the dimension) of positive mass.
EIG_REL = 1e-12
# Linear refinement sandwich and implied-vol repricing, absolute.
SANDWICH_ABS = 1e-10
REPRICE_ABS = 1e-10
# Slack for an implied CDF to leave [0, 1].
CDF_SLACK = 1e-10
# Independent quadrature of the implied square-root moment, absolute.
MOMENT_ABS = 1e-10


def read_csv(path) -> dict:
    """Columns of an emitted CSV as float arrays ("inf" is the sentinel)."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(row[i]) for row in body]) for i, name in enumerate(header)}


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_call(f: float, k: float, sigma: float, expiry: float) -> float:
    if math.isinf(sigma):
        return f
    stdev = sigma * math.sqrt(expiry)
    if stdev == 0.0:
        return max(f - k, 0.0)
    d1 = (math.log(f / k) + 0.5 * stdev * stdev) / stdev
    return f * _norm_cdf(d1) - k * _norm_cdf(d1 - stdev)


def bachelier_call(f: float, k: float, sigma: float, expiry: float) -> float:
    stdev = sigma * math.sqrt(expiry)
    if stdev == 0.0:
        return max(f - k, 0.0)
    d = (f - k) / stdev
    return (f - k) * _norm_cdf(d) + stdev * math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)


def vanilla_bound(f: float, nu: float, k: float) -> float:
    """Positive root of p^2 - (f - k) p - f k nu = 0, cancellation-free."""
    root = math.sqrt((f - k) ** 2 + 4.0 * f * k * nu)
    if f >= k:
        return 0.5 * ((f - k) + root)
    return 2.0 * f * k * nu / (root + (k - f))


def lognormal_root_variance(sigma: float, expiry: float) -> float:
    """1 - E[sqrt(a)]^2 / E[a] for a lognormal asset."""
    return -math.expm1(-0.25 * sigma * sigma * expiry)


def _compare(label: str, got, want, rel: float, floor=0.0) -> list:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want)
    limit = rel * np.abs(want) + floor
    bad = np.nonzero(~(err <= limit))[0]
    if bad.size == 0:
        return []
    i = int(bad[np.argmax((err / np.maximum(limit, 1e-300))[bad])])
    return [f"{label}: {bad.size} value(s) off, worst row {i}: got {float(got[i])!r}, want {float(want[i])!r}"]


def _within(label: str, values, low, high) -> list:
    values = np.asarray(values, dtype=float)
    bad = np.nonzero(~((values >= low) & (values <= high)))[0]
    if bad.size == 0:
        return []
    i = int(bad[0])
    return [f"{label}: {bad.size} value(s) outside range, first row {i}: {float(values[i])!r}"]


def grid(spec) -> np.ndarray:
    """A config grid as the CLI builds it: explicit list or start/stop/count."""
    if isinstance(spec, dict):
        return np.linspace(spec["start"], spec["stop"], spec["count"])
    return np.array(spec, dtype=float)


def _sweep(cols: dict, outer, strikes: np.ndarray) -> tuple:
    """Exact (outer value, strike) per CSV row for an outer-by-strike sweep.

    Inputs come from the config, not from the CSV, whose rounding to 12
    digits would otherwise move the oracle's own inputs; the CSV's strike
    column is checked against them instead.
    """
    lead = np.repeat(np.asarray(outer, dtype=float), strikes.size)
    ks = np.tile(strikes, len(outer))
    return lead, ks, _compare("strike column", cols["strike"], ks, CSV_REL)


def _refine_params(config: dict):
    p = config["parameters"]
    return p["forward"], p["sigma"], p.get("expiry", 1.0), grid(p["eval_strikes"])


def check_flat_refine(config: dict, cols: dict) -> list:
    """Each bound equals sum_n d_n vanilla_bound(f_n, nu_n, k) on the same moments."""
    f, sigma, expiry, strikes = _refine_params(config)
    model = LognormalModel(f, sigma, expiry)
    names = [c for c in cols if c.startswith("bound_")]
    problems = _sweep(cols, [0.0], strikes)[2]
    for name, cells in zip(names, config["parameters"]["partitions"]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m = flat_conditional_moments(model, cells)
        want = [
            sum(d * vanilla_bound(fn, nu, k) for d, fn, nu in zip(m.digital, m.price, m.root_variance))
            for k in strikes
        ]
        problems += _compare(f"flat closed form {name}", cols[name], want, CLOSED_FORM_REL)
    return problems


def check_linear_refine(config: dict, cols: dict) -> list:
    """Black price - 1e-10 <= bound <= vanilla bound + 1e-10."""
    f, sigma, expiry, strikes = _refine_params(config)
    nu = lognormal_root_variance(sigma, expiry)
    lower = np.array([black_call(f, k, sigma, expiry) for k in strikes]) - SANDWICH_ABS
    upper = np.array([vanilla_bound(f, nu, k) for k in strikes]) + SANDWICH_ABS
    problems = _sweep(cols, [0.0], strikes)[2]
    for name in (c for c in cols if c.startswith("bound_")):
        problems += _within(f"linear sandwich {name}", cols[name], lower, upper)
    return problems


def _caplet_bound(p: dict, nu: float, rho: float, alpha: float, strike: float) -> tuple:
    """Positive spectrum of C^T L C, with Q = C C^T by LAPACK Cholesky, for the
    (s_n, s_n-1, cash) basket on a flat curve; returns (bound, spectral radius).

    Q is nearly singular when rho is close to 1, and the quantities
    (lam + 1, -lam) cancel; the triangular factor keeps the result within
    2e-13 of a 40-digit reference there, where an eigen square root does not.
    """
    n = p["period_index"]
    daycount = p.get("daycount", 1.0)
    discounts = (1.0 + p["discount_rate"]) ** -np.arange(1, n + 1)
    lam = float(np.sum(discounts[:-1]) / discounts[-1])
    f = p["swap_rate"] + alpha / daycount
    k = strike + alpha / daycount
    cross = (1.0 - nu) + rho * nu
    cash = math.sqrt(f * (1.0 - nu))
    q = np.array([[f, f * cross, cash], [f * cross, f, cash], [cash, cash, 1.0]])
    c = np.linalg.cholesky(q)
    eigs = np.linalg.eigvalsh(c.T @ (np.array([lam + 1.0, -lam, -k])[:, None] * c))
    return float(np.sum(eigs[eigs > 0.0])), float(np.max(np.abs(eigs)))


def check_caplet(config: dict, cols: dict) -> list:
    """Bound against an independent 3x3 spectrum, Bachelier repricing of the
    emitted normal vol, and the CDF in [0, 1]."""
    p = config["parameters"]
    expiry = p.get("expiry", 1.0)
    nu = lognormal_root_variance(p["sigma"], expiry)
    forward = p["swap_rate"]  # flat curve: r_n = (lam + 1) s - lam s = s
    scan = config["experiment"] == "CapletCdf"
    lead, strikes, problems = _sweep(cols, p["shifts"] if scan else p["correlations"], grid(p["strikes"]))
    want, slack, repriced = [], [], []
    for lead_value, k, vol in zip(lead, strikes, cols["implied_normal_vol"]):
        alpha, rho = (lead_value, p["correlation"]) if scan else (p.get("shift", 0.0), lead_value)
        bound, radius = _caplet_bound(p, nu, rho, alpha, k)
        want.append(bound)
        slack.append(3 * EIG_REL * radius)
        repriced.append(bachelier_call(forward, k, vol, expiry))
    return (
        problems
        + _compare("caplet engine", cols["bound"], want, CLOSED_FORM_REL, np.array(slack))
        + _compare("caplet repricing", repriced, cols["bound"], 0.0, REPRICE_ABS)
        + _within("caplet cdf", cols["cdf"], -CDF_SLACK, 1.0 + CDF_SLACK)
    )


def check_vanilla_smile(config: dict, cols: dict) -> list:
    """Closed-form bound, Black repricing of the emitted vol, CDF in [0, 1]."""
    p = config["parameters"]
    f, expiry = p["forward"], p.get("expiry", 1.0)
    nus, strikes, problems = _sweep(cols, p["root_variances"], grid(p["strikes"]))
    want = [vanilla_bound(f, nu, k) for nu, k in zip(nus, strikes)]
    repriced = [black_call(f, k, v, expiry) for k, v in zip(strikes, cols["implied_vol"])]
    return (
        problems
        + _compare("smile closed form", cols["bound"], want, CLOSED_FORM_REL)
        + _compare("smile repricing", repriced, cols["bound"], 0.0, REPRICE_ABS)
        + _within("smile cdf", cols["cdf"], -CDF_SLACK, 1.0 + CDF_SLACK)
    )


def check_local_attain(config: dict, cols: dict) -> list:
    """Closed-form bound, and the two-state price within attain_tol of it."""
    p = config["parameters"]
    attain_tol = p.get("attain_tol", 1e-9)
    _, strikes, problems = _sweep(cols, [0.0], grid(p["strikes"]))
    want = [vanilla_bound(p["forward"], p["root_variance"], k) for k in strikes]
    return (
        problems
        + _compare("attain closed form", cols["bound"], want, CLOSED_FORM_REL)
        + _within("attain gap", cols["gap"], 0.0, attain_tol)
        + _compare("attain binomial price", cols["binomial_price"], cols["bound"], attain_tol + CSV_REL)
    )


def check_fx_cross(config: dict, cols: dict) -> list:
    """Closed-form bound at the composed cross root-variance."""
    p = config["parameters"]
    rhos, strikes, problems = _sweep(cols, p["correlations"], grid(p["strikes"]))
    a = math.sqrt((1.0 - p["nu1"]) * (1.0 - p["nu2"]))
    b = math.sqrt(p["nu1"] * p["nu2"])
    want = [
        vanilla_bound(p["forward"], min(1.0, max(0.0, 1.0 - (a + rho * b) ** 2)), k)
        for rho, k in zip(rhos, strikes)
    ]
    return problems + _compare("fx closed form", cols["bound"], want, CLOSED_FORM_REL)


def sqrt_moment(nu: float) -> float:
    """E[sqrt(a)] / sqrt(f) of the measure behind the bound curve, by
    Carr-Madan replication of sqrt(a) over put bounds below the forward and
    call bounds above it (f = 1), substituted to smooth integrands:

        1 - (1/4) [ int_0^1 2 P(t^2) / t^2 dt + int_0^1 2 C(1 / t^2) dt ].
    """
    if nu == 0.0:
        return 1.0
    # With D = (1 - k)^2 + 4 k nu: P(k) / k = 2 nu / (sqrt(D) + 1 - k) below
    # the forward and C(k) = 2 k nu / (sqrt(D) + k - 1) above it, C -> nu.
    def put_over_k(t):
        k = t * t
        return 4.0 * nu / (math.sqrt((1.0 - k) ** 2 + 4.0 * k * nu) + (1.0 - k))

    def call(t):
        if t == 0.0:
            return 2.0 * nu
        k = 1.0 / (t * t)
        return 4.0 * k * nu / (math.sqrt((k - 1.0) ** 2 + 4.0 * k * nu) + (k - 1.0))

    opts = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 200}
    lower = quad(put_over_k, 0.0, 1.0, **opts)[0]
    upper = quad(call, 0.0, 1.0, **opts)[0]
    return 1.0 - 0.25 * (lower + upper)


def check_global_attain(config: dict, cols: dict) -> list:
    """Implied sqrt moment by independent replication; interior margins > 0."""
    nus = grid(config["parameters"]["root_variances"])
    problems = _compare("nu column", cols["nu"], nus, CSV_REL)
    want = [sqrt_moment(nu) for nu in nus]
    margins = (cols["implied_nu"] - cols["nu"])[1:-1]
    problems += _compare("global sqrt moment", cols["implied_sqrt_moment"], want, 0.0, MOMENT_ABS)
    bad = np.nonzero(~(margins > 0.0))[0]
    if bad.size:
        problems.append(f"global margin: {bad.size} interior margin(s) <= 0, first row {int(bad[0]) + 1}")
    return problems


CHECKS = {
    "FlatRefine": check_flat_refine,
    "LinearRefine": check_linear_refine,
    "CapletCdf": check_caplet,
    "CapletBound": check_caplet,
    "VanillaSmile": check_vanilla_smile,
    "LocalAttain": check_local_attain,
    "FxCross": check_fx_cross,
    "GlobalAttain": check_global_attain,
}


def check(config: dict, csv_path) -> list:
    """Violations of the job's oracle; an empty list means the job passed."""
    return CHECKS[config["experiment"]](config, read_csv(csv_path))
