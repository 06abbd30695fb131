"""Seeded generators for the benchmark's experiment configs.

Each workload is a list of ``(label, config_dict)`` pairs.  Only values are
drawn from the seed (volatilities, grids, rates, correlations); the amount of
work per job (cells, strikes, curves) is fixed, so runs on different seeds
measure the same work and their timings can be compared.  ``tiny`` shrinks
every job for the smoke test.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("refine_scaling", "caplet_scan", "smile_attain")

# Why each workload exists: the layer it stresses and what it bypasses.
WHY = {
    "refine_scaling": "FlatRefine/LinearRefine at N=16..128 cells: the dense 2N x 2N engine "
    "dominates; no implied-vol inversion",
    "caplet_scan": "CapletCdf/CapletBound scans: thousands of 3x3 engine solves with Q fixed "
    "per slice, plus Bachelier vol bisection",
    "smile_attain": "many small smile/attainment/FX jobs: closed form, lognormal bisection, "
    "angle search; engine sees only 2x2",
}

# The reference kernel (reference.py) that does the same kind of work as each
# workload's jobs; their times are scaled by it.
REFERENCE = {
    "refine_scaling": "dense",
    "caplet_scan": "interpreted",
    "smile_attain": "interpreted",
}

REFINE_CELLS = (16, 32, 64, 128)


def _config(experiment: str, output: str, parameters: dict) -> dict:
    return {
        "schema_version": 1,
        "experiment": experiment,
        "output": output,
        "parameters": parameters,
    }


def _linspace(start: float, stop: float, count: int) -> list:
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count - 1)] + [stop]


def _sorted_uniform(rng: random.Random, low: float, high: float, count: int) -> list:
    return sorted(rng.uniform(low, high) for _ in range(count))


def refine_scaling(rng: random.Random, tiny: bool = False) -> list:
    """One partition per job, N cells for each kind, 12 eval strikes, plus the
    unpartitioned flat job (N = 1, the vanilla bound) that starts the curve.
    The two smallest sizes get two draws per kind (labels ``-2``): 13 jobs.

    With 5 jobs below the N = 32 cluster, 4 in it and 4 above it, the median
    job time is the second-fastest N = 32 job, not a gap between two sizes.
    Whether a job's pivoted Cholesky falls back to the eigen factor depends on
    the drawn sigma and grid and costs an N = 32 job about 20%; a median over
    four draws of that size moves less from seed to seed than one over two.

    Grids are evenly spaced, like the shipped configs, between 3.5 and 4.5
    standard deviations either side of the median, so the partition covers
    all but about 1e-5 of the mass.
    """
    cells = (4, 8) if tiny else REFINE_CELLS
    strikes = 4 if tiny else 12
    sizes = [(n, draw) for n in cells for draw in ((1, 2) if n in cells[:2] else (1,))]
    jobs = []
    for kind, experiment, key in (
        ("flat", "FlatRefine", "partitions"),
        ("linear", "LinearRefine", "strike_sets"),
    ):
        for n, draw in ([(1, 1)] if kind == "flat" else []) + sizes:
            sigma = rng.uniform(0.2, 0.5)
            median = math.exp(-0.5 * sigma * sigma)
            low = median * math.exp(-rng.uniform(3.5, 4.5) * sigma)
            high = median * math.exp(rng.uniform(3.5, 4.5) * sigma)
            # Flat: N cells need N - 1 interior boundaries; linear: N hat strikes.
            grid = _linspace(low, high, n - 1 if kind == "flat" else n) if n > 1 else []
            eval_lo = median * math.exp(-rng.uniform(1.0, 1.5) * sigma)
            eval_hi = median * math.exp(rng.uniform(1.5, 2.0) * sigma)
            label = f"{kind}.N{n}" + (f"-{draw}" if draw > 1 else "")
            jobs.append(
                (
                    label,
                    _config(
                        experiment,
                        label.replace(".", "_"),
                        {
                            "forward": 1.0,
                            "sigma": sigma,
                            "expiry": 1.0,
                            key: [grid],
                            "eval_strikes": _linspace(eval_lo, eval_hi, strikes),
                        },
                    ),
                )
            )
    return jobs


def caplet_scan(rng: random.Random, tiny: bool = False) -> list:
    """Three CapletCdf jobs over 3 shifts x 215 strikes and nine CapletBound
    jobs over 3 correlations x 71 strikes, on flat 10-period curves.  The
    median job time falls inside the CapletBound cluster, p90 inside the
    CapletCdf one."""
    cdf_jobs, bound_jobs = (1, 1) if tiny else (3, 9)
    cdf_strikes, bound_strikes = (7, 5) if tiny else (215, 71)
    jobs = []
    for i in range(cdf_jobs):
        swap = rng.uniform(0.01, 0.03)
        stop = 2.0 * swap
        label = f"cdf.{i}"
        jobs.append(
            (
                label,
                _config(
                    "CapletCdf",
                    label.replace(".", "_"),
                    {
                        "discount_rate": rng.uniform(0.005, 0.02),
                        "periods": 10,
                        "period_index": 10,
                        "swap_rate": swap,
                        "sigma": rng.uniform(0.3, 0.5),
                        "correlation": rng.uniform(0.98, 0.999),
                        "shifts": [0.0, 0.5, 1.0],
                        "strikes": {"start": stop - 1.07, "stop": stop, "count": cdf_strikes},
                    },
                ),
            )
        )
    for i in range(bound_jobs):
        swap = rng.uniform(0.01, 0.03)
        label = f"bound.{i}"
        jobs.append(
            (
                label,
                _config(
                    "CapletBound",
                    label.replace(".", "_"),
                    {
                        "discount_rate": rng.uniform(0.005, 0.02),
                        "periods": 10,
                        "period_index": 10,
                        "swap_rate": swap,
                        "sigma": rng.uniform(0.3, 0.5),
                        "correlations": _sorted_uniform(rng, 0.95, 1.0, 2 if tiny else 3),
                        "strikes": {"start": -0.5 * swap, "stop": 3.0 * swap, "count": bound_strikes},
                    },
                ),
            )
        )
    return jobs


def smile_attain(rng: random.Random, tiny: bool = False) -> list:
    """Ten rounds of a VanillaSmile and a LocalAttain job on one forward, with
    an FxCross and a GlobalAttain job added every other round: 30 jobs, each
    on a 23-point grid (21 for GlobalAttain).  Twice as many smile and local
    jobs as FX and global ones puts the median job time inside the
    VanillaSmile cluster and p90 inside the LocalAttain one, not on the gap
    between two clusters."""
    rounds = 2 if tiny else 10
    strikes = 5 if tiny else 23
    jobs = []
    for i in range(rounds):
        forward = rng.uniform(0.5, 2.0)
        grid = {"start": 0.4 * forward, "stop": 2.6 * forward, "count": strikes}
        jobs.append(
            (
                f"smile.{i}",
                _config(
                    "VanillaSmile",
                    f"smile_{i}",
                    {
                        "forward": forward,
                        "root_variances": _sorted_uniform(rng, 0.001, 0.15, 3),
                        "strikes": grid,
                        "expiry": rng.uniform(0.5, 2.0),
                    },
                ),
            )
        )
        jobs.append(
            (
                f"local.{i}",
                _config(
                    "LocalAttain",
                    f"local_{i}",
                    {"forward": forward, "root_variance": rng.uniform(0.005, 0.1), "strikes": grid},
                ),
            )
        )
        if i % 2:
            continue
        jobs.append(
            (
                f"fx.{i // 2}",
                _config(
                    "FxCross",
                    f"fx_{i // 2}",
                    {
                        "forward": forward,
                        "nu1": rng.uniform(0.01, 0.08),
                        "nu2": rng.uniform(0.01, 0.08),
                        "correlations": _sorted_uniform(rng, 0.0, 1.0, 5),
                        "strikes": grid,
                    },
                ),
            )
        )
        interior = _sorted_uniform(rng, 0.0, 1.0, 3 if tiny else 19)
        jobs.append(
            (
                f"global.{i // 2}",
                _config("GlobalAttain", f"global_{i // 2}", {"root_variances": [0.0] + interior + [1.0]}),
            )
        )
    return jobs


GENERATORS = {
    "refine_scaling": refine_scaling,
    "caplet_scan": caplet_scan,
    "smile_attain": smile_attain,
}


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's jobs for ``seed``; the same seed gives the same configs."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)
