"""Benchmark of the momentbounds CLI: end-to-end metrics and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload refine_scaling --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a list of experiment configs generated from ``--seed`` (see
``workloads.py``).  The program sees only those JSON configs, through the
public ``cli.load_config`` and ``cli.run``.  Jobs run closed loop, one at a
time with one client, in a worker process whose BLAS libraries are pinned to
``BLAS_THREADS`` threads; ``cli.run`` keeps its default ``threads=1``.  Every
CSV is checked by an independent oracle (``oracles.py``).

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: wall time, inside a fresh interpreter, to import
  ``momentbounds.cli`` and ``load_config`` every job; median of
  ``SETUP_REPEATS`` interpreters.
* ``bounds_per_s``: bound values written to CSV per second of ``cli.run``
  time in one pass; median over passes.
* ``job_s_p50``, ``job_s_p90``: per-job ``cli.run`` time over all passes.
* ``peak_rss_mb``: peak resident memory of the worker process.

The job times are measured as wall time and scaled to a fixed machine speed:
each is multiplied by ``reference.NOMINAL_S`` over the time the workload's
reference kernel took right around it (``reference.py``), which removes the
host's speed drift from run-to-run comparisons.  The unscaled job metrics are
in the report as ``wall.*``, with the median kernel time as ``reference_s``.
Set-up time stays wall time: it is mostly imports, which follow neither
kernel's speed, and scaling it by one widened its spread.

``--trace 1`` runs traced and untraced passes alternately and reports the
per-layer metrics (``tracing.py``) and ``trace.overhead_frac``.

Both print a human-readable summary, then a ``report`` line with every metric,
its unit, sample count and basis, the failures, provenance and the SHA-256 of
one pass's CSVs, and last a JSON line with ``correct``, ``attempted``,
``failed`` and the metrics named in BENCHMARK.json.  ``attempted`` counts the
workload's distinct jobs, each run in every measured pass, and ``failed`` those
that raised or whose output failed its oracle in any pass; ``error_rate`` is
their ratio.  Every pass must write the same bytes, so these counts depend on
the seed only, not on how many passes the machine's speed allowed.
``correct`` says the run's outputs can be trusted as measured: every pass
wrote byte-identical CSVs and every oracle ran to a verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = 1
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "bounds_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics named in BENCHMARK.json: times of layers every workload
# exercises, and counts.  Times of layers only some workloads reach are in
# REPORTED_ONLY; they are printed in the report, or marked absent.
PER_LAYER = {
    "engine.self_s": "s",
    "engine.factor_psd.self_s": "s",
    "engine.symmetric_eigenvalues.self_s": "s",
    "engine.positive_eigenvalue_bound.self_s": "s",
    "moments.self_s": "s",
    "vanilla.self_s": "s",
    "vanilla.check_decreasing_convex.self_s": "s",
    "cli.load_config.self_s": "s",
    "cli.run.self_s": "s",
    "import.total_s": "s",
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.momentbounds_self_s": "s",
    "trace.overhead_frac": "ratio",
    "engine.positive_eigenvalue_bound.calls": "count",
    "engine.factor_psd.calls": "count",
    "engine.factor_psd.repeat_ratio": "ratio",
    "engine.factor_psd.eigen_frac": "ratio",
    "engine.rank_deficit": "count",
    "moments.assemble_q.calls": "count",
    "models.implied_normal_vol.calls": "count",
    "models.implied_lognormal_vol.calls": "count",
    "models.pricer_calls_per_inversion": "ratio",
    "models.lognormal_partial_moment.calls": "count",
    "vanilla.vanilla_bound.calls": "count",
    "vanilla.vanilla_bound_via_engine.calls": "count",
    "partition.partition_moment_matrix.calls": "count",
    "partition.refined_bound.calls": "count",
    "partition.dropped_cell_warnings": "count",
    "markets.caplet_bound_result.calls": "count",
    "markets.annuity_weights.calls_per_bound": "ratio",
    "attainment.binomial_calibrate.calls": "count",
    "cli.bytes_written": "count",
}

REPORTED_ONLY = [
    "models.self_s",
    "partition.self_s",
    "markets.self_s",
    "attainment.self_s",
    "moments.assemble_q.self_s",
    "models.implied_normal_vol.self_s",
    "models.implied_lognormal_vol.self_s",
    "vanilla.smile_curve.self_s",
    "vanilla.vanilla_bound_via_engine.self_s",
    "partition.flat_conditional_moments.self_s",
    "partition.linear_conditional_moments.self_s",
    "partition.partition_moment_matrix.self_s",
    "partition.refined_bound.self_s",
    "partition.refined_bound.s_per_call.flat.N1",
    *(
        f"partition.refined_bound.s_per_call.{kind}.N{n}"
        for kind in ("flat", "linear")
        for n in workloads.REFINE_CELLS
    ),
    "markets.caplet_cdf_scan.self_s",
    "markets.caplet_bound_result.self_s",
    "markets.caplet_point_mass.self_s",
    "attainment.local_attainment_scan.self_s",
    "attainment.optimal_angle.self_s",
    "attainment.carr_madan_sqrt_moment.self_s",
]

# Ratios of two counts, each reported with its basis.
RATIOS = {
    "engine.factor_psd.repeat_ratio": ("engine.factor_psd.calls", "engine.factor_psd.distinct_q"),
    "engine.factor_psd.eigen_frac": ("engine.factor_psd.eigen", "engine.factor_psd.calls"),
    "models.pricer_calls_per_inversion": ("models.pricer_calls_in_inversions", "inversions"),
    "markets.annuity_weights.calls_per_bound": (
        "markets.annuity_weights.calls",
        "markets.caplet_bound_result.calls",
    ),
}

SETUP_CODE = """
import time
start = time.perf_counter()
import json, sys
from pathlib import Path
from momentbounds import cli
jobs = Path(sys.argv[1])
for job in json.loads(jobs.read_text()):
    cli.load_config(jobs.parent / job["path"])
print(time.perf_counter() - start)
"""


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(args: list) -> subprocess.CompletedProcess:
    """Run a Python child to completion (killed and reaped on timeout)."""
    try:
        done = subprocess.run(
            [sys.executable, *args],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:2]} timed out after {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"child {args[:2]} exited {done.returncode}: {done.stderr[-2000:]}")
    return done


def write_jobs(workload: str, seed: int, work: Path, tiny: bool = False) -> Path:
    """Write the workload's configs and a jobs.json index; returns the index."""
    jobs = []
    for i, (label, config) in enumerate(workloads.generate(workload, seed, tiny)):
        name = f"{i:02d}_{label}.json"
        (work / name).write_text(json.dumps(config, indent=1))
        jobs.append({"label": label, "path": name})
    index = work / "jobs.json"
    index.write_text(json.dumps(jobs, indent=1))
    return index


def percentile(values, share: float) -> tuple:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def metric(value, unit: str, basis: str) -> dict:
    return {"value": value, "unit": unit, "basis": basis}


def scaled_job_s(one_pass: dict) -> list:
    """The pass's job times scaled to the reference speed: each by the
    kernel's ``NOMINAL_S`` over the mean of the kernel times either side of it."""
    refs, nominal = one_pass["ref_s"], reference.NOMINAL_S[one_pass["reference"]]
    return [
        t * nominal / (0.5 * (before + after))
        for t, before, after in zip(one_pass["job_s"], refs, refs[1:])
    ]


def job_metrics(passes: list, scaled: bool, prefix: str = "") -> dict:
    times_per_pass = [scaled_job_s(p) if scaled else p["job_s"] for p in passes]
    times = [t for pass_times in times_per_pass for t in pass_times]
    rates = [p["bound_values"] / sum(t) for p, t in zip(passes, times_per_pass)]
    p90, beyond = percentile(times, 0.9)
    how = "scaled to the reference speed" if scaled else "wall time"
    return {
        f"{prefix}bounds_per_s": metric(
            statistics.median(rates),
            "1/s",
            f"{how}, median of {len(passes)} passes, {passes[0]['bound_values']} bound values per pass",
        ),
        f"{prefix}job_s_p50": metric(statistics.median(times), "s", f"{how}, {len(times)} samples"),
        f"{prefix}job_s_p90": metric(p90, "s", f"{how}, {len(times)} samples, {beyond} beyond p90"),
    }


def end_to_end(passes: list, setup: list, peak_rss_mb: float) -> dict:
    refs = [r for p in passes for r in p["ref_s"]]
    return {
        "setup_s": metric(statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        **job_metrics(passes, scaled=True),
        "peak_rss_mb": metric(peak_rss_mb, "MB", "worker process ru_maxrss"),
        **job_metrics(passes, scaled=False, prefix="wall."),
        "reference_s": metric(
            statistics.median(refs),
            "s",
            f"median of {len(refs)} {passes[0]['reference']}-kernel times in the worker",
        ),
    }


def per_layer(passes: list, imports: list) -> dict:
    """Named per-layer metrics; value None marks a layer this workload never reached."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    out = {}
    for name in imports[0]:
        out[name] = metric(
            statistics.median(i[name] for i in imports), "s", f"median of {len(imports)} -X importtime runs"
        )
    per_pass = [
        {
            **p["counts"],
            "inversions": p["counts"].get("models.implied_lognormal_vol.calls", 0)
            + p["counts"].get("models.implied_normal_vol.calls", 0),
            "partition.dropped_cell_warnings": p["dropped_cell_warnings"],
            "cli.bytes_written": p["bytes_written"],
        }
        for p in traced
    ]
    counts = {key: statistics.median(c.get(key, 0) for c in per_pass) for key in set().union(*per_pass)}
    for name, unit in PER_LAYER.items():
        if unit == "count":
            out[name] = metric(counts.get(name, 0), unit, f"per pass, median of {n} traced passes")
    for name, (top, bottom) in RATIOS.items():
        num, den = counts.get(top, 0), counts.get(bottom, 0)
        out[name] = metric(num / den if den else 0.0, "ratio", f"{top} {num} / {bottom} {den} per pass")
    names = [k for k, u in PER_LAYER.items() if u == "s" and not k.startswith("import.")]
    for name in names + REPORTED_ONLY:
        values = [p["layers"][name] for p in traced if name in p["layers"]]
        out[name] = metric(
            statistics.median(values) if values else None,
            "s",
            f"median of {len(values)} traced passes" if values else "absent: no spans on this workload",
        )
    traced_s = statistics.median(sum(scaled_job_s(p)) for p in traced)
    plain_s = statistics.median(sum(scaled_job_s(p)) for p in plain)
    out["trace.overhead_frac"] = metric(
        traced_s / plain_s - 1.0,
        "ratio",
        f"median traced pass {traced_s:.4f} s ({n}) / median untraced pass {plain_s:.4f} s ({len(plain)}) - 1,"
        " both scaled to the reference speed",
    )
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not its own git repository."""
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate, set up, run and check one workload; returns its report."""
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        jobs = write_jobs(workload, seed, work)
        if trace:
            setup = []
            imports = [
                tracing.parse_importtime(
                    run_child(["-X", "importtime", "-c", SETUP_CODE, str(jobs)]).stderr
                )
                for _ in range(IMPORT_REPEATS)
            ]
        else:
            setup = [float(run_child(["-c", SETUP_CODE, str(jobs)]).stdout) for _ in range(SETUP_REPEATS)]
        raw = run_child(
            [
                str(HERE / "worker.py"),
                "--jobs", str(jobs),
                "--out", str(work / "out"),
                "--seconds", str(seconds),
                "--trace", str(int(trace)),
                "--reference", workloads.REFERENCE[workload],
            ]
        )
        result = json.loads(raw.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = result["passes"]
    jobs_per_pass = len(passes[0]["job_s"])
    digests = {p["digest"] for p in passes}
    failures = {label: msgs for p in passes for label, msgs in p["failures"].items()}
    attempted = jobs_per_pass
    failed = len(failures)
    oracle_errors = [m for msgs in failures.values() for m in msgs if m.startswith("oracle error")]
    metrics = (
        per_layer(passes, imports) if trace else end_to_end(passes, setup, result["peak_rss_mb"])
    )
    metrics["error_rate"] = metric(failed / attempted, "ratio", f"{failed} failed / {attempted} distinct jobs")
    return {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "trace": int(trace),
        "loop": f"closed loop, 1 client, {jobs_per_pass} jobs per pass, {len(passes)} passes",
        "correct": len(digests) == 1 and not oracle_errors,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "csv_sha256": sorted(digests),
        "metrics": metrics,
        "provenance": {
            **result["provenance"],
            "blas_threads_pinned": BLAS_THREADS,
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "git_commit": git_commit(),
        },
    }


def summary_lines(report: dict) -> list:
    lines = [f"{report['workload']} seed {report['seed']} trace {report['trace']}: {report['loop']}"]
    for name, m in sorted(report["metrics"].items()):
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:52s} {value:>14s} {m['unit']:6s} {m['basis']}")
    for label, msgs in sorted(report["failures"].items()):
        lines.append(f"  FAILED {label}: {'; '.join(msgs)}")
    return lines


def driver_line(reports: list, names: dict) -> dict:
    """The last output line: the metrics named in BENCHMARK.json."""
    single = len(reports) == 1
    metrics = {}
    for report in reports:
        for name, unit in names.items():
            value = report["metrics"][name]["value"]
            key = name if single else f"{report['workload']}.{name}"
            # A layer with no spans on this workload spent no time in it.
            metrics[key] = {"value": 0.0 if value is None else value, "unit": unit}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "momentbounds" / "__init__.py").is_file():
        print(f"error: no momentbounds package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print("\n".join(summary_lines(report)))
        print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(driver_line(reports, PER_LAYER if args.trace else END_TO_END)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
