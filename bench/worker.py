"""Benchmark worker: runs one workload's jobs closed-loop through the public CLI.

Started by ``run.py`` with BLAS threads pinned in its environment; not meant to
be run by hand.  It loads every job with ``cli.load_config``, runs one warm-up
pass, then runs whole passes (each job once, in order, one at a time) until
``--seconds`` have elapsed and at least ``MIN_JOB_SAMPLES`` jobs have run.
Only ``cli.run`` is timed, and the workload's reference kernel
(``reference.py``, named by ``--reference``) is timed before the first job
and right after every job, so that each job time has the
machine's speed measured on both sides of it.  After each job its CSV
is checked by the job's oracle; a job fails if ``cli.run`` raises or the
oracle reports a violation.  The verdict is cached by the CSV's SHA-256, since
identical bytes get the identical verdict.

With ``--trace 1`` traced and untraced passes alternate: the traced ones give
the per-layer numbers, the untraced ones the base for the tracing overhead.

Prints one JSON object with the raw per-pass results on its last line.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

from momentbounds import cli  # noqa: E402

import oracles  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

# Keep running passes past --seconds until there are this many job times, so
# that p90 has at least 10 samples beyond it on a slower machine too.
MIN_JOB_SAMPLES = 110


def _bound_values(csv_path: Path) -> int:
    """Bound values in a CSV: rows times bound columns (GlobalAttain's
    implied moment counts as its bound column)."""
    with open(csv_path) as handle:
        header = handle.readline().strip().split(",")
        rows = sum(1 for _ in handle)
    columns = sum(1 for c in header if c.startswith("bound") or c == "implied_sqrt_moment")
    return rows * columns


class Workload:
    def __init__(self, jobs_file: Path, out_dir: Path, reference_kind: str):
        spec = json.loads(jobs_file.read_text())
        self.labels = [job["label"] for job in spec]
        self.paths = [jobs_file.parent / job["path"] for job in spec]
        self.raw = [json.loads(p.read_text()) for p in self.paths]
        self.configs = [cli.load_config(p) for p in self.paths]
        self.out_dir = out_dir
        self.reference = reference_kind
        self.verdicts = {}

    def run_pass(self, tracer=None) -> dict:
        """Run every job once; with a tracer, also reload every config traced."""
        if tracer is not None:
            tracer.job = "load_config"
            for path in self.paths:
                cli.load_config(path)
        times, failures, digest = [], {}, hashlib.sha256()
        refs = [reference.timed(self.reference)]
        bounds = written = dropped = 0
        for label, config, raw in zip(self.labels, self.configs, self.raw):
            if tracer is not None:
                tracer.job = label
            error = None
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                try:
                    cli.run(config, self.out_dir)
                except Exception as exc:  # a failed job is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            refs.append(reference.timed(self.reference))
            times.append(elapsed)
            dropped += sum(1 for w in caught if str(w.message).startswith("dropped"))
            if error is not None:
                failures[label] = [error]
                continue
            csv_path = self.out_dir / f"{config.output}.csv"
            data = csv_path.read_bytes()
            digest.update(data)
            written += len(data) + (self.out_dir / f"{config.output}_manifest.json").stat().st_size
            bounds += _bound_values(csv_path)
            key = (label, hashlib.sha256(data).hexdigest())
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = oracles.check(raw, csv_path)
                except Exception as exc:  # an oracle that cannot read the output fails the job
                    self.verdicts[key] = [f"oracle error: {type(exc).__name__}: {exc}"]
            if self.verdicts[key]:
                failures[label] = self.verdicts[key]
        return {
            "job_s": times,
            "ref_s": refs,
            "reference": self.reference,
            "bound_values": bounds,
            "bytes_written": written,
            "dropped_cell_warnings": dropped,
            "failures": failures,
            "digest": digest.hexdigest(),
        }


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as handle:
        paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = int(fn())
                break
    return found


def provenance() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference", choices=list(reference.KERNELS), required=True)
    args = parser.parse_args()

    package = Path(cli.__file__).resolve().parent
    if package != ROOT / "src" / "momentbounds":
        print(f"error: imported momentbounds from {package}, not from this checkout", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    workload = Workload(args.jobs, args.out, args.reference)
    workload.run_pass()  # warm-up: lazy imports, quadrature-rule cache

    tracer = tracing.Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    samples = 0
    # At least two passes, so a traced run has an untraced pass to compare with.
    while time.perf_counter() - start < args.seconds or samples < MIN_JOB_SAMPLES or len(passes) < 2:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            with tracer.installed():
                result = workload.run_pass(tracer)
            spans, counts = tracer.take_pass()
            result["layers"] = tracing.summarise_pass(spans)
            result["counts"] = dict(counts)
        else:
            result = workload.run_pass()
        result["traced"] = traced
        passes.append(result)
        samples += len(result["job_s"])

    print(
        json.dumps(
            {
                "passes": passes,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "provenance": provenance(),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
