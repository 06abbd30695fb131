"""Smoke test of the benchmark itself, at a tiny size:  python3 bench/smoke.py

For each workload it checks that

* the generator is deterministic in the seed and varies with it;
* every tiny job passes its oracle, and each oracle rejects the job's bound
  values perturbed by a relative 1e-9 (for the linear sandwich, whose edges
  are loose by design, bounds placed 1e-9 beyond the upper edge);
* the traced pass's spans nest with self time >= 0, and every named per-layer
  metric is emitted, or marked absent when the workload has no such spans;

and that BENCHMARK.json names the workloads and metrics run.py emits.
Exits 0 when every check passes and 1 otherwise, listing the failures.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src on sys.path)
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PERTURBATION = 1e-9


def perturbed_csv(raw: dict, csv_path: Path, target: Path) -> None:
    """Copy of the CSV with every bound value moved by a relative 1e-9."""
    cols = oracles.read_csv(csv_path)
    header = list(cols)
    for name in header:
        if name.startswith("bound") or name == "implied_sqrt_moment":
            if raw["experiment"] == "LinearRefine":
                p = raw["parameters"]
                nu = oracles.lognormal_root_variance(p["sigma"], p["expiry"])
                edge = [oracles.vanilla_bound(p["forward"], nu, k) for k in oracles.grid(p["eval_strikes"])]
                cols[name] = [e * (1.0 + PERTURBATION) + oracles.SANDWICH_ABS for e in edge]
            else:
                cols[name] = cols[name] * (1.0 + PERTURBATION)
    rows = zip(*(cols[name] for name in header))
    lines = [",".join(header)] + [",".join(f"{float(v):.11e}" for v in row) for row in rows]
    target.write_text("\n".join(lines) + "\n")


def check_workload(name: str, work: Path, problems: list) -> None:
    if workloads.generate(name, 7, tiny=True) != workloads.generate(name, 7, tiny=True):
        problems.append(f"{name}: same seed gave different configs")
    if workloads.generate(name, 7, tiny=True) == workloads.generate(name, 8, tiny=True):
        problems.append(f"{name}: different seeds gave the same configs")

    load = worker.Workload(run.write_jobs(name, 7, work, tiny=True), work / "out", workloads.REFERENCE[name])
    plain = load.run_pass()
    plain["traced"] = False
    for label, msgs in plain["failures"].items():
        problems.append(f"{name} {label}: tiny job failed: {msgs}")
    for label, raw, config in zip(load.labels, load.raw, load.configs):
        target = work / f"perturbed_{config.output}.csv"
        perturbed_csv(raw, load.out_dir / f"{config.output}.csv", target)
        if not oracles.check(raw, target):
            problems.append(f"{name} {label}: oracle accepted bounds perturbed by {PERTURBATION}")

    tracer = tracing.Tracer()
    with tracer.installed():
        traced = load.run_pass(tracer)
    spans, counts = tracer.take_pass()
    if not spans:
        problems.append(f"{name}: traced pass recorded no spans")
    try:
        tracing.self_times(spans)
    except ValueError as exc:
        problems.append(f"{name}: spans do not nest: {exc}")
        return
    traced.update(traced=True, layers=tracing.summarise_pass(spans), counts=dict(counts))
    imports = [tracing.parse_importtime(run.run_child(["-X", "importtime", "-c", "import momentbounds.cli"]).stderr)]
    layers = run.per_layer([traced, plain], imports)
    for metric in [*run.PER_LAYER, *run.REPORTED_ONLY]:
        entry = layers.get(metric)
        if entry is None:
            problems.append(f"{name}: per-layer metric {metric} not emitted")
        elif entry["value"] is None and not entry["basis"].startswith("absent"):
            problems.append(f"{name}: {metric} has no value and is not marked absent")
        elif metric in run.PER_LAYER and entry["value"] is None:
            problems.append(f"{name}: {metric} is named in BENCHMARK.json but absent")
    e2e = run.end_to_end([plain], [0.5], 1.0)
    missing = set(run.END_TO_END) - set(e2e)
    if missing:
        problems.append(f"{name}: end-to-end metrics not emitted: {sorted(missing)}")


def check_benchmark_json(problems: list) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if {w["name"]: w["why"] for w in spec["workloads"]} != workloads.WHY:
        problems.append("BENCHMARK.json workloads differ from workloads.WHY")
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        if named != emitted:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {sorted(set(named) ^ set(emitted))}")


def main() -> int:
    problems = []
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix=f"smoke-{name}-", dir=scratch))
        try:
            check_workload(name, work, problems)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    check_benchmark_json(problems)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
