"""Per-layer tracing of the momentbounds package, installed from outside it.

``Tracer.installed()`` wraps the public functions of each module (those in
its ``__all__``) for the duration of a ``with`` block.  Modules bind names with
``from .x import f``, so a function is reachable under several module
attributes; the wrapper goes on every attribute of every package module that
holds the same function object, and the originals are put back on exit.

Most functions get a span (name, parent, job, start, end).  Functions called
tens of thousands of times per pass are only counted (pricers, two-state model
calibration) or left alone (normal CDF/PDF, two-state call price), so the
trace does not swamp what it measures; their time stays in the self time of
the span that called them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import re
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("engine", "moments", "models", "vanilla", "partition", "markets", "attainment", "cli")

COUNT_ONLY = {
    "models.bs_call_price",
    "models.bachelier_call_price",
    "models.binomial_price",
    "models.lognormal_partial_moment",
    "attainment.binomial_calibrate",
}
UNTRACED = {"models.norm_cdf", "models.norm_pdf", "attainment.binomial_call_price"}
PRICERS = {"models.bs_call_price", "models.bachelier_call_price"}
INVERSIONS = {"models.implied_lognormal_vol", "models.implied_normal_vol"}

# Span record fields.
NAME, PARENT, JOB, START, END = range(5)


class Tracer:
    """Spans and counters for one traced pass at a time.

    ``job`` is set by the caller before each job, so spans can be grouped by
    the job that caused them.  ``take_pass()`` returns the pass's spans and
    counters and starts a new pass.
    """

    def __init__(self):
        self.job = ""
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.q_digests = set()

    def take_pass(self):
        """The pass's spans and counters; clears them for the next pass."""
        self.counts["engine.factor_psd.distinct_q"] = len(self.q_digests)
        spans, counts = self.spans[:], dict(self.counts)
        for container in (self.spans, self.stack, self.counts, self.q_digests):
            container.clear()
        return spans, counts

    # -- wrappers -----------------------------------------------------------
    # The containers are bound once per wrapper and cleared between passes,
    # which keeps the per-call cost to a few dictionary and list operations.

    def _spanned(self, name, fn):
        tracer, spans, stack, counts = self, self.spans, self.stack, self.counts
        key = name + ".calls"
        hook = _RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, tracer.job, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            counts[key] += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        def pricer(*args, **kwargs):
            counts[key] += 1
            if stack and spans[stack[-1]][NAME] in INVERSIONS:
                counts["models.pricer_calls_in_inversions"] += 1
            return fn(*args, **kwargs)

        return pricer if name in PRICERS else wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of every layer; restore on exit."""
        layers = {layer: importlib.import_module(f"momentbounds.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in layers.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name not in UNTRACED:
                    make = self._counted if name in COUNT_ONLY else self._spanned
                    wrappers[id(fn)] = (fn, make(name, fn))
        saved = []
        for module in [importlib.import_module("momentbounds"), *layers.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        try:
            yield
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)


def _on_factor(tracer, args, factor):
    q = args[0]
    entries = np.ascontiguousarray(getattr(q, "entries", q), dtype=float)
    tracer.q_digests.add(hashlib.sha1(entries.tobytes()).digest())
    tracer.counts["engine.rank_deficit"] += entries.shape[0] - factor.rank
    if factor.method == "eigen":
        tracer.counts["engine.factor_psd.eigen"] += 1


_RESULT_HOOKS = {"engine.factor_psd": _on_factor}


def self_times(spans) -> list:
    """Self time of each span (duration minus its children's durations).

    Raises ValueError if a child does not lie inside its parent, or a self
    time is negative beyond clock rounding: either means the spans do not nest.
    """
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            outer = spans[parent]
            if not (parent < i and outer[START] <= span[START] and span[END] <= outer[END]):
                raise ValueError(f"span {i} ({span[NAME]}) is not inside its parent {parent}")
            child[parent] += span[END] - span[START]
    result = [span[END] - span[START] - c for span, c in zip(spans, child)]
    if any(s < -1e-9 for s in result):
        raise ValueError("negative self time")
    return result


def summarise_pass(spans) -> dict:
    """Per-name self time, per-layer self time and refined_bound time per call
    by job, for one pass."""
    selfs = self_times(spans)
    by_name = defaultdict(float)
    refine_time = defaultdict(float)
    refine_calls = Counter()
    for span, own in zip(spans, selfs):
        by_name[span[NAME]] += own
        if span[NAME] == "partition.refined_bound":
            size = span[JOB].split("-")[0]  # all draws of one kind and size
            refine_time[size] += span[END] - span[START]
            refine_calls[size] += 1
    out = {f"{name}.self_s": value for name, value in by_name.items()}
    for layer in LAYERS:
        own = [v for k, v in by_name.items() if k.startswith(layer + ".")]
        if own:
            out[f"{layer}.self_s"] = sum(own)
    for size, total in refine_time.items():
        out[f"partition.refined_bound.s_per_call.{size}"] = total / refine_calls[size]
    return out


_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( +)(\S+)")


def parse_importtime(stderr: str) -> dict:
    """Import cost from ``python -X importtime`` output, in seconds.

    ``import.numpy_s`` and ``import.scipy_s`` sum the cumulative time of each
    library's outermost entries (those with no numpy or scipy module above
    them), so neither counts the other's share; ``import.momentbounds_self_s``
    is the package's own modules' self time.  A module is listed after the
    modules it imported, one indent level deeper, so ancestors are found by
    reading the lines backwards.
    """
    lines = [
        (int(self_us) * 1e-6, int(cumulative_us) * 1e-6, len(indent) // 2, module.split(".")[0])
        for self_us, cumulative_us, indent, module in _IMPORT_LINE.findall(stderr)
    ]
    out = dict.fromkeys(
        ("import.total_s", "import.numpy_s", "import.scipy_s", "import.momentbounds_self_s"), 0.0
    )
    ancestors = []
    for self_s, cumulative_s, depth, top in reversed(lines):
        del ancestors[depth:]
        out["import.total_s"] += self_s
        if top == "momentbounds":
            out["import.momentbounds_self_s"] += self_s
        if top in ("numpy", "scipy") and not {"numpy", "scipy"} & set(ancestors):
            out[f"import.{top}_s"] += cumulative_s
        ancestors += [None] * (depth - len(ancestors)) + [top]
    return out
