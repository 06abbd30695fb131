"""Reference kernels: fixed pieces of work that measure how fast the machine runs now.

The benchmark shares a few cores of a host whose speed drifts by up to about
1.5x over seconds and minutes, and CPU time drifts with wall time, so it is
not waiting that changes but the speed of the cores.  The worker times a
kernel between jobs and ``run.py`` scales each job's wall time by
``NOMINAL_S[kind] / (kernel time around the job)``.  The gated job times are
seconds on a machine where the kernel takes ``NOMINAL_S``; the raw wall
times are reported next to them.

How much a job speeds up or slows down with the host depends on what it
spends its time on, so each workload names the kernel that does the same kind
of work (``workloads.REFERENCE``):

* ``interpreted``: Python arithmetic and many tiny LAPACK calls, like the
  implied-vol bisections, 2x2/3x3 engine solves and CLI parsing;
* ``dense``: outer-product updates of a mid-sized array (as in a pivoted
  Cholesky) and a mid-sized symmetric eigendecomposition, like the 2N x 2N
  engine.  The interpreted kernel over-corrects such jobs, which follow the
  host's speed less.

The kernels do not touch momentbounds, so no change to the package moves
them.  Changing one changes every gated time; leave them alone.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About what each kernel takes on a 2-vCPU x86 host with OpenBLAS pinned to
# one thread; only units, never compared with.
NOMINAL_S = {"interpreted": 0.001, "dense": 0.005}

_RNG = np.random.default_rng(20171205)
_SMALL = [m @ m.T + np.eye(3) for m in _RNG.standard_normal((12, 3, 3))]
_MID64 = (lambda m: m @ m.T)(_RNG.standard_normal((64, 64)))
_MID128 = (lambda m: m @ m.T)(_RNG.standard_normal((128, 128)))


def _interpreted() -> float:
    total = 0.0
    for i in range(1, 400):
        total += math.log(i) * math.exp(-1.0 / i)
    for m in _SMALL:
        total += float(np.linalg.eigvalsh(m)[-1])
        total += float(np.linalg.cholesky(m)[0, 0])
    w, _ = np.linalg.eigh(_MID64)
    return total + float(w[-1])


def _dense() -> float:
    a = _MID128.copy()
    for j in range(40):
        a[j + 1 :, j] /= 3.0
        a[j + 1 :, j + 1 :] -= np.outer(a[j + 1 :, j], a[j + 1 :, j]) * 1e-3
    w, _ = np.linalg.eigh(_MID128)
    return float(a[-1, -1]) + float(w[-1])


KERNELS = {"interpreted": _interpreted, "dense": _dense}


def timed(kind: str, repeats: int = 2) -> float:
    """Fastest of ``repeats`` back-to-back runs of the kernel, in seconds; the
    minimum drops a run that the scheduler interrupted."""
    kernel = KERNELS[kind]
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best

