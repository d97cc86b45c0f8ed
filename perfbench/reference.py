"""A fixed reference computation that gauges the host's current speed.

On a shared host, other tenants slow the same work by up to 1.8x, in states
that last from under a second to minutes, so the raw wall time of a run says
as much about when it ran as about the code.  run.py therefore times this
computation right before and right after each instance and reports the
instance's time relative to it.  The computation is frozen here, apart from
the package, so it costs the same on every commit; it does the kind of work
the workloads do (a Python-level loop of small NumPy and banded SciPy calls,
and random sampling with log-sums), so interference slows it by about as
much as it slows them.  Do not change it: doing so rescales ``wall_s``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

# Typical time of one reference() call on the machine the benchmark was
# built on (2-vCPU Intel Xeon VM, Python 3.11, NumPy 2.4, SciPy 1.17);
# wall_s is an instance's time in units of reference() times this.
REFERENCE_S = 0.0064

DT = 1e-2
# (cells, steps): small arrays like simulate-ref's and ineq-lab's, large
# ones like vacuum-fine's, whose time depends more on the memory caches
SIZES = ((200, 24), (2000, 6))
SAMPLES = 24


def _factor(n: int) -> np.ndarray:
    """Banded Cholesky factor of I - DT * Laplacian (Neumann) on n cells."""
    h2 = 1.0 / n**2
    ab = np.zeros((2, n))
    ab[0, 1:] = -DT / h2
    ab[1] = 1.0 + 2.0 * DT / h2
    ab[1, 0] = ab[1, -1] = 1.0 + DT / h2
    return cholesky_banded(ab)


_GRIDS = [((np.arange(n) + 0.5) / n, _factor(n), steps) for n, steps in SIZES]


def reference() -> float:
    """Implicit reaction-diffusion steps on 200 and 2000 cells, then 24
    entropy samples on 64 cells."""
    acc = 0.0
    for x, factor, steps in _GRIDS:
        u = 2.0 + np.cos(np.pi * x)
        v = np.full(x.size, 2.0)
        w = np.zeros(x.size)
        for _ in range(steps):
            r = u * v - w
            u1 = cho_solve_banded((factor, False), u - DT * r)
            v1 = cho_solve_banded((factor, False), v - DT * r)
            w1 = cho_solve_banded((factor, False), w + DT * r)
            u1[np.argmax(u1)] += math.fsum(u) - math.fsum(u1)
            acc += float(np.max(np.abs(u1 - u) / (u + 1e-12)))
            u, v, w = u1, v1, np.maximum(w1, 0.0)
    rng = np.random.default_rng(0)
    for _ in range(SAMPLES):
        p = rng.uniform(0.0, 1.0, 64) + rng.exponential(1.0, 64)
        p /= p.sum()
        acc += float(np.sum(p * np.log(p))) + float(np.max(np.diff(p)))
    return acc
