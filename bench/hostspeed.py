"""A fixed reference workload that measures how fast the host runs right now.

The host this benchmark was built on changes speed by up to 2x, for spells
of a second to several minutes, with CPU time equal to wall time (see
README.md).  The kernel below mixes the two kinds of work the simulator does,
small numpy array arithmetic and a Python heap-and-dict graph search, and is
independent of the package under test.  It is short enough to run before
every tick.  ``REFERENCE_S`` over its time next to a measurement is the
factor that scales that measurement to reference-speed seconds.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# About the time of kernel() between the simulator's ticks on a 2-vCPU x86-64
# VM with Python 3.11 and numpy 2.4, the host on which the bounds were set.
REFERENCE_S = 0.0005

_rng = np.random.default_rng(0)
_ORIGINS = _rng.random((400, 3))
_DIRS = _rng.random((400, 3)) - 0.5
_LO = _rng.random((6, 3))
_HI = _LO + 0.5
_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def kernel() -> float:
    """Slab tests of 400 rays against 6 boxes, then a 60-node Dijkstra on an
    unbounded grid: about 0.5 ms.  Returns a checksum."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / _DIRS
        t1 = (_LO[None] - _ORIGINS[:, None]) * inv[:, None]
        t2 = (_HI[None] - _ORIGINS[:, None]) * inv[:, None]
        acc = float(np.fmin(t1, t2).max(axis=2).sum())
    dist = {(0, 0, 0): 0}
    heap = [(0, (0, 0, 0))]
    settled = set()
    while heap and len(settled) < 60:
        d, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        for dx, dy, dz in _STEPS:
            n = (v[0] + dx, v[1] + dy, v[2] + dz)
            if n not in settled and d + 1 < dist.get(n, d + 2):
                dist[n] = d + 1
                heapq.heappush(heap, (d + 1, n))
    return acc + len(settled)


def timed_kernel() -> float:
    """Host seconds of one kernel() call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
