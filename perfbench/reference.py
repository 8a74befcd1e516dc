"""A fixed reference job that measures how fast the host runs right now.

The benchmark's host shares its cores with other machines, and its speed
drifts by up to half over a few minutes, so wall times of runs made minutes
apart differ by more than any bound worth checking.  The reference job does
the two kinds of work a round is made of, and nothing of the engine: a
worker task of numpy calls on small arrays and a Python heap loop (like the
polylabel kernel), and empty-task round trips between driver and worker
(like Ray Data's scheduling).  ``run.py`` times it before every round and
scales the end-to-end times by the median against ``REF_S``.
"""

from __future__ import annotations

import heapq
import time

import numpy as np
import ray

# the reference job's wall time on an idle host (2.0 GHz Xeon vCPU)
REF_S = 0.2
COMPUTE_STEPS = 3000
ROUND_TRIPS = 20


def _compute(steps: int) -> float:
    x = np.linspace(0.0, 1.0, 2048)
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for i in range(steps):
        y = np.hypot(x - i * 1e-3, x[::-1])
        acc += float(np.minimum.reduce(y))
        heapq.heappush(heap, (-acc, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


@ray.remote(num_cpus=1)
def _task(steps: int) -> float:
    return _compute(steps)


def reference_s() -> float:
    """Wall seconds of one reference job in the current Ray session."""
    t0 = time.perf_counter()
    ray.get(_task.remote(COMPUTE_STEPS))
    for _ in range(ROUND_TRIPS):
        ray.get(_task.remote(0))
    return time.perf_counter() - t0
