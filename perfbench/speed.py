"""Machine-speed calibration for timings taken on a shared host.

On the few cores a shared host gives the benchmark, each core's speed
flips between a fast and a slow level (up to 1.8x apart) on a scale of
seconds, independently of the other core, and the share of time spent
slow moves over minutes with the load of other tenants.  So the raw wall
time of a fixed piece of work moves more between runs than any bound a
benchmark can keep.  The benchmark therefore runs short bursts of a fixed
pure-Python reference loop (graph searches over a fixed graph, the same
kind of work as the program's own loops) between its timed samples, all
`pinned` to one CPU (a burst on the other core tracked a sample worse than
no burst at all), and also reports each sample at reference speed:

    t_ref = t * NOMINAL_BURST_S / mean(burst before, burst after)

which reads as the time the sample would take on a machine where one
burst takes NOMINAL_BURST_S.  A faster or slower program moves t_ref; a
faster or slower host moves t and the bursts together and leaves t_ref.
On sets of five runs of each workload, the median of t_ref over a run
spread 2.5-12.7% (interquartile range over median) where the median of t
spread 8-16%; scaling by the run's mean burst instead did no better.
"""
from __future__ import annotations

import os
import time
from collections import deque
from contextlib import contextmanager

# About what one burst takes on the 2-core Xeon host the baseline was
# measured on, in its fast spells.
NOMINAL_BURST_S = 0.005
BURST_REPS = 8

_N = 400
# A fixed 4-regular circulant graph: i ~ i +- 1, i +- 7 (mod _N).
_ADJ = [sorted({(i + d) % _N for d in (1, -1, 7, -7)}) for i in range(_N)]


def reference_loop(sources: int = 32) -> int:
    """Breadth-first searches from the first `sources` vertices of the
    fixed graph; returns the sum of all distances found."""
    total = 0
    for s in range(sources):
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = dist[u] + 1
            for w in _ADJ[u]:
                if w not in dist:
                    dist[w] = du
                    queue.append(w)
        total += sum(dist.values())
    return total


def burst() -> float:
    """Mean wall time of BURST_REPS runs of the reference loop.  A long
    sample pays the core's speed averaged over its length, so the burst
    averages too (it tracked 2-second passes better than a median did)."""
    t0 = time.perf_counter()
    for _ in range(BURST_REPS):
        reference_loop()
    return (time.perf_counter() - t0) / BURST_REPS


@contextmanager
def pinned(cpus: set[int]):
    """Run this thread, and the processes it starts, on `cpus` only."""
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


class Calibrated:
    """Timed samples with a reference burst before the first one and after
    each one, so that every sample lies between two bursts."""

    def __init__(self):
        self.bursts = [burst()]
        self.samples: list[tuple[str, float]] = []

    def add(self, kind: str, seconds: float) -> None:
        """Record a sample that was just taken, then run a burst."""
        self.samples.append((kind, seconds))
        self.bursts.append(burst())

    def raw(self, kind: str) -> list[float]:
        return [t for k, t in self.samples if k == kind]

    def at_reference(self, kind: str) -> list[float]:
        b = self.bursts
        return [t * NOMINAL_BURST_S / ((b[j] + b[j + 1]) / 2)
                for j, (k, t) in enumerate(self.samples) if k == kind]
