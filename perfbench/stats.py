"""Summary statistics for timings: the median, and a tail at the highest
percentile that still has at least ten samples beyond it."""
from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail_percentile(n: int) -> int:
    """Highest whole percentile p whose nearest-rank value leaves at least
    TAIL_BEYOND of n samples above it; 50 when no such p >= 50 exists."""
    if n <= TAIL_BEYOND:
        return 50
    return max(50, (100 * (n - TAIL_BEYOND)) // n)


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[k - 1]


def summary(values: list[float]) -> dict:
    """Median, tail value, the tail's percentile and the sample count."""
    if not values:
        raise ValueError("no samples")
    pct = tail_percentile(len(values))
    tail = (statistics.median(values) if pct == 50
            else nearest_rank(values, pct))
    return {"p50": statistics.median(values), "tail": tail, "pct": pct,
            "n": len(values)}
