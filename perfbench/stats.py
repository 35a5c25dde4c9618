"""Percentiles, interval arithmetic and peak memory for the benchmark."""

from __future__ import annotations

import math
import resource
import statistics

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def nearest_rank(n: int, pct: float) -> int:
    """1-based nearest-rank index of percentile ``pct`` among ``n`` samples."""
    if n <= 0:
        raise ValueError("no samples")
    rank = math.ceil(pct * n / 100.0 - 1e-9)
    return min(max(rank, 1), n)


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above percentile ``pct``."""
    return n - nearest_rank(n, pct)


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile (an actual sample, never interpolated)."""
    ordered = sorted(samples)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def tail_percentile(n: int, ladder=TAIL_LADDER, min_beyond: int = MIN_BEYOND):
    """Highest percentile in ``ladder`` with ``min_beyond`` samples past it.

    Returns ``None`` when even the lowest rung is unsupported.
    """
    for pct in ladder:
        if n > 0 and beyond(n, pct) >= min_beyond:
            return pct
    return None


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def union(intervals) -> list[tuple[float, float]]:
    """Merge ``(start, end)`` intervals into a sorted disjoint list."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def length(disjoint) -> float:
    return sum(e - s for s, e in disjoint)


def overlap(a, b) -> float:
    """Total length of the intersection of two disjoint sorted lists."""
    i = j = 0
    total = 0.0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total
