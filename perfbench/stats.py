"""Percentiles for latency samples.

A timing is reported as its median and as the highest percentile that still
has at least ten samples beyond it, with the sample count, so a tail figure
never rests on a handful of outliers.
"""

from __future__ import annotations

import math

#: Percentiles tried, highest first, by :func:`tail`.
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(len(ordered), p) - 1])


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond percentile ``p``."""
    return n - _rank(n, p)


def tail(values) -> tuple[float, float]:
    """``(p, value)`` for the highest percentile in :data:`LADDER` with
    at least :data:`MIN_BEYOND` samples beyond it."""
    n = len(values)
    for p in LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            return p, percentile(values, p)
    raise ValueError(f"{n} samples cannot support any percentile in {LADDER}")


def median(values) -> float:
    """The middle sample (mean of the two middle ones for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0
