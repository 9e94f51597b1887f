"""Order statistics for latency samples.

One rule governs every reported timing: a percentile is only reported
when at least :data:`MIN_BEYOND` samples lie beyond it, and the sample
count is printed beside it.
"""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

#: Percentiles tried, highest first, when picking the tail to report.
TAIL_CANDIDATES = (0.999, 0.99, 0.95, 0.9, 0.75)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported(count: int, q: float) -> bool:
    """True when ``count`` samples leave MIN_BEYOND beyond quantile ``q``."""
    return round(count * (1.0 - q), 6) >= MIN_BEYOND  # 1 - 0.9 < 0.1


def highest_supported(count: int) -> Optional[float]:
    """The highest tail percentile ``count`` samples can support."""
    for q in TAIL_CANDIDATES:
        if supported(count, q):
            return q
    return None


def tail(values: Sequence[float], wanted: float) -> Tuple[float, float]:
    """``(q, value)`` for the wanted percentile, or the highest one the
    sample supports when it is too small for the wanted one."""
    q = wanted if supported(len(values), wanted) \
        else (highest_supported(len(values)) or 0.5)
    return q, percentile(values, q)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift_share(completion_times: List[float], start: float,
                end: float) -> float:
    """Throughput of the last third of the window against the first
    third, as a signed share (0 = stationary)."""
    third = (end - start) / 3.0
    first = sum(1 for t in completion_times if t < start + third)
    last = sum(1 for t in completion_times if t >= end - third)
    return (last - first) / first if first else 0.0
