"""Order statistics shared by the harness and the compare report."""

from __future__ import annotations

import statistics

#: The tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives
    them (a single value is its own quartiles)."""
    values = list(values)
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def tail(samples) -> tuple[float, float]:
    """``(value, percentile)`` of the latency tail.

    The tail is the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it: the sample with ten larger
    ones, at percentile ``100 * (n - 10) / n``.  Below ``2 *
    TAIL_BEYOND`` samples that percentile falls under the median, which
    a tail cannot be, so the median sample is reported instead: a run
    that short supports no tail estimate beyond its median.
    """
    s = sorted(samples)
    n = len(s)
    idx = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return float(s[idx]), 100.0 * (idx + 1) / n
