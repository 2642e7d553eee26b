"""Sample summaries: median, quartiles and the highest percentile a sample supports."""

from __future__ import annotations

import math
import statistics

#: candidate tail percentiles, lowest first
_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: a percentile is reported only with at least this many samples beyond it
_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def highest_supported_percentile(n: int) -> float:
    """The highest ladder percentile with >= 10 of ``n`` samples beyond it.

    A p99 over 240 samples rests on two or three of them; the rule keeps
    a tail number only where ten samples carry it.  Below 20 samples
    nothing beyond the median qualifies and the median itself is returned.
    """
    best = _LADDER[0]
    for pct in _LADDER:
        if round(n * (100.0 - pct) / 100.0, 6) >= _MIN_BEYOND:
            best = pct
    return best


def summarize(values) -> dict:
    """Median, quartiles, sample count and the supported tail of one sample."""
    values = [float(v) for v in values]
    if not values:
        return {"n": 0}
    q1, q2, q3 = quartiles(values)
    hi_pct = highest_supported_percentile(len(values))
    return {
        "n": len(values),
        "p50": q2,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "hi_pct": hi_pct,
        "hi": percentile(values, hi_pct),
    }
