"""Order statistics shared by the runner, the calibrator and the comparer.

Percentiles use the nearest-rank definition and refuse to report a tail
the sample cannot support: a percentile is only quoted when at least
:data:`MIN_TAIL` samples lie strictly beyond it.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie strictly beyond a reported percentile
MIN_TAIL = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (``0 < q < 100``) of *samples*.

    Raises:
        ValueError: fewer than :data:`MIN_TAIL` samples lie beyond it.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {n - rank} beyond it; "
            f"need at least {MIN_TAIL}")
    return sorted(samples)[rank - 1]


def segmented_percentile(samples: Sequence[float], q: float,
                         segment: int) -> float:
    """Median over consecutive segments of at least *segment* samples of
    each segment's *q*-th percentile (one segment when the run is
    shorter).  A slow phase in a minority of segments does not move it.
    """
    n_segments = max(1, len(samples) // segment)
    bounds = [len(samples) * i // n_segments for i in range(n_segments + 1)]
    return statistics.median(
        percentile(samples[lo:hi], q) for lo, hi in zip(bounds, bounds[1:]))


def segmented_rate(work: Sequence[float], seconds: Sequence[float],
                   segment: int) -> float:
    """Median over consecutive segments of at least *segment* items of
    ``sum(work) / sum(seconds)`` (one segment when there are fewer)."""
    n_segments = max(1, len(work) // segment)
    bounds = [len(work) * i // n_segments for i in range(n_segments + 1)]
    return statistics.median(
        sum(work[lo:hi]) / sum(seconds[lo:hi])
        for lo, hi in zip(bounds, bounds[1:]))


def summary(values: Sequence[float]) -> dict:
    """Median, quartiles and relative spread of repeated measurements.

    Quartiles are ``statistics.quantiles(values, n=4)``; ``spread`` is the
    interquartile distance as a share of the median.
    """
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread, "values": values}
