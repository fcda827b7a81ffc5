"""Summary statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still
has at least ten samples beyond it, so a tail figure never rests on a
handful of points. Below eleven samples no percentile qualifies and the
tail falls back to the maximum; the sample count is always reported
next to it.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Percentiles considered for the tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile of ``values`` (0 < p <= 100)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly past the nearest-rank ``p``."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(values: Sequence[float]) -> tuple[float, float]:
    """``(p, value)`` for the highest percentile with :data:`MIN_BEYOND` samples past it.

    Falls back to ``(100.0, max)`` when the sample is too small for any
    of :data:`TAIL_PERCENTILES` to qualify.
    """
    if not values:
        raise ValueError("no samples")
    for p in TAIL_PERCENTILES:
        if samples_beyond(len(values), p) >= MIN_BEYOND:
            return p, nearest_rank(values, p)
    return 100.0, max(values)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def served_fraction(attempted: int, failed: int) -> float:
    """Share of attempted operations that were served (refusals count as failures)."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    return (attempted - failed) / attempted
