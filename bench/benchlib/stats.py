"""Estimators the workloads report: medians, percentiles, medians over
windows, and the quartile spread the acceptance rule is stated in."""

from __future__ import annotations

import statistics
from typing import Iterable, List, Sequence, Tuple

median = statistics.median


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation
    between closest ranks; raises on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def windows(
    samples: Iterable[Tuple[float, float]],
    start: float,
    width: float,
    count: int,
) -> List[List[float]]:
    """Bucket ``(time, value)`` samples into ``count`` consecutive
    windows of ``width`` seconds from ``start``; samples outside every
    window are dropped.

    Every fleet metric is the median over windows of a per-window
    figure: one stalled second moves one window, not the number
    reported.
    """
    if width <= 0 or count < 1:
        raise ValueError("windows need a positive width and count")
    buckets: List[List[float]] = [[] for _ in range(count)]
    for when, value in samples:
        index = int((when - start) // width)
        if 0 <= index < count:
            buckets[index].append(value)
    return buckets


def assembled_pass(
    totals: List[float], parts: List[List[float]]
) -> Tuple[float, List[float]]:
    """One pass assembled from the medians of its parts.

    Every pass repeats the same trials, so trial ``i`` of every pass
    is the same work: the pass is reported as the sum over ``i`` of the
    median (across passes) of trial ``i``, plus the median of what a
    pass spends outside its trials. A noisy-neighbour burst that lands
    on one trial of one pass then moves nothing, where it would move
    the median of three whole passes. Returns (total, per-trial
    medians).
    """
    per_trial = [median(column) for column in zip(*parts)]
    outside = median([t - sum(row) for t, row in zip(totals, parts)])
    return sum(per_trial) + outside, per_trial


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with ``statistics.quantiles(n=4)`` quartiles;
    0.0 for fewer than two values or a zero median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    centre = median(values)
    if centre == 0:
        return 0.0
    return (q3 - q1) / abs(centre)
