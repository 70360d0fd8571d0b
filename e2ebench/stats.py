"""Pure arithmetic of the benchmark: percentiles, tallies, span self time."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

#: Tail percentiles considered, lowest first.
LADDER = (75, 90, 99)

#: A tail percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, interpolated linearly between order statistics."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count - math.ceil(count * q / 100.0)


def tail_percentile(
    count: int, ladder: Sequence[int] = LADDER, min_beyond: int = MIN_BEYOND
) -> Optional[int]:
    """The highest ladder percentile with ``min_beyond`` samples beyond it.

    ``None`` is the no-tail case: too few samples for any ladder percentile.
    """
    chosen = None
    for q in ladder:
        if samples_beyond(count, q) >= min_beyond:
            chosen = q
    return chosen


def tally(outcomes: Iterable[bool]) -> tuple[int, int]:
    """``(attempted, failed)`` of a sequence of per-operation verdicts."""
    attempted = failed = 0
    for ok in outcomes:
        attempted += 1
        failed += 0 if ok else 1
    return attempted, failed


def covered(intervals: Iterable[tuple[float, float]], low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[tuple]) -> dict:
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` holds ``(span_id, parent_id, start, end)`` tuples.  Children
    may overlap each other (threads, or a child outliving its siblings); the
    union of their intervals is subtracted once.
    """
    children: dict = {}
    for span_id, parent_id, start, end in spans:
        if parent_id is not None:
            children.setdefault(parent_id, []).append((start, end))
    return {
        span_id: (end - start) - covered(children.get(span_id, ()), start, end)
        for span_id, _, start, end in spans
    }
