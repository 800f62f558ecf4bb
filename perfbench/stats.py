"""Summary statistics of the benchmark's timing samples.

Every timing is reported as its median plus the highest percentile that
still has at least ``MIN_TAIL`` samples beyond it, together with the sample
count, so a tail figure is never read off a handful of samples.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles considered for the tail figure, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL = 10


def nearest_rank(values, percentile: float) -> tuple[float, int]:
    """The nearest-rank percentile of ``values`` and how many samples lie beyond it.

    The nearest-rank definition picks an actual sample: the value at rank
    ``ceil(p/100 * n)`` of the sorted samples.  The samples beyond it are
    the ``n - rank`` ones after it in sorted order.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("a percentile needs at least one sample")
    if not 0.0 < percentile <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {percentile!r}")
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(values, min_tail: int = MIN_TAIL) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest ladder percentile with a real tail.

    Returns ``None`` when even the median has fewer than ``min_tail``
    samples beyond it, i.e. there are too few samples for any tail figure.
    """
    best = None
    for percentile in PERCENTILE_LADDER:
        value, beyond = nearest_rank(values, percentile)
        if beyond < min_tail:
            break
        best = (percentile, value)
    return best


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values, unit: str) -> str:
    """One human-readable line: median, quartiles, tail percentile, sample count."""
    values = list(values)
    q1, median, q3 = quartiles(values)
    text = f"median {median:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}"
    tail = tail_percentile(values)
    if tail is not None and tail[0] > 50.0:
        text += f", p{tail[0]:g} {tail[1]:.6g}"
    return text + f"; n={len(values)})"
