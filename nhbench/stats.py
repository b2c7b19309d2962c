"""Summaries of per-job wall times."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float]:
    """The highest percentile that still has ``TAIL_BEYOND`` samples above it.

    Returns ``(value, percentile)``. Order statistic ``k`` (0-based, of
    ``n``) has ``n - 1 - k`` samples above it and sits at percentile
    ``100 k / (n - 1)``. With ``TAIL_BEYOND`` samples or fewer no
    percentile qualifies and the minimum is returned at percentile 0.
    """
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    n = len(xs)
    k = max(n - 1 - TAIL_BEYOND, 0)
    return xs[k], (100.0 * k / (n - 1) if n > 1 else 0.0)


def quartiles(samples) -> tuple[float, float, float]:
    """(q1, median, q3), by ``statistics.quantiles`` with its default method."""
    xs = list(samples)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3
