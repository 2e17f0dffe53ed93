"""Statistics helpers: percentiles, summaries, baseline reductions."""

from __future__ import annotations

import math
from typing import Sequence

from repro.common.errors import ClusterError
from repro.common.frozen import value_object


def fraction_at_or_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of *values* that are <= *threshold* (a point on the CDF)."""
    if not values:
        return 0.0
    return sum(1 for value in values if value <= threshold) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) using linear interpolation."""
    if not values:
        raise ClusterError("cannot take a percentile of an empty sequence")
    return _percentile_sorted(sorted(values), q)


def _percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """:func:`percentile` over an already-sorted, non-empty sequence (the
    kernel the streaming sketches share, so *q* is checked here, once)."""
    if not 0.0 <= q <= 100.0:
        raise ClusterError(f"percentile must be in [0, 100], got {q}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@value_object
class SummaryStatistics:
    """Summary of a sample of election times (or any positive metric)."""

    count: int
    mean: float
    median: float
    p95: float
    p99: float
    minimum: float
    maximum: float
    std_dev: float

    def describe(self, unit: str = "ms") -> str:
        """One-line human readable summary."""
        return (
            f"n={self.count} mean={self.mean:.1f}{unit} p50={self.median:.1f}{unit} "
            f"p95={self.p95:.1f}{unit} p99={self.p99:.1f}{unit} "
            f"min={self.minimum:.1f}{unit} max={self.maximum:.1f}{unit}"
        )


def summarize(values: Sequence[float]) -> SummaryStatistics:
    """Compute :class:`SummaryStatistics` for *values*.

    The sample is sorted once and every order statistic (median, tail
    percentiles, min, max) reads from that one sorted copy.  ``std_dev`` is
    the *sample* standard deviation (the unbiased n-1 estimator): the runs
    being summarized are a sample of the election-time distribution, not the
    whole population.  A single-element sample has ``std_dev == 0.0``.
    """
    if not values:
        raise ClusterError("cannot summarize an empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mean = sum(ordered) / n
    if n > 1:
        variance = sum((value - mean) ** 2 for value in ordered) / (n - 1)
    else:
        variance = 0.0
    return SummaryStatistics(
        count=n,
        mean=mean,
        median=_percentile_sorted(ordered, 50.0),
        p95=_percentile_sorted(ordered, 95.0),
        p99=_percentile_sorted(ordered, 99.0),
        minimum=ordered[0],
        maximum=ordered[-1],
        std_dev=math.sqrt(variance),
    )


def reduction_percent(baseline: float, improved: float) -> float:
    """Percentage reduction of *improved* relative to *baseline*.

    This is how the paper reports ESCAPE's gains, e.g. "ESCAPE shortens the
    leader election time by 11.6 % and 21.3 % at sizes of 8 and 128 servers".
    """
    if baseline <= 0:
        raise ClusterError(f"baseline must be positive, got {baseline}")
    return (baseline - improved) / baseline * 100.0
