"""Order statistics shared by the benchmark runner, the A/A mode and the tests."""

from __future__ import annotations

import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q!r}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` exactly as ``statistics.quantiles(values, n=4)``
    gives them -- the rule the acceptance gate applies to ten runs."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def iqr_share(values: Sequence[float]) -> float:
    """Run-to-run spread: the inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median


def worsening(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*.

    Positive means worse in the metric's own direction (``better`` is
    ``"higher"`` or ``"lower"``); negative means it improved.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    change = (second - first) / first
    return -change if better == "higher" else change
