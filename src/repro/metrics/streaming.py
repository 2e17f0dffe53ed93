"""Mergeable aggregates: the one implementation of the election statistics.

Every election statistic the reports print -- split-vote and convergence
fractions, campaigns per run, the means and summary of the total / detection
/ election periods -- is computed here, once.  A streaming sweep fills
:class:`ElectionAggregate` partials chunk by chunk and the sweep engine folds
them together, so parent memory is O(labels) regardless of how many episodes
ran; a collecting :class:`~repro.metrics.records.MeasurementSet` keeps its
records for the archive and answers every statistic by building one
aggregate over them, sized so that it never compresses.

Four layers:

* :class:`MergeableCDF` -- a sorted-sample sketch that is **exact** while the
  observation count stays at or below its capacity (merging sorted blocks
  loses nothing), and compresses deterministically to an equi-depth grid of
  representatives beyond it.
* :class:`StreamingSummary` -- count/mean/M2 moments (Welford updates, Chan
  parallel merge), exact min/max, and a :class:`MergeableCDF` for the order
  statistics.
* :class:`Aggregate` -- the base of the per-label accumulators.  A subclass
  declares its state as dataclass fields and writes only ``add`` and its
  queries; ``merge``, ``to_state`` / ``from_state``, ``==``,
  ``from_measurements`` and ``__len__`` are derived from the field list:
  ``label`` comes first, ``int`` / ``float`` fields are counters (summed on
  merge), :class:`StreamingSummary` fields are merged, and the state holds
  the fields in declaration order.
* :class:`ElectionAggregate` -- episode/convergence/split-vote/campaign
  counters plus streaming summaries of the total/detection/election periods
  (:class:`repro.workload.aggregate.WorkloadAggregate` is the throughput sibling).

Exactness contract (pinned by ``tests/property/test_streaming_equivalence.py``):
as long as a summary has seen at most ``capacity`` values, any chunking and
any merge order produce **bit-identical** results to the batch
:func:`~repro.metrics.stats.summarize` on the same values.
Beyond the capacity percentiles become (still deterministic) equi-depth
approximations while count/mean/std/min/max stay exact up to float
accumulation.

Every accumulator serialises to plain JSON-able state (``to_state`` /
``from_state``), which is what the sweep checkpoint persists; floats
round-trip exactly through ``json`` (shortest-repr), so a resumed sweep is
bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Mapping, Self, Sequence, get_type_hints

from repro.common.errors import ClusterError
from repro.metrics.stats import (
    SummaryStatistics,
    _percentile_sorted,
    summarize,
)

if TYPE_CHECKING:
    from repro.metrics.records import ElectionMeasurement

__all__ = [
    "DEFAULT_CDF_CAPACITY",
    "Aggregate",
    "ElectionAggregate",
    "MergeableCDF",
    "StreamingSummary",
]

#: Observations a :class:`MergeableCDF` holds exactly before compressing.
#: Large enough that every paper-scale sweep (and the fig9-xl defaults) stays
#: in the bit-exact regime; small enough that a million-run sweep's parent
#: footprint stays bounded.
DEFAULT_CDF_CAPACITY = 8192


class MergeableCDF:
    """A mergeable sketch of a sample's order statistics.

    Exact while ``count <= capacity``: the sketch simply keeps the sorted
    observations, so merging is a lossless sorted-list merge and every
    percentile query delegates to the batch helpers in
    :mod:`repro.metrics.stats`.  Past the capacity it compresses to
    ``capacity // 2`` equi-depth representatives (actual observed values at
    evenly spaced weighted ranks -- never interpolated ghosts), which keeps
    memory O(capacity) and stays fully deterministic: the same add/merge
    sequence always yields the same state.
    """

    __slots__ = ("capacity", "_values", "_points", "_points_count")

    def __init__(self, capacity: int = DEFAULT_CDF_CAPACITY) -> None:
        if capacity < 4:
            raise ClusterError(f"CDF capacity must be >= 4, got {capacity}")
        self.capacity = capacity
        #: Exact observations not yet folded into the compressed grid (sorted).
        self._values: list[float] = []
        #: Compressed representatives (sorted), or ``None`` while exact.
        self._points: list[float] | None = None
        #: How many observations the compressed representatives stand for.
        self._points_count: int = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def count(self) -> int:
        """Total observations the sketch has absorbed."""
        return len(self._values) + self._points_count

    @property
    def exact(self) -> bool:
        """Whether the sketch still holds every observation losslessly."""
        return self._points is None

    def values(self) -> list[float]:
        """The exact sorted observations (only available while exact)."""
        if not self.exact:
            raise ClusterError(
                "sketch compressed beyond its capacity; exact values are gone"
            )
        return list(self._values)

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    def add(self, value: float) -> None:
        """Absorb one observation."""
        if not math.isfinite(value):
            raise ClusterError(f"cannot sketch non-finite value {value!r}")
        bisect.insort(self._values, value)
        if len(self._values) > self.capacity:
            self._compress()

    def merge(self, other: "MergeableCDF") -> None:
        """Fold *other* into this sketch (the mergeable-partial operation)."""
        if other.capacity != self.capacity:
            raise ClusterError(
                f"cannot merge sketches of capacity {self.capacity} and "
                f"{other.capacity}"
            )
        self._values = _merge_sorted(self._values, other._values)
        if other._points is not None:
            if self._points is None:
                self._points = list(other._points)
                self._points_count = other._points_count
            else:
                self._fold_points(other._points, other._points_count)
        if len(self._values) > self.capacity:
            self._compress()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0-100); exact while under capacity."""
        if self.count == 0:
            raise ClusterError("cannot take a percentile of an empty sketch")
        return _percentile_sorted(self._support(), q)

    def _support(self) -> list[float]:
        """The sorted point set queries read from (folds any exact buffer)."""
        if self.exact:
            return self._values
        if self._values:
            # Fold the buffered exact adds into the grid so queries see one
            # canonical support; folding is part of the deterministic state.
            self._fold_points([], 0)
        assert self._points is not None
        return self._points

    # ------------------------------------------------------------------ #
    # Compression
    # ------------------------------------------------------------------ #
    def _compress(self) -> None:
        """First transition past the capacity: exact buffer -> grid."""
        if self._points is None:
            count = len(self._values)
            self._points = _resample_weighted(
                [(value, 1.0) for value in self._values],
                float(count),
                max(2, self.capacity // 2),
            )
            self._points_count = count
            self._values = []
        else:
            self._fold_points([], 0)

    def _fold_points(self, other_points: Sequence[float], other_count: int) -> None:
        """Re-grid: current grid + exact buffer + another grid -> one grid."""
        assert self._points is not None
        weighted: list[tuple[float, float]] = []
        if self._points:
            weight = self._points_count / len(self._points)
            weighted.extend((point, weight) for point in self._points)
        if other_points:
            weight = other_count / len(other_points)
            weighted.extend((point, weight) for point in other_points)
        weighted.extend((value, 1.0) for value in self._values)
        weighted.sort(key=lambda pair: pair[0])
        total = float(self._points_count + other_count + len(self._values))
        self._points = _resample_weighted(
            weighted, total, max(2, self.capacity // 2)
        )
        self._points_count = int(total)
        self._values = []

    # ------------------------------------------------------------------ #
    # Equality / serialisation
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MergeableCDF):
            return NotImplemented
        return (
            self.capacity == other.capacity
            and self._values == other._values
            and self._points == other._points
            and self._points_count == other._points_count
        )

    def __repr__(self) -> str:
        mode = "exact" if self.exact else "compressed"
        return f"MergeableCDF(count={self.count}, {mode}, capacity={self.capacity})"

    def to_state(self) -> dict[str, object]:
        """JSON-able snapshot (floats round-trip exactly through ``json``)."""
        return {
            "capacity": self.capacity,
            "values": list(self._values),
            "points": None if self._points is None else list(self._points),
            "points_count": self._points_count,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "MergeableCDF":
        """Rebuild a sketch from :meth:`to_state` output."""
        sketch = cls(capacity=int(state["capacity"]))  # type: ignore[arg-type]
        sketch._values = [float(value) for value in state["values"]]  # type: ignore[union-attr]
        points = state["points"]
        sketch._points = (
            None if points is None else [float(point) for point in points]  # type: ignore[union-attr]
        )
        sketch._points_count = int(state["points_count"])  # type: ignore[arg-type]
        return sketch


def _merge_sorted(left: list[float], right: list[float]) -> list[float]:
    """Merge two sorted lists (classic two-pointer; stable for ties)."""
    if not left:
        return list(right)
    if not right:
        return list(left)
    merged: list[float] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if right[j] < left[i]:
            merged.append(right[j])
            j += 1
        else:
            merged.append(left[i])
            i += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


def _resample_weighted(
    weighted: Sequence[tuple[float, float]], total_weight: float, m: int
) -> list[float]:
    """*m* equi-depth representatives of a sorted weighted sample.

    Representative *k* is the observed value whose cumulative-weight interval
    contains rank ``(k + 0.5) / m * total_weight`` -- pure deterministic float
    arithmetic, and every representative is a value that was actually
    observed.
    """
    representatives: list[float] = []
    index = 0
    cumulative = 0.0
    for k in range(m):
        target = (k + 0.5) / m * total_weight
        while (
            index < len(weighted) - 1
            and cumulative + weighted[index][1] < target
        ):
            cumulative += weighted[index][1]
            index += 1
        representatives.append(weighted[index][0])
    return representatives


class StreamingSummary:
    """Mergeable summary statistics over a stream of values.

    Maintains exact count/min/max, Welford mean/M2 moments (merged with
    Chan's parallel formula), and a :class:`MergeableCDF` for the order
    statistics.  While the CDF is still exact, :meth:`summary` delegates to
    the batch :func:`repro.metrics.stats.summarize` on the retained values --
    **bit-identical** to summarising the same values in memory; beyond the
    capacity it reads mean/std from the merged moments and percentiles from
    the compressed grid.
    """

    __slots__ = ("count", "_mean", "_m2", "_min", "_max", "cdf")

    def __init__(self, capacity: int = DEFAULT_CDF_CAPACITY) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self.cdf = MergeableCDF(capacity=capacity)

    # ------------------------------------------------------------------ #
    # Building
    # ------------------------------------------------------------------ #
    def add(self, value: float) -> None:
        """Absorb one observation (Welford update)."""
        value = float(value)
        self.cdf.add(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "StreamingSummary") -> None:
        """Fold *other* in (Chan's parallel moment merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            self.cdf.merge(other.cdf)
            return
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / combined
        )
        self._mean += delta * other.count / combined
        self.count = combined
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self.cdf.merge(other.cdf)

    def extend(self, values: Iterable[float]) -> "StreamingSummary":
        """Absorb many observations; returns self for chaining."""
        for value in values:
            self.add(value)
        return self

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def mean(self) -> float:
        """The running mean (exact-regime queries prefer :meth:`summary`)."""
        if self.count == 0:
            raise ClusterError("cannot take the mean of an empty summary")
        return self.summary().mean if self.cdf.exact else self._mean

    @property
    def minimum(self) -> float:
        if self.count == 0:
            raise ClusterError("empty summary has no minimum")
        return self._min

    @property
    def maximum(self) -> float:
        if self.count == 0:
            raise ClusterError("empty summary has no maximum")
        return self._max

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (exact while under capacity)."""
        return self.cdf.percentile(q)

    def summary(self) -> SummaryStatistics:
        """The :class:`SummaryStatistics` of everything absorbed so far.

        Exact regime: delegates to the batch ``summarize`` on the retained
        sorted values, so the result is bit-identical to the in-memory path.
        Compressed regime: count/min/max are exact, mean/std come from the
        merged moments, percentiles from the equi-depth grid.
        """
        if self.count == 0:
            raise ClusterError("cannot summarize an empty streaming summary")
        if self.cdf.exact:
            return summarize(self.cdf.values())
        variance = self._m2 / (self.count - 1) if self.count > 1 else 0.0
        return SummaryStatistics(
            count=self.count,
            mean=self._mean,
            median=self.cdf.percentile(50.0),
            p95=self.cdf.percentile(95.0),
            p99=self.cdf.percentile(99.0),
            minimum=self._min,
            maximum=self._max,
            std_dev=math.sqrt(max(0.0, variance)),
        )

    # ------------------------------------------------------------------ #
    # Equality / serialisation
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        """Observable-state equality.

        Count, min, max and the CDF sketch compare exactly (bit-identical in
        the exact regime).  The auxiliary Welford moments compare with a
        tight relative tolerance: merging partials legitimately reassociates
        the float sums, so two summaries over the same values can differ in
        the last ulps of ``mean``/``M2`` while every statistic they *report*
        in the exact regime is identical (``summary()`` delegates to the
        retained values there).  Bit-level state comparisons (the
        checkpoint-resume tests) go through :meth:`to_state` instead.
        """
        if not isinstance(other, StreamingSummary):
            return NotImplemented
        return (
            self.count == other.count
            and math.isclose(
                self._mean, other._mean, rel_tol=1e-9, abs_tol=1e-9
            )
            and math.isclose(self._m2, other._m2, rel_tol=1e-9, abs_tol=1e-6)
            and self._min == other._min
            and self._max == other._max
            and self.cdf == other.cdf
        )

    def __repr__(self) -> str:
        return f"StreamingSummary(count={self.count})"

    def to_state(self) -> dict[str, object]:
        """JSON-able snapshot (empty summaries omit the infinite min/max)."""
        state: dict[str, object] = {
            "count": self.count,
            "mean": self._mean,
            "m2": self._m2,
            "cdf": self.cdf.to_state(),
        }
        if self.count:
            state["min"] = self._min
            state["max"] = self._max
        return state

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "StreamingSummary":
        """Rebuild a summary from :meth:`to_state` output."""
        summary = cls.__new__(cls)
        summary.count = int(state["count"])  # type: ignore[arg-type]
        summary._mean = float(state["mean"])  # type: ignore[arg-type]
        summary._m2 = float(state["m2"])  # type: ignore[arg-type]
        summary._min = float(state["min"]) if summary.count else math.inf  # type: ignore[arg-type]
        summary._max = float(state["max"]) if summary.count else -math.inf  # type: ignore[arg-type]
        summary.cdf = MergeableCDF.from_state(state["cdf"])  # type: ignore[arg-type]
        return summary


@functools.cache
def _layout(cls: type) -> tuple[tuple[str, type], ...]:
    """``(name, type)`` of every field of an :class:`Aggregate` subclass after
    ``label``, in declaration order -- the order of its state's keys."""
    hints = get_type_hints(cls)
    return tuple((field.name, hints[field.name]) for field in fields(cls)[1:])


@dataclass(slots=True, init=False)
class Aggregate:
    """Base of the per-label mergeable accumulators the sweep engine folds.

    A subclass is a ``@dataclass(slots=True, init=False)`` field list plus
    ``add`` and its queries.  Everything else is derived from the fields
    (see the module docstring for the rules): workers fill one aggregate per
    label per chunk, the parent merges them in chunk order, and the state is
    what a checkpoint persists.  ``runs`` counts the episodes absorbed.
    """

    label: str
    runs: int

    def __init__(self, label: str = "", capacity: int = DEFAULT_CDF_CAPACITY) -> None:
        self.label = label
        for name, kind in _layout(type(self)):
            value = StreamingSummary(capacity) if kind is StreamingSummary else kind()
            setattr(self, name, value)

    def add(self, measurement: object) -> None:
        """Absorb one episode's measurement."""
        raise NotImplementedError

    @classmethod
    def from_measurements(
        cls,
        measurements: Iterable[object],
        label: str = "",
        capacity: int = DEFAULT_CDF_CAPACITY,
    ) -> Self:
        """Aggregate an in-memory measurement collection."""
        aggregate = cls(label, capacity)
        for measurement in measurements:
            aggregate.add(measurement)
        return aggregate

    def merge(self, other: Self) -> None:
        """Fold another partial aggregate for the same label in."""
        if other.label and self.label and other.label != self.label:
            raise ClusterError(
                f"cannot merge aggregate for {other.label!r} into {self.label!r}"
            )
        for name, kind in _layout(type(self)):
            if kind is StreamingSummary:
                getattr(self, name).merge(getattr(other, name))
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def __len__(self) -> int:
        return self.runs

    def to_state(self) -> dict[str, object]:
        """JSON-able snapshot used by the sweep checkpoint."""
        state: dict[str, object] = {"label": self.label}
        for name, kind in _layout(type(self)):
            value = getattr(self, name)
            state[name] = value.to_state() if kind is StreamingSummary else value
        return state

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> Self:
        """Rebuild an aggregate from :meth:`to_state` output."""
        aggregate = cls.__new__(cls)
        aggregate.label = str(state["label"])
        for name, kind in _layout(cls):
            value = state[name]
            if kind is StreamingSummary:
                setattr(aggregate, name, StreamingSummary.from_state(value))  # type: ignore[arg-type]
            else:
                setattr(aggregate, name, kind(value))
        return aggregate


@dataclass(slots=True, init=False)
class ElectionAggregate(Aggregate):
    """Per-label mergeable aggregate of election measurements.

    ``fig9-xl`` sweeps straight into these; every collecting
    :class:`~repro.metrics.records.MeasurementSet` builds one over its
    records to answer a statistic, so the reports of both kinds of sweep read
    the same code.  The period summaries cover **converged** runs only, while
    the split-vote and campaign counters cover every run.
    """

    converged: int
    split_votes: int
    campaigns: int
    total_ms: StreamingSummary
    detection_ms: StreamingSummary
    election_ms: StreamingSummary

    def add(self, measurement: ElectionMeasurement) -> None:
        """Absorb one episode's measurement."""
        self.runs += 1
        self.campaigns += measurement.campaign_count
        if measurement.split_vote:
            self.split_votes += 1
        if measurement.converged:
            self.converged += 1
            self.total_ms.add(measurement.total_ms)
            self.detection_ms.add(measurement.detection_ms)
            self.election_ms.add(measurement.election_ms)

    # ------------------------------------------------------------------ #
    # Queries (what the figure reports ask)
    # ------------------------------------------------------------------ #
    def split_vote_fraction(self) -> float:
        """Fraction of runs with at least one split vote."""
        return self.split_votes / self.runs if self.runs else 0.0

    def convergence_fraction(self) -> float:
        """Fraction of runs that elected a leader within the budget."""
        return self.converged / self.runs if self.runs else 0.0

    def mean_campaigns(self) -> float:
        """Average campaign count per run, over every run (a run that never
        converged campaigned too)."""
        if not self.runs:
            raise ClusterError(f"no runs in aggregate {self.label!r}")
        return self.campaigns / self.runs

    def mean_total_ms(self) -> float:
        """Average total election time over converged runs."""
        return self.total_summary().mean

    def mean_detection_ms(self) -> float:
        """Average detection period over converged runs."""
        return self._converged_summary(self.detection_ms).mean

    def mean_election_ms(self) -> float:
        """Average election period over converged runs."""
        return self._converged_summary(self.election_ms).mean

    def total_summary(self) -> SummaryStatistics:
        """Summary statistics of the converged total election times."""
        return self._converged_summary(self.total_ms)

    def _converged_summary(self, periods: StreamingSummary) -> SummaryStatistics:
        if not self.converged:
            raise ClusterError(f"no converged runs in aggregate {self.label!r}")
        return periods.summary()

    def to_row(self, label: str) -> dict[str, object]:
        """This cell as one scalar export row.

        An aggregate sweep never retains episodes, so its export is one row
        per cell -- counts, fractions and the summary statistics of the
        converged total election time (``None`` when nothing converged).
        """
        summary = self.total_summary() if self.converged else None
        return {
            "label": label,
            "runs": self.runs,
            "converged": self.converged,
            "convergence": round(self.convergence_fraction(), 6),
            "split_vote_fraction": round(self.split_vote_fraction(), 6),
            "mean_campaigns": round(self.mean_campaigns(), 6) if self.runs else None,
            "mean_total_ms": round(summary.mean, 3) if summary else None,
            "p50_total_ms": round(summary.median, 3) if summary else None,
            "p95_total_ms": round(summary.p95, 3) if summary else None,
            "p99_total_ms": round(summary.p99, 3) if summary else None,
            "min_total_ms": round(summary.minimum, 3) if summary else None,
            "max_total_ms": round(summary.maximum, 3) if summary else None,
            "std_total_ms": round(summary.std_dev, 3) if summary else None,
        }
