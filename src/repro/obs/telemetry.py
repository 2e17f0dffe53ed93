"""Deterministic telemetry: named counters, gauges and histograms.

The instrumented layers (scheduler, network, chaos driver, protocol nodes)
record *simulated* facts -- events fired, messages dropped, campaigns started
-- so every metric here is a pure function of ``(scenario, seed)``.  Wall
clock never enters this module; profiling lives in
:mod:`repro.obs.profiling`, which is separately allowlisted for it.

Two design rules keep telemetry sweep-safe:

* **Zero cost when disabled.**  The hot layers are not instrumented with
  per-event callbacks at all: their existing counters (``executed_count``,
  ``NetworkStats``) are *harvested* into a registry after the run
  (:mod:`repro.obs.harvest`).  Only the node-event listener is live, and it
  is attached only when a scenario opts in.
* **Mergeable snapshots.**  :meth:`MetricsRegistry.snapshot` freezes the
  registry into a :class:`TelemetrySnapshot` -- picklable, JSON-round-
  tripping, and mergeable exactly like the streaming sweep aggregates in
  :mod:`repro.metrics.streaming` -- so per-episode telemetry folds into
  per-label tables bit-identically at any ``--workers`` count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.common.errors import ConfigurationError
from repro.common.frozen import FrozenDict

__all__ = [
    "Counter",
    "DEFAULT_HISTOGRAM_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TelemetrySnapshot",
]

#: Default histogram bucket upper bounds (values above the last bound land in
#: the overflow bucket).  Sized for small discrete quantities such as
#: election-timeout attempt numbers.
DEFAULT_HISTOGRAM_BOUNDS: tuple[float, ...] = (1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A last-written-value metric (heap size, pending events, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow bucket.

    Buckets are defined by an immutable tuple of upper bounds; two histograms
    merge by summing their per-bucket counts, which requires identical
    bounds.  ``count``/``total`` track the raw observation count and sum.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Sequence[float] = DEFAULT_HISTOGRAM_BOUNDS) -> None:
        self.bounds = tuple(float(bound) for bound in bounds)
        if not self.bounds or list(self.bounds) != sorted(set(self.bounds)):
            raise ConfigurationError(
                f"histogram bounds must be non-empty and strictly increasing: "
                f"{bounds!r}"
            )
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.count += 1
        self.total += value


class MetricsRegistry:
    """A namespace of named metrics, created on first use.

    Handles returned by :meth:`counter`/:meth:`gauge`/:meth:`histogram` are
    plain attribute-bumping objects, so recording is one integer add; call
    sites that record in a loop should hold the handle rather than re-look it
    up by name.
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under *name* (created if absent)."""
        handle = self._counters.get(name)
        if handle is None:
            self._counters[name] = handle = Counter()
        return handle

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under *name* (created if absent)."""
        handle = self._gauges.get(name)
        if handle is None:
            self._gauges[name] = handle = Gauge()
        return handle

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_HISTOGRAM_BOUNDS
    ) -> Histogram:
        """The histogram registered under *name* (created if absent).

        Raises:
            ConfigurationError: when *name* already exists with different
                bucket bounds (the two could never merge).
        """
        handle = self._histograms.get(name)
        if handle is None:
            self._histograms[name] = handle = Histogram(bounds)
        elif handle.bounds != tuple(float(bound) for bound in bounds):
            raise ConfigurationError(
                f"histogram {name!r} already registered with bounds "
                f"{handle.bounds}; got {tuple(bounds)}"
            )
        return handle

    def snapshot(self) -> "TelemetrySnapshot":
        """Freeze the registry's current state (sorted by metric name)."""
        return TelemetrySnapshot(
            counters=FrozenDict(
                (name, self._counters[name].value)
                for name in sorted(self._counters)
            ),
            gauges=FrozenDict(
                (name, self._gauges[name].value) for name in sorted(self._gauges)
            ),
            histograms=FrozenDict(
                (
                    name,
                    (
                        self._histograms[name].bounds,
                        tuple(self._histograms[name].counts),
                        self._histograms[name].count,
                        self._histograms[name].total,
                    ),
                )
                for name in sorted(self._histograms)
            ),
        )


#: Histogram state: ``(bounds, bucket counts, observation count, sum)``.
_HistState = tuple[tuple[float, ...], tuple[int, ...], int, float]


@dataclass(frozen=True)
class TelemetrySnapshot:
    """An immutable point-in-time copy of a :class:`MetricsRegistry`.

    Snapshots are plain frozen data: hashable, picklable, and mergeable.
    ``merge`` sums counters and histogram buckets and keeps the elementwise
    **maximum** of gauges (a gauge snapshot is a high-water reading; summing
    heap sizes across episodes would mean nothing).  ``to_state`` /
    ``from_state`` round-trip through JSON, tolerating the list/tuple
    coercion of :mod:`repro.experiments.export`.
    """

    counters: Mapping[str, int] = field(default_factory=FrozenDict)
    gauges: Mapping[str, float] = field(default_factory=FrozenDict)
    histograms: Mapping[str, _HistState] = field(default_factory=FrozenDict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "counters", FrozenDict(self.counters))
        object.__setattr__(self, "gauges", FrozenDict(self.gauges))
        object.__setattr__(self, "histograms", FrozenDict(self.histograms))

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """A new snapshot combining *self* and *other* (sorted names)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges.get(name, value), value)
        histograms = dict(self.histograms)
        for name, state in other.histograms.items():
            mine = histograms.get(name)
            if mine is None:
                histograms[name] = state
                continue
            bounds, counts, count, total = mine
            other_bounds, other_counts, other_count, other_total = state
            if tuple(bounds) != tuple(other_bounds):
                raise ConfigurationError(
                    f"cannot merge histogram {name!r}: bounds differ "
                    f"({tuple(bounds)} vs {tuple(other_bounds)})"
                )
            histograms[name] = (
                tuple(bounds),
                tuple(a + b for a, b in zip(counts, other_counts)),
                count + other_count,
                total + other_total,
            )
        return TelemetrySnapshot(
            counters=FrozenDict(sorted(counters.items())),
            gauges=FrozenDict(sorted(gauges.items())),
            histograms=FrozenDict(sorted(histograms.items())),
        )

    def to_state(self) -> dict[str, object]:
        """The snapshot as one JSON-serialisable dict."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "bounds": list(bounds),
                    "counts": list(counts),
                    "count": count,
                    "total": total,
                }
                for name, (bounds, counts, count, total) in self.histograms.items()
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "TelemetrySnapshot":
        """Rebuild a snapshot from :meth:`to_state` output.

        Accepts lists *or* tuples for the histogram arrays: the export layer
        (:func:`repro.experiments.export._tuplify`) restores JSON arrays as
        tuples, and both spellings must decode identically.
        """
        histograms = {}
        for name, hist in dict(state.get("histograms", {})).items():
            histograms[name] = (
                tuple(float(bound) for bound in hist["bounds"]),
                tuple(int(count) for count in hist["counts"]),
                int(hist["count"]),
                float(hist["total"]),
            )
        return cls(
            counters=FrozenDict(
                sorted(
                    (name, int(value))
                    for name, value in dict(state.get("counters", {})).items()
                )
            ),
            gauges=FrozenDict(
                sorted(
                    (name, float(value))
                    for name, value in dict(state.get("gauges", {})).items()
                )
            ),
            histograms=FrozenDict(sorted(histograms.items())),
        )
