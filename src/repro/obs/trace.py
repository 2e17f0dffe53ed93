"""Trace persistence: sinks, filters, JSONL round-tripping, and archiving.

The in-memory :class:`~repro.sim.tracing.Tracer` powers assertions and
timelines inside one process; this module gets traces *out* -- to JSONL files
an experiment can archive next to its ``--output`` artifacts (the
``--trace-out`` capability), or into bounded rings that report how much they
dropped instead of discarding silently.

JSONL schema (one object per line)::

    {"t": <time_ms>, "cat": <category>, "node": <id or null>, "detail": {...}}

``write_trace_jsonl``/``read_trace_jsonl`` round-trip losslessly for
JSON-native detail payloads (the only kind the simulator emits).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Protocol, runtime_checkable

from repro.common.rng import paired_seeds
from repro.sim.tracing import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids layer cycles
    from repro.cluster.scenarios import Scenario

__all__ = [
    "JsonlTraceSink",
    "MemoryTraceSink",
    "RingTraceSink",
    "TRACE_MANIFEST_SCHEMA",
    "TraceFilter",
    "TraceSink",
    "archive_election_traces",
    "export_records",
    "read_trace_jsonl",
    "record_from_json",
    "record_to_json",
    "write_trace_jsonl",
]

#: Schema tag written into every trace-archive manifest.
TRACE_MANIFEST_SCHEMA = "repro.obs.trace-archive/v1"


def record_to_json(record: TraceRecord) -> dict:
    """A :class:`TraceRecord` as one JSON-serialisable dict."""
    return {
        "t": record.time_ms,
        "cat": record.category,
        "node": record.node,
        "detail": dict(record.detail),
    }


def record_from_json(payload: dict) -> TraceRecord:
    """Rebuild a :class:`TraceRecord` from :func:`record_to_json` output."""
    return TraceRecord(
        time_ms=payload["t"],
        category=payload["cat"],
        node=payload["node"],
        detail=dict(payload["detail"]),
    )


@runtime_checkable
class TraceSink(Protocol):
    """Anything trace records can be written into."""

    def write(self, record: TraceRecord) -> None:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class MemoryTraceSink:
    """Collects records in memory (mainly for tests and tooling)."""

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []
        self.closed = False

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        return tuple(self._records)

    def write(self, record: TraceRecord) -> None:
        self._records.append(record)

    def close(self) -> None:
        self.closed = True


class RingTraceSink:
    """Keeps only the *last* ``capacity`` records, counting what it evicted.

    The complement of the ``Tracer`` capacity cap (which keeps the oldest):
    a ring keeps the most recent window, which is what you want when a long
    run fails at the end -- and ``dropped_count`` says exactly how much of
    the head was lost.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._records: list[TraceRecord] = []
        self._dropped = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def dropped_count(self) -> int:
        """Records evicted from the head to stay within capacity."""
        return self._dropped

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        return tuple(self._records)

    def write(self, record: TraceRecord) -> None:
        if len(self._records) >= self._capacity:
            del self._records[0]
            self._dropped += 1
        self._records.append(record)

    def close(self) -> None:
        return None


class JsonlTraceSink:
    """Streams records to a JSONL file, one object per line."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._handle = open(self.path, "w", encoding="utf-8")
        self.written = 0

    def write(self, record: TraceRecord) -> None:
        json.dump(record_to_json(record), self._handle, sort_keys=True)
        self._handle.write("\n")
        self.written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class TraceFilter:
    """A frozen, picklable record predicate for sinks and archives.

    Attributes:
        categories: category *prefixes*; a record matches when its category
            starts with any of them (empty means match all categories).
        nodes: server ids to keep; records with ``node=None`` (cluster-wide
            events) always pass the node filter (empty means match all).
    """

    categories: tuple[str, ...] = ()
    nodes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def matches(self, record: TraceRecord) -> bool:
        """Whether *record* passes both the category and node filters."""
        if self.categories and not any(
            record.category.startswith(prefix) for prefix in self.categories
        ):
            return False
        if self.nodes and record.node is not None and record.node not in self.nodes:
            return False
        return True


def export_records(
    records: Iterable[TraceRecord],
    sink: TraceSink,
    trace_filter: TraceFilter | None = None,
) -> int:
    """Write every matching record into *sink*; returns the count written."""
    written = 0
    for record in records:
        if trace_filter is None or trace_filter.matches(record):
            sink.write(record)
            written += 1
    return written


def write_trace_jsonl(
    path: str | os.PathLike[str],
    records: Iterable[TraceRecord],
    trace_filter: TraceFilter | None = None,
) -> int:
    """Write *records* to a JSONL file at *path*; returns the count written."""
    with JsonlTraceSink(path) as sink:
        return export_records(records, sink, trace_filter)


def read_trace_jsonl(path: str | os.PathLike[str]) -> list[TraceRecord]:
    """Load the records written by :func:`write_trace_jsonl`, in order."""
    records = []
    with open(os.fspath(path), encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(record_from_json(json.loads(line)))
    return records


def archive_election_traces(
    scenarios: "dict[str, Scenario]",
    seed: int,
    directory: str | os.PathLike[str],
    trace_filter: TraceFilter | None = None,
) -> dict:
    """Archive one traced episode per scenario label under *directory*.

    For each label, episode 0's seed is re-derived exactly as the sweep
    derives it (``paired_seeds(1, seed, label)``) and the episode is re-run
    with tracing and telemetry enabled (every
    :class:`~repro.cluster.scenarios.Scenario` has both), so the archive
    matches what the sweep actually executed.  Writes one ``<label>.jsonl``
    per scenario plus ``manifest.json`` and ``telemetry.json`` with the
    per-label snapshot states.  Returns the manifest dict.
    """
    out_dir = os.fspath(directory)
    os.makedirs(out_dir, exist_ok=True)
    manifest: dict = {
        "schema": TRACE_MANIFEST_SCHEMA,
        "seed": seed,
        "filter": None
        if trace_filter is None
        else {
            "categories": list(trace_filter.categories),
            "nodes": list(trace_filter.nodes),
        },
        "labels": {},
    }
    telemetry: dict[str, dict] = {}
    for label, scenario in scenarios.items():
        episode_seed = paired_seeds(1, seed, label)[0]
        measurement, records = scenario.with_telemetry().run_traced(episode_seed)
        # Labels may contain path separators (e.g. "raft/closed-loop");
        # flatten them so every archive file lands directly in out_dir.
        file_name = f"{label.replace('/', '--')}.jsonl"
        written = write_trace_jsonl(
            os.path.join(out_dir, file_name), records, trace_filter
        )
        manifest["labels"][label] = {
            "file": file_name,
            "episode_seed": episode_seed,
            "records": written,
            "filtered_out": len(records) - written,
        }
        telemetry[label] = measurement.extra["telemetry"]
    with open(os.path.join(out_dir, "telemetry.json"), "w", encoding="utf-8") as handle:
        json.dump({"labels": telemetry}, handle, indent=2, sort_keys=True)
    manifest["telemetry"] = "telemetry.json"
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return manifest
