"""Trace persistence: JSONL round-tripping and archiving.

The in-memory :class:`~repro.sim.tracing.Tracer` powers assertions and
timelines inside one process; this module gets traces *out* -- to JSONL files
an experiment can archive next to its ``--output`` artifacts (the
``--trace-out`` capability).

JSONL schema (one object per line)::

    {"t": <time_ms>, "cat": <category>, "node": <id or null>, "detail": {...}}

``write_trace_jsonl``/``read_trace_jsonl`` round-trip losslessly for
JSON-native detail payloads (the only kind the simulator emits).
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Iterable

from repro.common.rng import paired_seeds
from repro.sim.tracing import TraceRecord

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids layer cycles
    from repro.cluster.scenarios import Scenario

__all__ = [
    "TRACE_MANIFEST_SCHEMA",
    "archive_election_traces",
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


def write_trace_jsonl(
    path: str | os.PathLike[str], records: Iterable[TraceRecord]
) -> int:
    """Write *records* to a JSONL file at *path*; returns the count written."""
    written = 0
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        for record in records:
            json.dump(record_to_json(record), handle, sort_keys=True)
            handle.write("\n")
            written += 1
    return written


def read_trace_jsonl(  # repro: allow[U1] -- CI trace-archive check; ROADMAP 3
    path: str | os.PathLike[str],
) -> list[TraceRecord]:
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
        # Part of the v1 archive schema: every record is archived, so no
        # filter is named and each label reports 0 filtered out.
        "filter": None,
        "labels": {},
    }
    telemetry: dict[str, dict] = {}
    for label, scenario in scenarios.items():
        episode_seed = paired_seeds(1, seed, label)[0]
        measurement, records = scenario.with_telemetry().run_traced(episode_seed)
        # Labels may contain path separators (e.g. "raft/closed-loop");
        # flatten them so every archive file lands directly in out_dir.
        file_name = f"{label.replace('/', '--')}.jsonl"
        written = write_trace_jsonl(os.path.join(out_dir, file_name), records)
        manifest["labels"][label] = {
            "file": file_name,
            "episode_seed": episode_seed,
            "records": written,
            "filtered_out": 0,
        }
        telemetry[label] = measurement.extra["telemetry"]
    with open(os.path.join(out_dir, "telemetry.json"), "w", encoding="utf-8") as handle:
        json.dump({"labels": telemetry}, handle, indent=2, sort_keys=True)
    manifest["telemetry"] = "telemetry.json"
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return manifest
