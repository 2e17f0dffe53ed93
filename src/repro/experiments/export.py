"""Persisting experiment results to CSV and JSON.

Sweeps are expensive; these helpers let the CLI (and user scripts) save raw
per-run measurements and aggregate series to disk so figures can be re-plotted
or re-analysed without re-running the simulation.

The registry-generic surface is :func:`save_run` / :func:`load_run`: given
the :class:`~repro.experiments.spec.ExperimentRun` envelope of *any*
registered experiment, ``save_run`` writes the raw measurements (CSV), a
lossless JSON export and the rendered report through the spec's exporter
binding, and ``load_run`` reconstructs the measurement payload exactly.
The per-shape writers (:func:`write_measurements_csv`,
:func:`write_availability_json`, :func:`write_rows_csv`, ...) remain public
for scripts that work below the envelope level.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.common.errors import ConfigurationError
from repro.metrics.records import (
    AvailabilityMeasurement,
    AvailabilitySet,
    ElectionMeasurement,
    MeasurementSet,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec is data-only)
    from repro.experiments.spec import ExperimentRun


def _write_csv(
    path: str | Path, fieldnames: Sequence[str], rows: Iterable[Mapping[str, object]]
) -> Path:
    """Write *rows* under a *fieldnames* header (parent directories are created)."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    with destination.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return destination


def _write_json(
    path: str | Path, cells: object, metadata: Mapping[str, object] | None
) -> Path:
    """Write the ``{"metadata", "cells"}`` document every JSON export shares."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    payload = {"metadata": dict(metadata or {}), "cells": cells}
    destination.write_text(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return destination


def _existing(path: str | Path) -> Path:
    source = Path(path)
    if not source.exists():
        raise ConfigurationError(f"no such results file: {source}")
    return source


def _read_csv(path: str | Path) -> list[dict[str, object]]:
    with _existing(path).open() as handle:
        return list(csv.DictReader(handle))


def _read_json(path: str | Path) -> dict[str, object]:
    return json.loads(_existing(path).read_text())


#: Column order of the per-run CSV export.
CSV_FIELDS = (
    "label",
    "protocol",
    "cluster_size",
    "seed",
    "converged",
    "crash_time_ms",
    "detection_ms",
    "election_ms",
    "total_ms",
    "campaign_count",
    "split_vote",
    "winner_id",
    "winner_term",
)


def measurement_to_row(measurement: ElectionMeasurement, label: str = "") -> dict[str, object]:
    """Flatten one measurement into a CSV/JSON-friendly dict."""
    return {
        "label": label,
        "protocol": measurement.protocol,
        "cluster_size": measurement.cluster_size,
        "seed": measurement.seed,
        "converged": measurement.converged,
        "crash_time_ms": round(measurement.crash_time_ms, 3),
        "detection_ms": round(measurement.detection_ms, 3),
        "election_ms": round(measurement.election_ms, 3),
        "total_ms": round(measurement.total_ms, 3),
        "campaign_count": measurement.campaign_count,
        "split_vote": measurement.split_vote,
        "winner_id": measurement.winner_id,
        "winner_term": measurement.winner_term,
    }


def write_measurements_csv(
    path: str | Path,
    measurement_sets: Mapping[str, MeasurementSet] | Mapping[str, Iterable[ElectionMeasurement]],
) -> Path:
    """Write every per-run measurement of a sweep to one CSV file.

    Args:
        path: destination file (parent directories are created).
        measurement_sets: mapping from cell label (e.g. ``"escape@32"``) to its
            measurements.

    Returns:
        The resolved path written to.
    """
    return _write_csv(
        path,
        CSV_FIELDS,
        (
            measurement_to_row(measurement, label)
            for label, measurements in measurement_sets.items()
            for measurement in measurements
        ),
    )


def read_measurements_csv(path: str | Path) -> list[dict[str, object]]:
    """Read back a CSV produced by :func:`write_measurements_csv`."""
    return _read_csv(path)


def write_summary_json(
    path: str | Path,
    measurement_sets: Mapping[str, MeasurementSet],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write aggregate statistics (per cell label) to a JSON file.

    The JSON carries, per label: run count, convergence fraction, split-vote
    fraction, and the mean/min/max of the total election time -- the numbers
    EXPERIMENTS.md quotes.
    """
    cells: dict[str, object] = {}
    for label, measurements in measurement_sets.items():
        totals = measurements.totals_ms()
        cells[label] = {
            "runs": len(measurements),
            "convergence": measurements.convergence_fraction(),
            "split_vote_fraction": measurements.split_vote_fraction(),
            "mean_total_ms": sum(totals) / len(totals) if totals else None,
            "min_total_ms": min(totals) if totals else None,
            "max_total_ms": max(totals) if totals else None,
        }
    return _write_json(path, cells, metadata)


def read_summary_json(path: str | Path) -> dict[str, object]:
    """Read back a JSON summary produced by :func:`write_summary_json`."""
    return _read_json(path)


# --------------------------------------------------------------------------- #
# Availability records (the chaos `avail` experiment)
# --------------------------------------------------------------------------- #
#: Column order of the per-run availability CSV export.
AVAILABILITY_CSV_FIELDS = (
    "label",
    "protocol",
    "cluster_size",
    "seed",
    "plan",
    "start_ms",
    "end_ms",
    "available_ms",
    "leaderless_ms",
    "unavailability",
    "disruption_count",
    "skipped_disruptions",
    "outage_count",
    "mean_recovery_ms",
    "max_recovery_ms",
    "proposals_proposed",
    "proposals_dropped",
)


def availability_to_row(
    measurement: AvailabilityMeasurement, label: str = ""
) -> dict[str, object]:
    """Flatten one availability measurement into a CSV-friendly dict.

    The per-outage interval list does not fit a flat row; use the JSON writer
    for a lossless export.
    """
    mean_recovery = measurement.mean_recovery_ms
    max_recovery = measurement.max_recovery_ms
    return {
        "label": label,
        "protocol": measurement.protocol,
        "cluster_size": measurement.cluster_size,
        "seed": measurement.seed,
        "plan": measurement.plan,
        "start_ms": round(measurement.start_ms, 3),
        "end_ms": round(measurement.end_ms, 3),
        "available_ms": round(measurement.available_ms, 3),
        "leaderless_ms": round(measurement.leaderless_ms, 3),
        "unavailability": round(measurement.unavailability, 6),
        "disruption_count": measurement.disruption_count,
        "skipped_disruptions": measurement.skipped_disruptions,
        "outage_count": measurement.outage_count,
        "mean_recovery_ms": (
            round(mean_recovery, 3) if mean_recovery is not None else None
        ),
        "max_recovery_ms": (
            round(max_recovery, 3) if max_recovery is not None else None
        ),
        "proposals_proposed": measurement.proposals_proposed,
        "proposals_dropped": measurement.proposals_dropped,
    }


def write_availability_csv(
    path: str | Path,
    availability_sets: Mapping[str, AvailabilitySet]
    | Mapping[str, Iterable[AvailabilityMeasurement]],
) -> Path:
    """Write every per-run availability measurement of a sweep to one CSV."""
    return _write_csv(
        path,
        AVAILABILITY_CSV_FIELDS,
        (
            availability_to_row(measurement, label)
            for label, measurements in availability_sets.items()
            for measurement in measurements
        ),
    )


def read_availability_csv(path: str | Path) -> list[dict[str, object]]:
    """Read back a CSV produced by :func:`write_availability_csv`."""
    return _read_csv(path)


def _availability_to_json(measurement: AvailabilityMeasurement) -> dict[str, object]:
    return {
        "protocol": measurement.protocol,
        "cluster_size": measurement.cluster_size,
        "seed": measurement.seed,
        "plan": measurement.plan,
        "start_ms": measurement.start_ms,
        "end_ms": measurement.end_ms,
        "available_ms": measurement.available_ms,
        "leaderless_ms": measurement.leaderless_ms,
        "unavailability": measurement.unavailability,
        "disruption_count": measurement.disruption_count,
        "skipped_disruptions": measurement.skipped_disruptions,
        "outage_count": measurement.outage_count,
        "recovery_ms": list(measurement.recovery_ms),
        "proposals_proposed": measurement.proposals_proposed,
        "proposals_dropped": measurement.proposals_dropped,
        "leaderless_intervals": [list(pair) for pair in measurement.leaderless_intervals],
        "extra": dict(measurement.extra),
    }


def _availability_from_json(payload: Mapping[str, object]) -> AvailabilityMeasurement:
    return AvailabilityMeasurement(
        protocol=str(payload["protocol"]),
        cluster_size=int(payload["cluster_size"]),  # type: ignore[arg-type]
        seed=int(payload["seed"]),  # type: ignore[arg-type]
        plan=str(payload["plan"]),
        start_ms=float(payload["start_ms"]),  # type: ignore[arg-type]
        end_ms=float(payload["end_ms"]),  # type: ignore[arg-type]
        available_ms=float(payload["available_ms"]),  # type: ignore[arg-type]
        leaderless_ms=float(payload["leaderless_ms"]),  # type: ignore[arg-type]
        unavailability=float(payload["unavailability"]),  # type: ignore[arg-type]
        disruption_count=int(payload["disruption_count"]),  # type: ignore[arg-type]
        skipped_disruptions=int(payload["skipped_disruptions"]),  # type: ignore[arg-type]
        outage_count=int(payload["outage_count"]),  # type: ignore[arg-type]
        recovery_ms=tuple(payload["recovery_ms"]),  # type: ignore[arg-type]
        proposals_proposed=int(payload["proposals_proposed"]),  # type: ignore[arg-type]
        proposals_dropped=int(payload["proposals_dropped"]),  # type: ignore[arg-type]
        leaderless_intervals=tuple(
            (float(start), float(end))
            for start, end in payload["leaderless_intervals"]  # type: ignore[union-attr]
        ),
        extra=dict(payload["extra"]),  # type: ignore[arg-type]
    )


def write_availability_json(
    path: str | Path,
    availability_sets: Mapping[str, AvailabilitySet]
    | Mapping[str, Iterable[AvailabilityMeasurement]],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write every availability measurement, losslessly, to a JSON file.

    Unlike the CSV flattening this keeps the raw per-outage intervals and
    recovery latencies, so :func:`read_availability_json` reconstructs the
    original :class:`AvailabilityMeasurement` records exactly (floats
    round-trip via JSON's double precision).
    """
    cells = {
        label: [_availability_to_json(m) for m in measurements]
        for label, measurements in availability_sets.items()
    }
    return _write_json(path, cells, metadata)


def read_availability_json(
    path: str | Path,
) -> dict[str, AvailabilitySet]:
    """Read a JSON availability export back into per-label sets."""
    return {
        label: AvailabilitySet(
            (_availability_from_json(entry) for entry in entries), label=label
        )
        for label, entries in _read_json(path)["cells"].items()
    }


# --------------------------------------------------------------------------- #
# Lossless election-measurement JSON (the generic export path's raw format)
# --------------------------------------------------------------------------- #
def _measurement_to_json(measurement: ElectionMeasurement) -> dict[str, object]:
    return {
        "protocol": measurement.protocol,
        "cluster_size": measurement.cluster_size,
        "seed": measurement.seed,
        "converged": measurement.converged,
        "crash_time_ms": measurement.crash_time_ms,
        "detection_ms": measurement.detection_ms,
        "election_ms": measurement.election_ms,
        "total_ms": measurement.total_ms,
        "campaign_count": measurement.campaign_count,
        "split_vote": measurement.split_vote,
        "winner_id": measurement.winner_id,
        "winner_term": measurement.winner_term,
        "extra": dict(measurement.extra),
    }


def _tuplify(value: object) -> object:
    """Restore JSON arrays as tuples (the harness stores immutable extras)."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    if isinstance(value, dict):
        return {key: _tuplify(item) for key, item in value.items()}
    return value


def _measurement_from_json(payload: Mapping[str, object]) -> ElectionMeasurement:
    winner_id = payload["winner_id"]
    winner_term = payload["winner_term"]
    return ElectionMeasurement(
        protocol=str(payload["protocol"]),
        cluster_size=int(payload["cluster_size"]),  # type: ignore[arg-type]
        seed=int(payload["seed"]),  # type: ignore[arg-type]
        converged=bool(payload["converged"]),
        crash_time_ms=float(payload["crash_time_ms"]),  # type: ignore[arg-type]
        detection_ms=float(payload["detection_ms"]),  # type: ignore[arg-type]
        election_ms=float(payload["election_ms"]),  # type: ignore[arg-type]
        total_ms=float(payload["total_ms"]),  # type: ignore[arg-type]
        campaign_count=int(payload["campaign_count"]),  # type: ignore[arg-type]
        split_vote=bool(payload["split_vote"]),
        winner_id=None if winner_id is None else int(winner_id),  # type: ignore[arg-type]
        winner_term=None if winner_term is None else int(winner_term),  # type: ignore[arg-type]
        extra=_tuplify(dict(payload["extra"])),  # type: ignore[arg-type]
    )


def write_measurements_json(
    path: str | Path,
    measurement_sets: Mapping[str, MeasurementSet]
    | Mapping[str, Iterable[ElectionMeasurement]],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write every per-run election measurement, losslessly, to a JSON file.

    Unlike the CSV flattening (which rounds for readability) this keeps every
    field bit-exact, so :func:`read_measurements_json` reconstructs the
    original :class:`ElectionMeasurement` records.
    """
    cells = {
        label: [_measurement_to_json(m) for m in measurements]
        for label, measurements in measurement_sets.items()
    }
    return _write_json(path, cells, metadata)


def read_measurements_json(path: str | Path) -> dict[str, MeasurementSet]:
    """Read a JSON election export back into per-label measurement sets."""
    return {
        label: MeasurementSet(
            (_measurement_from_json(entry) for entry in entries), label=label
        )
        for label, entries in _read_json(path)["cells"].items()
    }


# --------------------------------------------------------------------------- #
# Flat aggregate rows (experiments whose results are cells, not raw episodes)
# --------------------------------------------------------------------------- #
def write_rows_csv(path: str | Path, rows: Sequence[Mapping[str, object]]) -> Path:
    """Write a sequence of uniform scalar-valued dicts to one CSV file."""
    return _write_csv(path, list(rows[0]) if rows else [], rows)


def read_rows_csv(path: str | Path) -> list[dict[str, object]]:
    """Read back a CSV produced by :func:`write_rows_csv` (values as text)."""
    return _read_csv(path)


def write_rows_json(
    path: str | Path,
    rows: Sequence[Mapping[str, object]],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write aggregate rows, losslessly (types preserved), to a JSON file."""
    return _write_json(path, [dict(row) for row in rows], metadata)


def read_rows_json(path: str | Path) -> list[dict[str, object]]:
    """Read back the rows written by :func:`write_rows_json`."""
    return [dict(row) for row in _read_json(path)["cells"]]


# --------------------------------------------------------------------------- #
# Registry-generic persistence (the CLI's --output path)
# --------------------------------------------------------------------------- #
#: ``(CSV writer, JSON writer, JSON reader)`` per exporter kind
#: (:data:`repro.experiments.spec.EXPORT_KINDS`).
_KIND_IO = {
    "election": (write_measurements_csv, write_measurements_json, read_measurements_json),
    "availability": (write_availability_csv, write_availability_json, read_availability_json),
    "rows": (write_rows_csv, write_rows_json, read_rows_json),
}


def save_run(run: "ExperimentRun", directory: str | Path) -> dict[str, Path]:
    """Persist one experiment run through its spec's exporter binding.

    Writes three files into *directory* (created if needed), prefixed with
    the experiment name so ``all --output DIR`` can share one directory:

    * ``<name>.csv`` -- the raw measurements (or aggregate rows) flattened;
    * ``<name>.json`` -- a lossless export plus the run's metadata
      (seed, runs, workers, resolved parameters, notes, and the wall-clock
      phase profile from :class:`repro.obs.profiling.Profiler`);
    * ``<name>.report.txt`` -- the rendered report the CLI printed.

    Measurement ``extra`` payloads -- including the telemetry snapshot state
    a ``telemetry=True`` scenario attaches -- ride the JSON export verbatim
    and are restored by :func:`load_run` (arrays come back as tuples, which
    :meth:`repro.obs.telemetry.TelemetrySnapshot.from_state` accepts).

    Returns:
        Mapping of ``{"csv": ..., "json": ..., "report": ...}`` paths.

    Raises:
        ConfigurationError: when the experiment's spec declares no exporter.
    """
    from repro.experiments import registry

    spec = registry.get(run.name)
    if spec.exporter is None:
        raise ConfigurationError(
            f"experiment {run.name!r} declares no exporter binding; "
            "it cannot be persisted through the generic export path"
        )
    destination = Path(directory)
    destination.mkdir(parents=True, exist_ok=True)
    payload = spec.exporter.extract(run.result)
    metadata = dict(run.metadata(), export_kind=spec.exporter.kind)
    csv_path = destination / f"{run.name}.csv"
    json_path = destination / f"{run.name}.json"
    # The kind is one of _KIND_IO's: ExporterBinding.__post_init__ checked it.
    write_csv, write_json, _ = _KIND_IO[spec.exporter.kind]
    write_csv(csv_path, payload)
    write_json(json_path, payload, metadata=metadata)
    report_path = destination / f"{run.name}.report.txt"
    report_path.write_text(run.report + "\n")
    return {"csv": csv_path, "json": json_path, "report": report_path}


def load_run(name: str, directory: str | Path) -> tuple[dict[str, object], object]:
    """Load the lossless JSON export written by :func:`save_run`.

    Returns:
        ``(metadata, payload)``: the run metadata dict, and the payload in
        the shape the exporter binding extracted -- per-label
        :class:`MeasurementSet`/:class:`AvailabilitySet` mappings for the
        ``"election"``/``"availability"`` kinds, a list of row dicts for
        ``"rows"``.
    """
    source = Path(directory) / f"{name}.json"
    metadata = _read_json(source)["metadata"]
    kind = metadata.get("export_kind")
    if kind not in _KIND_IO:
        raise ConfigurationError(
            f"results file {source} carries unknown export kind {kind!r}"
        )
    return metadata, _KIND_IO[kind][2](source)
