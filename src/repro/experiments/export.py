"""Persisting experiment results to CSV and JSON.

Sweeps are expensive; :func:`save_run` archives the
:class:`~repro.experiments.spec.ExperimentRun` envelope of any registered
experiment so figures can be re-plotted or re-analysed without re-running the
simulation, and :func:`load_run` reads the archive back.

What is written is a function of the declared cell container alone.  A
collecting :class:`~repro.metrics.records.RecordSet` archives its episodes
through one record codec driven by :func:`dataclasses.fields`
(:func:`record_state` / :func:`record_from_state` for the lossless JSON,
:func:`record_row` for the flat CSV), so a new measurement dataclass needs no
code here; any other container archives one ``to_row(label)`` per cell.
:func:`write_measurements_csv` / :func:`write_measurements_json` apply the
same codec to a plain ``label -> records`` mapping, for scripts that work
below the envelope level.  Every file is UTF-8 whatever the host's locale.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, TypeVar

from repro.common.errors import ConfigurationError
from repro.metrics.records import RecordSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (spec is data-only)
    from repro.experiments.spec import ExperimentRun

__all__ = [
    "load_run",
    "record_from_state",
    "record_row",
    "record_state",
    "save_run",
    "write_measurements_csv",
    "write_measurements_json",
]

R = TypeVar("R")

#: What a CSV cell can hold; a field holding anything else (a tuple, a
#: mapping) is in the JSON export only.
_SCALARS = (bool, int, float, str, type(None))


# --------------------------------------------------------------------------- #
# The record codec
# --------------------------------------------------------------------------- #
def record_state(record: object) -> dict[str, object]:
    """Every field of a measurement record by name, bit-exact.

    Not :func:`dataclasses.asdict`, which would deep-copy every nested
    payload, a telemetry state among them.  JSON writes the tuples as arrays.
    """
    return {field.name: getattr(record, field.name) for field in fields(record)}


def _tuplify(value: object) -> object:
    """Restore JSON arrays as tuples (the records hold immutable sequences)."""
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    if isinstance(value, dict):
        return {key: _tuplify(item) for key, item in value.items()}
    return value


def record_from_state(cls: type[R], payload: Mapping[str, object]) -> R:
    """The record :func:`record_state` described, after a trip through JSON.

    JSON preserves int / float / bool / None / str; arrays come back as
    tuples at every depth, nested payloads included (which
    :meth:`repro.obs.telemetry.TelemetrySnapshot.from_state` accepts).
    """
    return cls(**_tuplify(payload))


def record_row(record: object, label: str = "") -> dict[str, object]:
    """One record as a flat CSV row: *label*, then every scalar field.

    Fields keep their declaration order; floats are rounded for readability,
    a duration (declared ``Milliseconds``) to 3 places and any other to 6.
    """
    row: dict[str, object] = {"label": label}
    for field in fields(record):
        value = getattr(record, field.name)
        if isinstance(value, float):
            value = round(value, 3 if field.type == "Milliseconds" else 6)
        if isinstance(value, _SCALARS):
            row[field.name] = value
    return row


# --------------------------------------------------------------------------- #
# Files
# --------------------------------------------------------------------------- #
def _write_csv(path: str | Path, rows: Iterable[Mapping[str, object]]) -> Path:
    """Write uniform *rows* under the first one's keys (parents are created)."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    rows = iter(rows)
    first = next(rows, None)
    with destination.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(first or ()))
        writer.writeheader()
        if first is not None:
            writer.writerow(first)
            writer.writerows(rows)
    return destination


def _write_json(
    path: str | Path, cells: object, metadata: Mapping[str, object] | None
) -> Path:
    """Write the ``{"metadata", "cells"}`` document every JSON export shares."""
    destination = Path(path)
    destination.parent.mkdir(parents=True, exist_ok=True)
    payload = {"metadata": dict(metadata or {}), "cells": cells}
    destination.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str), encoding="utf-8"
    )
    return destination


def write_measurements_csv(
    path: str | Path, measurement_sets: Mapping[str, Iterable[object]]
) -> Path:
    """Write every per-run measurement of a sweep to one CSV file.

    Args:
        path: destination file (parent directories are created).
        measurement_sets: mapping from cell label (e.g. ``"escape@32"``) to its
            records, a :class:`~repro.metrics.records.RecordSet` or any
            iterable of one measurement dataclass.

    Returns:
        The resolved path written to.
    """
    return _write_csv(
        path,
        (
            record_row(record, label)
            for label, records in measurement_sets.items()
            for record in records
        ),
    )


def write_measurements_json(
    path: str | Path,
    measurement_sets: Mapping[str, Iterable[object]],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write every per-run measurement, losslessly, to a JSON file.

    Unlike the CSV flattening (which rounds for readability and drops the
    non-scalar fields) this keeps every field bit-exact, so
    :func:`record_from_state` reconstructs the original records.
    """
    cells = {
        label: [record_state(record) for record in records]
        for label, records in measurement_sets.items()
    }
    return _write_json(path, cells, metadata)


# --------------------------------------------------------------------------- #
# Registry-generic persistence (the CLI's --output path)
# --------------------------------------------------------------------------- #
def _episode_container(name: str) -> type[RecordSet] | None:
    """The registered experiment's container, when it keeps its episodes."""
    from repro.experiments import registry

    container = registry.get(name).container
    return container if issubclass(container, RecordSet) else None


def save_run(run: "ExperimentRun", directory: str | Path) -> dict[str, Path]:
    """Persist one experiment run as its declared container dictates.

    Writes three files into *directory* (created if needed), prefixed with
    the experiment name so ``all --output DIR`` can share one directory:

    * ``<name>.csv`` -- the episodes of a collecting sweep flattened
      (:func:`record_row`), else one ``to_row(label)`` per cell;
    * ``<name>.json`` -- the same, lossless (:func:`record_state` per episode,
      or the rows with their types), plus the run's metadata
      (:meth:`~repro.experiments.spec.ExperimentRun.metadata`, which carries
      the resolved parameters and the wall-clock phase profile, and
      ``export_kind``: ``"episodes"`` or ``"rows"``);
    * ``<name>.report.txt`` -- the rendered report the CLI printed.

    A record's free-form payload -- including the telemetry snapshot state a
    ``telemetry=True`` scenario attaches -- rides the JSON export verbatim.

    Returns:
        Mapping of ``{"csv": ..., "json": ..., "report": ...}`` paths.
    """
    destination = Path(directory)
    destination.mkdir(parents=True, exist_ok=True)
    csv_path = destination / f"{run.name}.csv"
    json_path = destination / f"{run.name}.json"
    cells = run.result.by_label
    if _episode_container(run.name):
        metadata = dict(run.metadata(), export_kind="episodes")
        write_measurements_csv(csv_path, cells)
        write_measurements_json(json_path, cells, metadata)
    else:
        metadata = dict(run.metadata(), export_kind="rows")
        rows = [cell.to_row(label) for label, cell in cells.items()]
        _write_csv(csv_path, rows)
        _write_json(json_path, rows, metadata)
    report_path = destination / f"{run.name}.report.txt"
    report_path.write_text(run.report + "\n", encoding="utf-8")
    return {"csv": csv_path, "json": json_path, "report": report_path}


def load_run(name: str, directory: str | Path) -> tuple[dict[str, object], object]:
    """Load the lossless JSON export written by :func:`save_run`.

    Returns:
        ``(metadata, payload)``: the run metadata dict, and what was
        archived -- for ``"episodes"`` a mapping of label to the registered
        experiment's container holding the reconstructed records, for
        ``"rows"`` the list of row dicts.

    Raises:
        ConfigurationError: naming the file when it is missing or carries an
            export kind this version does not write.
    """
    source = Path(directory) / f"{name}.json"
    if not source.exists():
        raise ConfigurationError(f"no such results file: {source}")
    document = json.loads(source.read_text(encoding="utf-8"))
    metadata, cells = document["metadata"], document["cells"]
    kind = metadata.get("export_kind")
    if kind == "rows":
        return metadata, cells
    container = _episode_container(name)
    if kind != "episodes" or container is None:
        raise ConfigurationError(
            f"results file {source} carries export kind {kind!r}, which "
            f"experiment {name!r} does not archive"
        )
    return metadata, {
        label: container(
            (record_from_state(container.record_type, entry) for entry in entries),
            label=label,
        )
        for label, entries in cells.items()
    }
