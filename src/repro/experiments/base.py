"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from typing import Callable, Iterable

from repro.common.rng import derive_run_seed, paired_seeds
from repro.metrics.records import MeasurementSet

__all__ = [
    "ProgressCallback",
    "derive_run_seed",
    "flatten_sets",
    "paired_seeds",
    "progress_printer",
]

ProgressCallback = Callable[[str, int, int], None]


def progress_printer() -> ProgressCallback:
    """A progress callback printing a line per label per completed tenth.

    Stateful because the sweep reports once per merged chunk, so a label's
    count advances in uneven steps and may jump over any fixed multiple.
    """
    tenths: dict[str, int] = {}

    def report(label: str, done: int, total: int) -> None:
        tenth = done * 10 // total
        if tenth > tenths.get(label, 0):
            tenths[label] = tenth
            print(f"  [{label}] {done}/{total} runs", flush=True)

    return report


def flatten_sets(sets: Iterable[MeasurementSet]) -> MeasurementSet:
    """Merge several measurement sets into one (for aggregate statistics)."""
    merged = MeasurementSet(label="merged")
    for measurement_set in sets:
        for measurement in measurement_set:
            merged.add(measurement)
    return merged
