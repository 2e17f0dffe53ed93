"""Shared plumbing for the experiment modules."""

from __future__ import annotations

from typing import Callable

from repro.common.rng import derive_run_seed, paired_seeds

__all__ = [
    "ProgressCallback",
    "derive_run_seed",
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

