"""Sweep progress reporting: plain lines, stderr ticker and heartbeat.

Like :mod:`repro.obs.profiling`, this module is on the :mod:`repro.lint` D1
allowlist -- progress rates and ETAs are wall-clock by nature and never feed
back into simulated behaviour.

The sweep accounting reports progress through a :data:`ProgressCallback`,
called as ``callback(label, completed, total)``.  :func:`progress_printer`
prints plain lines; a :class:`ProgressReporter` is a callback too, plus two
optional hooks the sweep engine invokes when present:

* ``sweep_begin(labels, runs, workers)`` -- announces the full work plan up
  front so totals and ETA are correct from the first episode;
* ``mark_resumed(label, count)`` -- episodes replayed from a checkpoint are
  counted as done but excluded from the episodes/sec rate, so a resumed run
  reports an honest ETA instead of a fantastically fast one.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Sequence, TextIO

__all__ = [
    "HEARTBEAT_SCHEMA",
    "ProgressCallback",
    "ProgressReporter",
    "progress_printer",
]

#: Schema tag written into every heartbeat file.
HEARTBEAT_SCHEMA = "repro.obs.heartbeat/v1"

#: What a sweep calls as ``callback(label, completed, total)``.
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


class ProgressReporter:
    """Tracks per-label sweep completion and emits ticker/heartbeat output.

    Args:
        heartbeat_path: when set, a JSON heartbeat is (atomically) rewritten
            at most every *interval_s* seconds, and once more by ``finish``.
        ticker: when true, a single self-overwriting progress line is written
            to *stream* at the same cadence.
        interval_s: minimum seconds between emissions.
        clock: injectable monotonic clock (default :func:`time.monotonic`)
            for deterministic tests.
        stream: ticker destination (default ``sys.stderr``).
    """

    def __init__(
        self,
        heartbeat_path: str | os.PathLike[str] | None = None,
        ticker: bool = False,
        interval_s: float = 1.0,
        clock: Callable[[], float] | None = None,
        stream: TextIO | None = None,
    ) -> None:
        self._heartbeat_path = (
            None if heartbeat_path is None else os.fspath(heartbeat_path)
        )
        self._ticker = ticker
        self._interval_s = interval_s
        self._clock = time.monotonic if clock is None else clock
        self._stream = stream
        self._started = self._clock()
        self._last_emit: float | None = None
        self._completed: dict[str, int] = {}
        self._totals: dict[str, int] = {}
        self._resumed: dict[str, int] = {}
        self._workers = 1
        self._peak_eps = 0.0
        self._finished = False

    # -- sweep-engine hooks -------------------------------------------------

    def sweep_begin(self, labels: Sequence[str], runs: int, workers: int) -> None:
        """Announce the work plan: *runs* episodes for each of *labels*."""
        self._started = self._clock()
        self._last_emit = None
        self._workers = max(1, workers)
        for label in labels:
            self._totals[label] = runs
            self._completed.setdefault(label, 0)

    def mark_resumed(self, label: str, count: int) -> None:
        """Record *count* episodes of *label* restored from a checkpoint."""
        self._resumed[label] = self._resumed.get(label, 0) + count

    # -- ProgressCallback ---------------------------------------------------

    def __call__(self, label: str, completed: int, total: int) -> None:
        """Record that *label* now has *completed* of *total* episodes done."""
        self._completed[label] = completed
        self._totals[label] = total
        now = self._clock()
        if self._last_emit is None or now - self._last_emit >= self._interval_s:
            self._emit(now, finished=False)
            self._last_emit = now

    def finish(self) -> None:
        """Emit the final heartbeat/ticker state (idempotent)."""
        if self._finished:
            return
        self._finished = True
        self._emit(self._clock(), finished=True)
        if self._ticker:
            self._out().write("\n")
            self._out().flush()

    # -- internals ----------------------------------------------------------

    def _out(self) -> TextIO:
        return sys.stderr if self._stream is None else self._stream

    def status(self, now: float | None = None, finished: bool = False) -> dict:
        """The machine-readable progress state (the heartbeat payload)."""
        if now is None:
            now = self._clock()
        done = sum(self._completed.values())
        total = sum(self._totals.values())
        resumed = min(done, sum(self._resumed.values()))
        elapsed_s = max(0.0, now - self._started)
        fresh = done - resumed
        eps = fresh / elapsed_s if elapsed_s > 0 and fresh > 0 else 0.0
        self._peak_eps = max(self._peak_eps, eps)
        remaining = max(0, total - done)
        eta_s = remaining / eps if eps > 0 else None
        # Utilization is an estimate: the current aggregate episode rate
        # relative to the best rate observed this run.  1.0 means the pool is
        # sustaining its peak; it says nothing about absolute efficiency.
        utilization = (
            min(1.0, eps / self._peak_eps) if self._peak_eps > 0 else 0.0
        )
        return {
            "schema": HEARTBEAT_SCHEMA,
            "labels": {
                label: {
                    "completed": self._completed.get(label, 0),
                    "total": self._totals.get(label, 0),
                }
                for label in self._totals
            },
            "completed": done,
            "total": total,
            "resumed": resumed,
            "elapsed_s": round(elapsed_s, 3),
            "episodes_per_s": round(eps, 3),
            "eta_s": None if eta_s is None else round(eta_s, 3),
            "workers": self._workers,
            "utilization": round(utilization, 3),
            "finished": finished,
        }

    def _emit(self, now: float, finished: bool) -> None:
        status = self.status(now, finished=finished)
        if self._heartbeat_path is not None:
            tmp_path = self._heartbeat_path + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(status, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_path, self._heartbeat_path)
        if self._ticker:
            eta = status["eta_s"]
            line = (
                f"sweep {status['completed']}/{status['total']} episodes"
                f" | {status['episodes_per_s']:.1f} ep/s"
                f" | eta {'--' if eta is None else f'{eta:.0f} s'}"
                f" | workers {status['workers']}"
                f" (util {status['utilization']:.0%})"
            )
            if status["resumed"]:
                line += f" | resumed {status['resumed']}"
            out = self._out()
            out.write("\r" + line)
            out.flush()
