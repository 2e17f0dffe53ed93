"""Wall-clock phase profiling for the experiment pipeline.

This module is on the :mod:`repro.lint` D1 allowlist: it is the *only*
sanctioned home (with :mod:`repro.obs.progress`) for wall-clock reads in the
observability layer.  Nothing here feeds back into simulated behaviour --
phase timings are reporting metadata, exactly like the long-standing
``elapsed_s`` field on the experiment envelope.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["Profiler"]


class Profiler:
    """Accumulates named wall-clock phases (``build``/``sweep``/``report``...).

    Phases are recorded with the :meth:`phase` context manager; re-entering a
    name accumulates into the same bucket.  ``snapshot`` returns a plain
    ``{name: seconds}`` dict in first-seen order, suitable for the
    ``ExperimentRun.profile`` envelope field (``bench/`` reports it as
    ``experiments.profile.*``).

    A *clock* callable may be injected for deterministic tests; the default
    is :func:`time.perf_counter`.
    """

    __slots__ = ("_clock", "_phases")

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = time.perf_counter if clock is None else clock
        self._phases: dict[str, float] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time the enclosed block under *name* (accumulating on re-entry)."""
        started = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - started
            self._phases[name] = self._phases.get(name, 0.0) + elapsed

    def elapsed(self, name: str, default: float = 0.0) -> float:
        """Seconds accumulated under *name* (or *default* if never entered)."""
        return self._phases.get(name, default)

    @property
    def total(self) -> float:
        """Sum of all recorded phases."""
        return sum(self._phases.values())

    def snapshot(self) -> dict[str, float]:
        """The per-phase seconds, in first-seen order."""
        return dict(self._phases)
