"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls into each
layer's public functions; nothing under ``src/`` is instrumented.  They stay
in memory while episodes run and are written out once, on exit, in Chrome
trace-event format (loadable in Perfetto / ``chrome://tracing``).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator


@dataclass
class Span:
    """One timed interval: what ran, when, inside which span, for which episode."""

    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    episode: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records a tree of spans; every span of one episode shares its id."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._open: list[int] = []
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, episode: int) -> Iterator[None]:
        """Time the enclosed block as a child of the innermost open span."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self._clock(), 0, parent, episode))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end_ns = self._clock()
            self._open.pop()

    def totals_ns(self) -> dict[str, int]:
        """Summed duration per span name."""
        totals: dict[str, int] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0) + span.duration_ns
        return totals

    def self_times_ns(self) -> dict[str, int]:
        """Summed self time per span name: duration minus direct children."""
        own = [span.duration_ns for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration_ns
        totals: dict[str, int] = {}
        for span, self_ns in zip(self.spans, own):
            totals[span.name] = totals.get(span.name, 0) + self_ns
        return totals

    def durations_ns(self, name: str) -> list[int]:
        """Every duration recorded under *name*, in recording order."""
        return [span.duration_ns for span in self.spans if span.name == name]

    def chrome_trace(self) -> dict[str, object]:
        """The spans as a Chrome trace-event document (complete ``X`` events)."""
        origin = self.spans[0].start_ns if self.spans else 0
        events = []
        for index, span in enumerate(self.spans):
            parent = self.spans[span.parent].name if span.parent is not None else None
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start_ns - origin) / 1000.0,
                    "dur": span.duration_ns / 1000.0,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "episode": span.episode,
                        "span": index,
                        "parent": parent,
                        "parent_span": span.parent,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))
