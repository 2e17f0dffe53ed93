"""Structured trace recording for simulations.

Traces serve two purposes: they power the human-readable timelines shown by
the examples, and integration tests assert on them (for example, that no
ESCAPE run ever records a ``split_vote`` event).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.common.types import Milliseconds, ServerId


@dataclass(frozen=True)
class TraceRecord:
    """A single trace event.

    Attributes:
        time_ms: simulated time the event happened at.
        category: machine-readable category, e.g. ``"election.timeout"``,
            ``"role.change"``, ``"net.drop"``, ``"election.split_vote"``.
        node: the server the event concerns, or ``None`` for cluster-wide
            events (such as the harness crashing the leader).
        detail: free-form key/value payload.
    """

    time_ms: Milliseconds
    category: str
    node: ServerId | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        """Render the record as a single human-readable line."""
        who = f"S{self.node}" if self.node is not None else "cluster"
        payload = " ".join(f"{key}={value}" for key, value in sorted(self.detail.items()))
        return f"[{self.time_ms:10.1f} ms] {who:<6} {self.category:<24} {payload}"


class Tracer:
    """Collects :class:`TraceRecord` instances during a simulation.

    A tracer can be disabled (``enabled=False``) to make large parameter
    sweeps cheaper; recording becomes a no-op but the API stays identical.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = enabled
        self._records: list[TraceRecord] = []

    @property
    def enabled(self) -> bool:
        """Whether records are being kept."""
        return self._enabled

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """All recorded events in chronological (insertion) order."""
        return tuple(self._records)

    def record(
        self,
        time_ms: Milliseconds,
        category: str,
        node: ServerId | None = None,
        **detail: Any,
    ) -> None:
        """Append a record (no-op when the tracer is disabled)."""
        if not self._enabled:
            return
        self._records.append(
            TraceRecord(time_ms=time_ms, category=category, node=node, detail=detail)
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)
