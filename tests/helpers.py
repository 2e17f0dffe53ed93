"""Shared test helpers: a fake node environment and small builders."""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro import protocols
from repro.common.config import ClusterConfig, ProtocolConfig, RaftTimeoutConfig, ScaParameters
from repro.common.frozen import value_object
from repro.common.types import Milliseconds, ServerId
from repro.common.validation import require_non_negative
from repro.obs.telemetry import TelemetrySnapshot

from oracle import ENGINE_OWNED_METRICS

#: Every registered protocol that claims liveness, in registration order: the
#: ones an end-to-end test can crash a leader of and wait for the next.
LIVE_PROTOCOLS = tuple(
    name for name, spec in protocols.items() if spec.guarantees_liveness
)


@value_object
class ConstantLatency:
    """A latency model: every message takes exactly *latency_ms* milliseconds,
    so a test can tell when each message arrives.  It draws nothing, so the
    flat network reaches it through its generic ``sample`` path."""

    latency_ms: Milliseconds = 100.0

    def __post_init__(self) -> None:
        require_non_negative(self.latency_ms, "latency_ms")

    def sample(self, rng: random.Random, src: ServerId, dst: ServerId) -> Milliseconds:
        return self.latency_ms


@dataclass
class SentMessage:
    """A message a node handed to its (fake) environment."""

    dst: ServerId
    payload: Any


@dataclass
class FakeTimer:
    """A timer armed through the fake environment; tests fire it explicitly."""

    delay_ms: Milliseconds
    callback: Callable[[], None]
    label: str
    armed_at_ms: Milliseconds
    cancelled: bool = False

    @property
    def due_at_ms(self) -> Milliseconds:
        return self.armed_at_ms + self.delay_ms

    def cancel(self) -> None:
        self.cancelled = True

    def fire(self) -> None:
        """Invoke the callback (tests decide when a timer 'expires')."""
        if not self.cancelled:
            self.callback()


@dataclass
class FakeEnvironment:
    """Hand-driven environment for unit-testing protocol nodes.

    Messages are collected in :attr:`sent`; timers are collected in
    :attr:`timers` and only fire when the test calls :meth:`fire_next_timer`
    (or fires a specific timer).  Time advances only via :meth:`advance`.
    """

    node_id: ServerId = 1
    time_ms: Milliseconds = 0.0
    sent: list[SentMessage] = field(default_factory=list)
    timers: list[FakeTimer] = field(default_factory=list)
    traces: list[tuple[str, dict[str, Any]]] = field(default_factory=list)
    #: Per ``broadcast`` call, the form it used: ``"message"`` (one object
    #: for every target) or ``"factory"`` (called per target).
    broadcast_forms: list[str] = field(default_factory=list)
    seed: int = 0
    trace_enabled: bool = True

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # --- Environment protocol -------------------------------------------------
    @property
    def rng(self) -> random.Random:
        return self._rng

    def now(self) -> Milliseconds:
        return self.time_ms

    def send(self, dst: ServerId, message: Any) -> None:
        self.sent.append(SentMessage(dst, message))

    def broadcast(
        self, targets: Sequence[ServerId], payload: Any | Callable[[ServerId], Any]
    ) -> None:
        factory = payload if callable(payload) else None
        self.broadcast_forms.append("message" if factory is None else "factory")
        for dst in targets:
            self.sent.append(
                SentMessage(dst, payload if factory is None else factory(dst))
            )

    def set_timer(
        self, delay_ms: Milliseconds, callback: Callable[[], None], label: str = ""
    ) -> FakeTimer:
        timer = FakeTimer(
            delay_ms=delay_ms,
            callback=callback,
            label=f"S{self.node_id}:{label}",
            armed_at_ms=self.time_ms,
        )
        self.timers.append(timer)
        return timer

    def cancel_timer(self, handle: FakeTimer) -> None:
        handle.cancel()

    def rearm_timer(
        self,
        handle: FakeTimer | None,
        delay_ms: Milliseconds,
        callback: Callable[[], None],
        label: str = "",
    ) -> FakeTimer:
        if handle is not None:
            self.cancel_timer(handle)
        return self.set_timer(delay_ms, callback, label)

    def trace(self, category: str, **detail: Any) -> None:
        self.traces.append((category, detail))

    # --- test conveniences -----------------------------------------------------
    def advance(self, delta_ms: Milliseconds) -> None:
        """Advance the fake clock (does not fire timers)."""
        self.time_ms += delta_ms

    def pending_timers(self) -> list[FakeTimer]:
        """Timers that are armed and not cancelled."""
        return [timer for timer in self.timers if not timer.cancelled]

    def pending_timer_labels(self) -> list[str]:
        return [timer.label for timer in self.pending_timers()]

    def fire_next_timer(self, label_prefix: str | None = None) -> FakeTimer:
        """Fire the earliest pending timer (optionally filtered by label)."""
        candidates = [
            timer
            for timer in self.pending_timers()
            if label_prefix is None or timer.label.startswith(label_prefix)
        ]
        if not candidates:
            raise AssertionError(f"no pending timer matching {label_prefix!r}")
        timer = min(candidates, key=lambda item: item.due_at_ms)
        self.time_ms = max(self.time_ms, timer.due_at_ms)
        timer.cancel()  # a fired one-shot timer cannot fire again
        timer.callback()
        return timer

    def sent_to(self, dst: ServerId) -> list[Any]:
        """Payloads sent to one destination."""
        return [item.payload for item in self.sent if item.dst == dst]

    def sent_payloads(self, payload_type: type | None = None) -> list[Any]:
        """All sent payloads, optionally filtered by type."""
        payloads = [item.payload for item in self.sent]
        if payload_type is None:
            return payloads
        return [payload for payload in payloads if isinstance(payload, payload_type)]

    def clear_sent(self) -> None:
        self.sent.clear()


@contextmanager
def registrations(registry_module: Any) -> Iterator[None]:
    """Restore a spec-registry module's table (``repro.protocols.registry``,
    ``repro.experiments.registry``) to its current contents when the block
    exits: whatever the block registers or replaces is undone."""
    table = registry_module._REGISTRY._specs
    saved = dict(table)
    try:
        yield
    finally:
        table.clear()
        table.update(saved)


def load_registries() -> dict[str, tuple[tuple[str, object], ...]]:
    """Import the six spec registries and enumerate each one's
    ``(name, spec)`` pairs, in registration order."""
    from repro.chaos.plans import CHAOS_CATALOG
    from repro.cluster.catalog import CATALOG
    from repro.experiments import registry as experiment_registry
    from repro.protocols import registry as protocol_registry
    from repro.sim import engines as engine_registry
    from repro.workload import specs as workload_registry

    return {
        "protocols": protocol_registry.items(),
        "experiments": experiment_registry.items(),
        "net-conditions": CATALOG.items(),
        "chaos-plans": CHAOS_CATALOG.items(),
        "engines": engine_registry.items(),
        "workloads": workload_registry.items(),
    }


def bootstrap_by_hand(cluster: Any) -> None:
    """``ElectionHarness.stabilize``'s bootstrap, restated without the harness:
    the running node whose first election-timeout wait is shortest (the
    lowest id on a tie) fires its timeout now."""
    first = min(
        cluster.running_nodes(),
        key=lambda node: (node.first_election_wait_ms, node.node_id),
    )
    first.expire_election_timer()


def small_cluster(n: int = 3) -> ClusterConfig:
    """A small cluster config used across node unit tests."""
    return ClusterConfig.of_size(n)


def fast_protocol_config(**overrides: Any) -> ProtocolConfig:
    """A protocol configuration with short, test-friendly timings."""
    defaults: dict[str, Any] = dict(
        heartbeat_interval_ms=10.0,
        vote_retry_interval_ms=20.0,
        raft_timeouts=RaftTimeoutConfig(100.0, 200.0),
        sca=ScaParameters(base_time_ms=100.0, k_ms=20.0),
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


def cross_engine_view(telemetry: Any) -> dict[str, dict[str, Any]]:
    """A telemetry snapshot (or its ``to_state`` dict) as the engines must
    agree on it: every metric but the engine-owned heap gauges."""
    state = telemetry if isinstance(telemetry, Mapping) else telemetry.to_state()
    return {
        kind: {
            name: value
            for name, value in values.items()
            if name not in ENGINE_OWNED_METRICS
        }
        for kind, values in state.items()
    }


class AppendRegister:
    """Records every applied command in order.

    Tests use this to assert the fundamental state-machine-replication
    property: every server applies the same command sequence in the same
    order.
    """

    def __init__(self) -> None:
        self.history: list[Any] = []

    def apply(self, command: Any) -> Any:
        self.history.append(command)
        return len(self.history)

    def snapshot(self) -> list[Any]:
        return list(self.history)

    def restore(self, snapshot: list[Any]) -> None:
        self.history = list(snapshot)


def merge_snapshots(snapshots: Iterable[TelemetrySnapshot]) -> TelemetrySnapshot:
    """Fold an iterable of snapshots into one (empty iterable -> empty)."""
    merged = TelemetrySnapshot()
    for snapshot in snapshots:
        merged = merged.merge(snapshot)
    return merged


def sweep_telemetry(
    results: Mapping[str, Iterable],
) -> dict[str, TelemetrySnapshot]:
    """Per-label merged telemetry from a sweep into collecting sets.

    Telemetry-enabled scenarios attach each episode's snapshot state to
    ``measurement.extra["telemetry"]``; this folds them per label, in slot
    (episode-index) order, so the table is bit-identical at any worker count.
    Labels whose measurements carry no telemetry are omitted.  Aggregate
    containers never retain per-episode extras, so this helper applies to
    measurement-set results only.
    """
    tables: dict[str, TelemetrySnapshot] = {}
    for label, measurements in results.items():
        states = [
            measurement.extra["telemetry"]
            for measurement in measurements
            if "telemetry" in getattr(measurement, "extra", {})
        ]
        if states:
            tables[label] = merge_snapshots(
                TelemetrySnapshot.from_state(state) for state in states
            )
    return tables
