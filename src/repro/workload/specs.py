"""The workload registry: named, frozen client-traffic shapes.

The election experiments measure how fast a cluster finds a leader; what a
user feels is how commit latency and goodput behave *while* it does.  A
:class:`WorkloadSpec` captures one client-traffic shape -- closed-loop clients
with think time, or an open-loop arrival process -- together with a keyspace
model and a value-size model, as a frozen, hashable, picklable value.  Like
the protocol/engine/chaos registries, workloads are registered by name so the
``throughput`` experiment, the CLI and the benchmarks all select them the
same way, and the spec conformance suite checks every registered value
through :func:`items`.

A spec is *resolved* against a live cluster by
:class:`repro.workload.driver.WorkloadDriver`; this module is pure data.
"""

from __future__ import annotations

from dataclasses import fields, replace

from repro.common.errors import ConfigurationError
from repro.common.frozen import value_object
from repro.common.registry import Registry
from repro.common.types import Milliseconds

__all__ = [
    "KeyspaceSpec",
    "ValueSizeSpec",
    "WorkloadSpec",
    "get",
    "items",
    "legacy_interval",
    "names",
    "register",
]

#: The closed-loop / open-loop driver modes a spec may select.
MODES: tuple[str, ...] = ("closed", "open")

#: Open-loop arrival processes.
ARRIVALS: tuple[str, ...] = ("poisson", "uniform", "burst")

#: Key-selection models.
KEY_MODES: tuple[str, ...] = ("round-robin", "uniform", "hotspot")

#: Value-size models.
VALUE_MODES: tuple[str, ...] = ("fixed", "uniform")

#: The :class:`WorkloadSpec` fields only one mode or arrival reads, by the
#: mode (closed) or arrival (open) that reads them; the arrival itself is
#: read only by open specs.
_SHAPE_FIELDS: dict[str, tuple[str, ...]] = {
    "closed": ("clients", "think_time_ms", "request_timeout_ms"),
    "poisson": ("arrival", "rate_per_s"),
    "uniform": ("arrival", "interval_ms"),
    "burst": ("arrival", "burst_size", "burst_interval_ms"),
}


@value_object
class KeyspaceSpec:
    """How clients pick keys.

    ``round-robin`` cycles deterministically through the keyspace (the shape
    of the fixed-interval :func:`legacy_interval` clients); ``uniform``
    samples keys uniformly; ``hotspot`` sends ``hot_share`` of the traffic
    to the hottest ``hot_fraction`` of the keys (a YCSB-style skew).
    """

    keys: int = 16
    mode: str = "round-robin"
    hot_fraction: float = 0.1
    hot_share: float = 0.9

    def __post_init__(self) -> None:
        if self.mode not in KEY_MODES:
            raise ConfigurationError(
                f"unknown keyspace mode {self.mode!r}; one of {KEY_MODES}"
            )
        if self.keys < 1:
            raise ConfigurationError(f"keyspace needs >= 1 key, got {self.keys}")
        if self.mode == "hotspot":
            if self.keys < 2:
                raise ConfigurationError("a hotspot keyspace needs >= 2 keys")
            if not 0.0 < self.hot_fraction < 1.0:
                raise ConfigurationError(
                    f"hot_fraction must be in (0, 1), got {self.hot_fraction}"
                )
            if not 0.0 < self.hot_share <= 1.0:
                raise ConfigurationError(
                    f"hot_share must be in (0, 1], got {self.hot_share}"
                )


@value_object
class ValueSizeSpec:
    """How large proposed values are (payload characters)."""

    mode: str = "fixed"
    size: int = 16
    min_size: int = 8
    max_size: int = 64

    def __post_init__(self) -> None:
        if self.mode not in VALUE_MODES:
            raise ConfigurationError(
                f"unknown value-size mode {self.mode!r}; one of {VALUE_MODES}"
            )
        if self.mode == "fixed" and self.size < 1:
            raise ConfigurationError(f"value size must be >= 1, got {self.size}")
        if self.mode == "uniform" and not 1 <= self.min_size <= self.max_size:
            raise ConfigurationError(
                f"need 1 <= min_size <= max_size, got "
                f"({self.min_size}, {self.max_size})"
            )


@value_object
class WorkloadSpec:
    """One named client-traffic shape.

    Of ``clients``, ``think_time_ms``, ``request_timeout_ms``, ``arrival``
    and the arrival fields, a spec may set only those its mode and arrival
    read: any other left off its default is refused at construction, since
    nothing would read it (a uniform spec given ``rate_per_s`` would
    silently keep its ``interval_ms`` gap).

    Attributes:
        name / description: registry identity and human summary.
        mode: ``"closed"`` (each of *clients* keeps at most one request in
            flight and thinks for an exponential ``think_time_ms`` between
            completions) or ``"open"`` (requests arrive on an *arrival*
            process regardless of completions).
        clients: closed-loop client count.
        think_time_ms: mean exponential think time between a closed-loop
            client's completions.
        arrival: open-loop arrival process -- ``"poisson"`` (exponential
            gaps), ``"uniform"`` (one arrival every ``interval_ms``) or
            ``"burst"`` (``burst_size`` back-to-back arrivals every
            ``burst_interval_ms``).
        rate_per_s: poisson mean arrival rate.
        burst_size / burst_interval_ms: burst-arrival shape.
        interval_ms: the uniform arrival's gap, carried as given rather than
            derived from a rate (``1000 / (1000 / 30)`` is not 30).
        max_retries: extra proposal attempts after a ``NotLeaderError``
            (the leader moved between lookup and proposal).
        retry_backoff_ms: delay before each retry attempt.
        request_timeout_ms: how long a closed-loop client waits for its
            in-flight request to commit before giving up and moving on (the
            request itself may still commit later and is accounted either
            way).
        keyspace / value_size: what the proposed commands look like.
    """

    name: str
    description: str = ""
    mode: str = "closed"
    clients: int = 4
    think_time_ms: Milliseconds = 200.0
    arrival: str = "poisson"
    rate_per_s: float = 20.0
    burst_size: int = 8
    burst_interval_ms: Milliseconds = 500.0
    interval_ms: Milliseconds = 250.0
    max_retries: int = 2
    retry_backoff_ms: Milliseconds = 50.0
    request_timeout_ms: Milliseconds = 4_000.0
    keyspace: KeyspaceSpec = KeyspaceSpec()
    value_size: ValueSizeSpec = ValueSizeSpec()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown workload mode {self.mode!r}; one of {MODES}"
            )
        if self.mode == "closed" and self.clients < 1:
            raise ConfigurationError(
                f"a closed-loop workload needs >= 1 client, got {self.clients}"
            )
        if self.mode == "closed" and self.think_time_ms <= 0:
            raise ConfigurationError(
                f"think_time_ms must be > 0, got {self.think_time_ms}"
            )
        if self.mode == "open":
            if self.arrival not in ARRIVALS:
                raise ConfigurationError(
                    f"unknown arrival process {self.arrival!r}; one of {ARRIVALS}"
                )
            if self.arrival == "poisson" and self.rate_per_s <= 0:
                raise ConfigurationError(
                    f"rate_per_s must be > 0, got {self.rate_per_s}"
                )
            if self.arrival == "uniform" and self.interval_ms <= 0:
                raise ConfigurationError(
                    f"interval_ms must be > 0, got {self.interval_ms}"
                )
            if self.arrival == "burst" and (
                self.burst_size < 1 or self.burst_interval_ms <= 0
            ):
                raise ConfigurationError(
                    "a burst arrival needs burst_size >= 1 and "
                    "burst_interval_ms > 0"
                )
        self._refuse_unread_fields()
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff_ms < 0:
            raise ConfigurationError(
                f"retry_backoff_ms must be >= 0, got {self.retry_backoff_ms}"
            )
        if self.request_timeout_ms <= 0:
            raise ConfigurationError(
                f"request_timeout_ms must be > 0, got {self.request_timeout_ms}"
            )

    def _refuse_unread_fields(self) -> None:
        """Refuse a shape field set off its default that nothing would read."""
        shape = "closed" if self.mode == "closed" else self.arrival
        shape_fields = {name for names in _SHAPE_FIELDS.values() for name in names}
        for spec_field in fields(self):
            name, value = spec_field.name, getattr(self, spec_field.name)
            if (
                name in shape_fields
                and name not in _SHAPE_FIELDS[shape]
                and value != spec_field.default
            ):
                reader = (
                    "a closed-loop workload"
                    if shape == "closed"
                    else f"an open-loop {shape} arrival"
                )
                raise ConfigurationError(
                    f"{name}={value!r} is not read by {reader}; "
                    f"leave it at its default {spec_field.default!r}"
                )


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_REGISTRY: Registry[WorkloadSpec] = Registry("workload")

register = _REGISTRY.register
get = _REGISTRY.get
names = _REGISTRY.names
items = _REGISTRY.items


def legacy_interval(interval_ms: Milliseconds) -> WorkloadSpec:
    """Fixed-interval clients: one proposal every *interval_ms*, no retries.

    The fig11/avail client workload -- ``open-uniform`` at a scenario-chosen
    gap, round-robin keys and fixed-size values, so it draws no randomness.
    """
    return replace(get("open-uniform"), interval_ms=interval_ms, max_retries=0)


# --------------------------------------------------------------------------- #
# Built-in workloads
# --------------------------------------------------------------------------- #
register(
    WorkloadSpec(
        name="closed-loop",
        description=(
            "4 closed-loop clients, one request in flight each, 200 ms mean "
            "exponential think time."
        ),
        mode="closed",
        clients=4,
        think_time_ms=200.0,
    )
)

register(
    WorkloadSpec(
        name="open-poisson",
        description="Open-loop Poisson arrivals at 20 req/s.",
        mode="open",
        arrival="poisson",
        rate_per_s=20.0,
    )
)

register(
    WorkloadSpec(
        name="open-uniform",
        description="Open-loop fixed-gap arrivals, one every interval_ms.",
        mode="open",
        arrival="uniform",
        interval_ms=50.0,
    )
)

register(
    WorkloadSpec(
        name="open-burst",
        description=(
            "Open-loop bursts: 8 back-to-back arrivals every 500 ms "
            "(16 req/s mean, maximally bunched)."
        ),
        mode="open",
        arrival="burst",
        burst_size=8,
        burst_interval_ms=500.0,
        keyspace=KeyspaceSpec(mode="hotspot", keys=16),
    )
)
