"""Chaos plans: timed fault timelines, seeded generators, and a named catalog.

A :class:`ChaosPlan` is a frozen, picklable timeline of
:class:`~repro.chaos.specs.ChaosEvent` injections over one measurement
horizon.  Plans are *data*: the :class:`~repro.chaos.driver.ChaosDriver`
schedules them on the simulation scheduler, the
:class:`~repro.chaos.scenario.ChaosScenario` carries them through the
parallel sweep engine's process pool, and the ``avail`` experiment compares
protocols under the *same* plan (paired fault timelines, different protocol
randomness).

The generators in this module build the recurring disruption patterns the
paper's availability argument implies but never measures: every leaderless
interval is downtime, so what matters over a long horizon is how a protocol
fares under *repeated* leader kills, rolling restarts and partition flaps --
not a single crash episode.  Each generator derives its jitter from a
:class:`~repro.common.rng.SeedSequence` stream named after the plan, so the
same ``(parameters, seed)`` always yields the same timeline.

The catalog names the generators (mirroring
:mod:`repro.cluster.catalog` for network conditions), so experiments, the CLI
(``avail --plan NAME``) and the benchmarks select fault timelines by name.
"""

from __future__ import annotations

from dataclasses import field
from typing import Callable, Iterable

from repro.chaos.specs import (
    ChaosEvent,
    CrashLeader,
    CrashServer,
    Heal,
    PartitionGroups,
    Recover,
    SwapFault,
)
from repro.common.errors import ConfigurationError
from repro.common.frozen import value_object
from repro.common.registry import Registry
from repro.common.rng import SeedSequence
from repro.common.types import Milliseconds
from repro.common.validation import require_positive
from repro.net.faults import PacketLossFault

__all__ = [
    "CHAOS_CATALOG",
    "ChaosPlan",
    "ChaosPlanEntry",
    "DEFAULT_HORIZON_MS",
    "build_plan",
    "chaos_storm",
    "partition_flap",
    "repeated_leader_kill",
    "rolling_restart",
]

#: Default measurement horizon of the generated plans (two minutes of
#: simulated time, enough for several full disruption cycles).
DEFAULT_HORIZON_MS: Milliseconds = 120_000.0

#: The most each generator delays a cycle past its period; the offset is
#: drawn uniformly from the generator's own seeded stream.
KILL_JITTER_MS: Milliseconds = 2_000.0
RESTART_JITTER_MS: Milliseconds = 1_000.0
FLAP_JITTER_MS: Milliseconds = 2_000.0


@value_object
class ChaosPlan:
    """One deterministic fault timeline over a fixed measurement horizon.

    Attributes:
        name: the plan's catalog (or ad-hoc) name, carried into measurements.
        horizon_ms: length of the measured window; every event fires inside
            ``[0, horizon_ms]`` relative to the chaos start.
        events: the injections, sorted by ``at_ms`` (ties keep their order).
    """

    name: str
    horizon_ms: Milliseconds
    events: tuple[ChaosEvent, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a chaos plan needs a non-empty name")
        require_positive(self.horizon_ms, "horizon_ms")
        for event in self.events:
            if not isinstance(event, ChaosEvent):
                raise ConfigurationError(
                    f"ChaosPlan events must be ChaosEvent instances, got {event!r}"
                )
            if event.at_ms > self.horizon_ms:
                raise ConfigurationError(
                    f"event {event!r} fires at {event.at_ms} ms, beyond the "
                    f"{self.horizon_ms} ms horizon"
                )
        times = [event.at_ms for event in self.events]
        if times != sorted(times):
            raise ConfigurationError(
                "ChaosPlan events must be sorted by at_ms; "
                "use _sorted_plan()/sorted() when composing plans"
            )

    @property
    def event_count(self) -> int:
        """Number of scheduled injections."""
        return len(self.events)

    def __str__(self) -> str:
        return self.describe()

    def describe(self) -> str:
        """One-line summary (used by reports and the examples)."""
        kinds: dict[str, int] = {}
        for event in self.events:
            name = type(event).__name__
            kinds[name] = kinds.get(name, 0) + 1
        inventory = ", ".join(f"{count}x {name}" for name, count in kinds.items())
        return (
            f"plan {self.name!r}: {len(self.events)} events over "
            f"{self.horizon_ms / 1000.0:.0f} s ({inventory or 'no events'})"
        )


def _sorted_plan(
    name: str, horizon_ms: Milliseconds, events: Iterable[ChaosEvent]
) -> ChaosPlan:
    """Build a plan from unsorted events (stable sort by fire time)."""
    ordered = tuple(sorted(events, key=lambda event: event.at_ms))
    return ChaosPlan(name=name, horizon_ms=horizon_ms, events=ordered)


def _clamp(time_ms: Milliseconds, horizon_ms: Milliseconds) -> Milliseconds:
    return min(time_ms, horizon_ms)


# --------------------------------------------------------------------------- #
# Seeded plan generators
# --------------------------------------------------------------------------- #
def repeated_leader_kill(
    horizon_ms: Milliseconds = DEFAULT_HORIZON_MS,
    period_ms: Milliseconds = 15_000.0,
    downtime_ms: Milliseconds = 5_000.0,
    seed: int = 0,
) -> ChaosPlan:
    """Kill whoever is leader once per period; recover it *downtime_ms* later.

    The steady-state stress the paper's availability argument implies: every
    kill forces one full detection + election cycle, so the unavailable
    fraction directly compares election speed across protocols.
    """
    require_positive(period_ms, "period_ms")
    require_positive(downtime_ms, "downtime_ms")
    rng = SeedSequence(seed).stream("chaos", "repeated-leader-kill")
    events: list[ChaosEvent] = []
    cycle = 1
    while True:
        crash_at = cycle * period_ms + rng.uniform(0.0, KILL_JITTER_MS)
        if crash_at >= horizon_ms:
            break
        events.append(CrashLeader(at_ms=crash_at))
        events.append(Recover(at_ms=_clamp(crash_at + downtime_ms, horizon_ms)))
        cycle += 1
    return _sorted_plan("repeated-leader-kill", horizon_ms, events)


def rolling_restart(
    horizon_ms: Milliseconds = DEFAULT_HORIZON_MS,
    interval_ms: Milliseconds = 12_000.0,
    downtime_ms: Milliseconds = 4_000.0,
    seed: int = 0,
) -> ChaosPlan:
    """Restart the membership one server at a time, cycling by index.

    Models a maintenance wave: most restarts hit followers (cheap), but the
    wave periodically takes the leader down, and the measurement shows how
    much of the horizon each protocol loses to those hits.
    """
    require_positive(interval_ms, "interval_ms")
    require_positive(downtime_ms, "downtime_ms")
    rng = SeedSequence(seed).stream("chaos", "rolling-restart")
    events: list[ChaosEvent] = []
    index = 0
    while True:
        crash_at = (index + 1) * interval_ms + rng.uniform(0.0, RESTART_JITTER_MS)
        if crash_at >= horizon_ms:
            break
        events.append(CrashServer(at_ms=crash_at, server_index=index))
        events.append(Recover(at_ms=_clamp(crash_at + downtime_ms, horizon_ms)))
        index += 1
    return _sorted_plan("rolling-restart", horizon_ms, events)


def partition_flap(
    horizon_ms: Milliseconds = DEFAULT_HORIZON_MS,
    period_ms: Milliseconds = 20_000.0,
    outage_ms: Milliseconds = 8_000.0,
    seed: int = 0,
) -> ChaosPlan:
    """Repeatedly partition the cluster, then heal it *outage_ms* later.

    Each flap cuts the current leader off alone -- the Section II-B setting
    where the majority side must detect the silence and elect anew while the
    old leader keeps believing.
    """
    require_positive(period_ms, "period_ms")
    require_positive(outage_ms, "outage_ms")
    rng = SeedSequence(seed).stream("chaos", "partition-flap")
    events: list[ChaosEvent] = []
    cycle = 1
    while True:
        split_at = cycle * period_ms + rng.uniform(0.0, FLAP_JITTER_MS)
        if split_at >= horizon_ms:
            break
        events.append(PartitionGroups(at_ms=split_at, isolate_leader=True))
        events.append(Heal(at_ms=_clamp(split_at + outage_ms, horizon_ms)))
        cycle += 1
    return _sorted_plan("partition-flap", horizon_ms, events)


def chaos_storm(
    horizon_ms: Milliseconds = DEFAULT_HORIZON_MS,
    seed: int = 0,
) -> ChaosPlan:
    """Everything at once: leader kills, restarts, flaps and a lossy phase.

    Composes scaled-down instances of the other generators (each drawing
    jitter from its own stream of the same seed) and adds a degraded-network
    phase in the middle third of the horizon via
    :class:`~repro.chaos.specs.SwapFault` (``fault=None`` afterwards restores
    whatever baseline injector the scenario's network condition installed, so
    layering the storm over a lossy catalog condition keeps that condition's
    loss for the rest of the run).  Injections that would destroy the quorum
    are skipped by the driver at fire time, so the storm stays survivable for
    any cluster size.
    """
    kills = repeated_leader_kill(
        horizon_ms, period_ms=23_000.0, downtime_ms=6_000.0, seed=seed
    )
    restarts = rolling_restart(
        horizon_ms, interval_ms=17_000.0, downtime_ms=5_000.0, seed=seed
    )
    flaps = partition_flap(
        horizon_ms, period_ms=31_000.0, outage_ms=7_000.0, seed=seed
    )
    lossy_phase: list[ChaosEvent] = [
        SwapFault(at_ms=horizon_ms / 3.0, fault=PacketLossFault(0.05)),
        SwapFault(at_ms=2.0 * horizon_ms / 3.0, fault=None),
    ]
    return _sorted_plan(
        "chaos-storm",
        horizon_ms,
        [*kills.events, *restarts.events, *flaps.events, *lossy_phase],
    )


# --------------------------------------------------------------------------- #
# The named catalog
# --------------------------------------------------------------------------- #
@value_object
class ChaosPlanEntry:
    """One named plan generator: a description plus its seeded builder."""

    name: str
    description: str
    build: Callable[..., ChaosPlan] = field(repr=False)


#: Every named chaos plan, in presentation order.
CHAOS_CATALOG: Registry[ChaosPlanEntry] = Registry(
    "chaos plan",
    (
        ChaosPlanEntry(
            name="repeated-leader-kill",
            description=(
                "Crash whoever is leader every ~15 s, recover it 5 s later: the "
                "steady-state cost of elections themselves."
            ),
            build=repeated_leader_kill,
        ),
        ChaosPlanEntry(
            name="rolling-restart",
            description=(
                "Restart one server at a time every ~12 s (4 s down), cycling "
                "through the membership: a maintenance wave that periodically "
                "hits the leader."
            ),
            build=rolling_restart,
        ),
        ChaosPlanEntry(
            name="partition-flap",
            description=(
                "Isolate the leader behind a partition every ~20 s, heal 8 s "
                "later: the Section II-B split-brain setting, repeated."
            ),
            build=partition_flap,
        ),
        ChaosPlanEntry(
            name="chaos-storm",
            description=(
                "Composite: leader kills + rolling restarts + partition flaps, "
                "with 5 % packet loss through the middle third of the horizon."
            ),
            build=chaos_storm,
        ),
    ),
)


def build_plan(
    name: str,
    horizon_ms: Milliseconds = DEFAULT_HORIZON_MS,
    seed: int = 0,
) -> ChaosPlan:
    """Build the named plan for one horizon and seed.

    The returned plan is a plain frozen value: embed it in a
    :class:`~repro.chaos.scenario.ChaosScenario` and it pickles into sweep
    workers unchanged, so ``--workers N`` stays bit-for-bit deterministic.

    Raises:
        ConfigurationError: listing the catalog's names when *name* is unknown.
    """
    return CHAOS_CATALOG.get(name).build(horizon_ms=horizon_ms, seed=seed)
