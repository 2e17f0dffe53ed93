"""Deterministic fault-timeline orchestration (``repro.chaos``).

The paper's whole argument is that faster leader election matters because
every leaderless interval is downtime -- yet a single crash → re-election
episode (the :class:`~repro.cluster.harness.ElectionHarness` measurement)
never shows the *steady-state* cost.  This package adds the orchestration
layer above the existing crash/recover, partition and fault-injection
primitives:

* :mod:`repro.chaos.specs` -- frozen, picklable chaos-event specs
  (:class:`CrashLeader`, :class:`CrashServer`, :class:`Recover`,
  :class:`PartitionGroups`, :class:`Heal`, :class:`SwapFault`), resolved
  against the live cluster at fire time;
* :mod:`repro.chaos.plans` -- seeded plan generators
  (``repeated-leader-kill``, ``rolling-restart``, ``partition-flap``, the
  ``chaos-storm`` composite) collected in the named
  :data:`~repro.chaos.plans.CHAOS_CATALOG`;
* :mod:`repro.chaos.driver` -- the deterministic :class:`ChaosDriver` that
  schedules a plan's injections on the simulation scheduler;
* :mod:`repro.chaos.availability` -- the :class:`AvailabilityObserver` and
  interval timeline measuring leaderless time, per-disruption recovery
  latency and the client-side proposal counts;
* :mod:`repro.chaos.scenario` -- :class:`ChaosScenario`, the frozen
  per-episode condition the ``avail`` experiment sweeps (CLI:
  ``python -m repro.experiments avail --plan NAME``).

Everything is a pure function of ``(scenario, seed)``: plans carry their own
jitter, the driver draws no randomness, and scenarios pickle into the
parallel sweep engine's workers bit-for-bit.
"""

from repro.chaos.availability import (
    AvailabilityObserver,
    AvailabilityReport,
    AvailabilityTimeline,
    cluster_available,
    quorum_leader,
)
from repro.chaos.driver import ChaosDriver, DisruptionRecord
from repro.chaos.plans import (
    CHAOS_CATALOG,
    DEFAULT_HORIZON_MS,
    ChaosPlan,
    ChaosPlanEntry,
    build_plan,
    chaos_storm,
    partition_flap,
    repeated_leader_kill,
    rolling_restart,
)
from repro.chaos.scenario import ChaosScenario
from repro.chaos.specs import (
    ChaosEvent,
    CrashLeader,
    CrashServer,
    Heal,
    PartitionGroups,
    Recover,
    SwapFault,
)

__all__ = [
    "AvailabilityObserver",
    "AvailabilityReport",
    "AvailabilityTimeline",
    "CHAOS_CATALOG",
    "ChaosDriver",
    "ChaosEvent",
    "ChaosPlan",
    "ChaosPlanEntry",
    "ChaosScenario",
    "CrashLeader",
    "CrashServer",
    "DEFAULT_HORIZON_MS",
    "DisruptionRecord",
    "Heal",
    "PartitionGroups",
    "Recover",
    "SwapFault",
    "build_plan",
    "chaos_storm",
    "cluster_available",
    "partition_flap",
    "quorum_leader",
    "repeated_leader_kill",
    "rolling_restart",
]
