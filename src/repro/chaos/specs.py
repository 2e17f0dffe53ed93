"""Declarative, picklable specifications for chaos injections.

The cluster layer already owns every fault *mechanism* a chaos run needs --
:meth:`~repro.cluster.builder.SimulatedCluster.crash`/``recover``, the
:class:`~repro.net.partition.PartitionManager` behind the network, and
``set_fault`` for swapping the network fault injector.  This module provides
the matching *descriptions*: a chaos event is a frozen dataclass that captures
one timed injection independently of any concrete cluster -- "crash whoever is
leader 12 s in", "split the membership in two", "recover the longest-crashed
server" -- and ``apply(driver)`` performs it through the
:class:`~repro.chaos.driver.ChaosDriver` when its scheduled time arrives.

Two properties make events the unit a plan ships around:

* **Picklable.**  Every event is a frozen module-level dataclass with only
  plain values (floats, ints, a nested :mod:`repro.net.faults` injector), so a
  :class:`~repro.chaos.plans.ChaosPlan` carrying events round-trips through
  the :mod:`multiprocessing` pool used by
  :func:`repro.experiments.runner.run_sweep` bit-for-bit.
* **Cluster-size independent.**  Events name servers by *index into the
  membership* (resolved modulo the cluster size) or by *role* ("the current
  leader"), never by concrete server id, so one plan drives a 5-server and a
  50-server cluster alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.common.errors import ConfigurationError
from repro.common.frozen import value_object
from repro.common.types import Milliseconds
from repro.common.validation import require_non_negative, require_positive
from repro.net.faults import FaultInjector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (driver -> specs)
    from repro.chaos.driver import ChaosDriver

__all__ = [
    "ChaosEvent",
    "CrashLeader",
    "CrashServer",
    "Recover",
    "PartitionGroups",
    "Heal",
    "SwapFault",
]


@value_object
class ChaosEvent:
    """Base class for timed chaos injections.

    Attributes:
        at_ms: when the event fires, in milliseconds *relative to the start of
            the chaos plan* (the driver adds the absolute start time).
    """

    at_ms: Milliseconds = 0.0

    def __post_init__(self) -> None:
        require_non_negative(self.at_ms, "at_ms")

    def apply(self, driver: "ChaosDriver") -> None:  # pragma: no cover - abstract
        """Perform the injection through *driver* (resolved at fire time)."""
        raise NotImplementedError


@value_object
class CrashLeader(ChaosEvent):
    """Crash whoever is leader when the event fires.

    Resolution happens at fire time, not plan-build time: repeated
    ``CrashLeader`` events in one plan chase the leadership as it moves.  The
    event is skipped (and recorded as skipped) when no leader is running or
    when crashing one more server would destroy the quorum.
    """

    def apply(self, driver: "ChaosDriver") -> None:
        driver.crash_leader()


@value_object
class CrashServer(ChaosEvent):
    """Crash the server at *server_index* into the membership.

    The index is resolved modulo the cluster size, so a rolling-restart plan
    written as indexes ``0, 1, 2, ...`` cycles through any membership.
    Crashing an already-crashed server, or one whose loss would destroy the
    quorum, is skipped and recorded.
    """

    server_index: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        require_non_negative(self.server_index, "server_index")

    def apply(self, driver: "ChaosDriver") -> None:
        driver.crash_server(self.server_index)


@value_object
class Recover(ChaosEvent):
    """Recover the longest-crashed server (or every crashed one).

    Recovery order is FIFO over the driver's crash log, so a
    crash/recover/crash/recover plan heals servers in the order it hurt them.
    A no-op when nothing is crashed.
    """

    all_servers: bool = False

    def apply(self, driver: "ChaosDriver") -> None:
        driver.recover(all_servers=self.all_servers)


@value_object
class PartitionGroups(ChaosEvent):
    """Split the membership into disjoint cells (messages stay inside a cell).

    With ``isolate_leader`` the current leader is cut off alone -- the classic
    "old leader keeps believing" scenario -- and the rest of the membership
    forms one healthy cell; when no leader is running the event falls back to
    the contiguous split.  Otherwise the membership is split into
    ``group_count`` contiguous, balanced cells (the first ``n % group_count``
    cells get one extra server), mirroring
    :func:`repro.net.latency.assign_regions`.
    """

    group_count: int = 2
    isolate_leader: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        require_positive(self.group_count, "group_count")

    def apply(self, driver: "ChaosDriver") -> None:
        driver.partition(
            group_count=self.group_count, isolate_leader=self.isolate_leader
        )


@value_object
class Heal(ChaosEvent):
    """Remove the current partition; every server can communicate again."""

    def apply(self, driver: "ChaosDriver") -> None:
        driver.heal()


@value_object
class SwapFault(ChaosEvent):
    """Replace the network fault injector with *fault*.

    *fault* is any :mod:`repro.net.faults` injector, bound to the cluster
    membership at fire time (:func:`repro.net.faults.bind`), so the same
    event works for any cluster size.
    ``fault=None`` ends a degraded phase by restoring the *baseline* injector
    the cluster started the chaos run with -- which matters when a scenario
    layers a chaos plan over a lossy catalog condition: swapping in
    :class:`~repro.net.faults.NoFault` would silently upgrade the network
    to a healthier one than the condition describes.
    """

    fault: FaultInjector | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fault is not None and not isinstance(self.fault, FaultInjector):
            raise ConfigurationError(
                f"SwapFault needs a fault injector (or None to restore the "
                f"baseline), got {self.fault!r}"
            )

    def apply(self, driver: "ChaosDriver") -> None:
        driver.swap_fault(self.fault)
