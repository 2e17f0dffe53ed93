"""The deterministic chaos driver: resolve a plan and inject it on schedule.

The driver is the bridge between the declarative layer (a
:class:`~repro.chaos.plans.ChaosPlan` of frozen
:class:`~repro.chaos.specs.ChaosEvent`\\ s) and the mechanisms the cluster
already provides (``crash``/``recover``/``set_fault`` on
:class:`~repro.cluster.builder.SimulatedCluster` and the
:class:`~repro.net.partition.PartitionManager` behind its network).  Calling
:meth:`ChaosDriver.start` schedules every event on the simulation scheduler
at ``start + event.at_ms``; role references ("the leader") and membership
indexes resolve when the event *fires*, so a plan written once chases
leadership and membership as the run evolves.

Two policies keep arbitrary plans survivable and measurable:

* **Quorum preservation** (default on): a crash that would leave fewer
  running servers than the voting quorum is skipped and recorded -- without
  it a storm plan could kill a majority and the availability measurement
  would flat-line at zero for every protocol, comparing nothing.
* **Bookkeeping**: every applied injection lands in
  :attr:`ChaosDriver.applied` and every skipped one in
  :attr:`ChaosDriver.skipped` (both as :class:`DisruptionRecord`\\ s);
  :attr:`ChaosDriver.disruption_count` counts just the *disruptive* ones
  (crashes and partitions, not the recoveries and heals that undo them), so
  the availability report can state how many disruptions a window actually
  absorbed.

The driver itself draws no randomness: plans carry their jitter, and
everything else is resolved from deterministic cluster state, so chaos runs
stay pure functions of ``(scenario, seed)`` and sweep bit-identically at any
worker count.
"""

from __future__ import annotations


from repro.chaos.availability import AvailabilityObserver
from repro.chaos.plans import ChaosPlan
from repro.cluster.builder import SimulatedCluster
from repro.common.errors import SimulationError
from repro.common.frozen import value_object
from repro.common.types import Milliseconds, ServerId
from repro.net.faults import FaultInjector, bind
from repro.net.latency import assign_regions

__all__ = ["ChaosDriver", "DisruptionRecord"]


@value_object
class DisruptionRecord:
    """One injection the driver applied (or skipped), with its fire time."""

    time_ms: Milliseconds
    kind: str
    detail: str


class ChaosDriver:
    """Schedules a chaos plan's injections against one simulated cluster."""

    def __init__(
        self,
        cluster: SimulatedCluster,
        plan: ChaosPlan,
        observer: AvailabilityObserver | None = None,
        preserve_quorum: bool = True,
    ) -> None:
        self._cluster = cluster
        self._plan = plan
        self._observer = observer
        self._preserve_quorum = preserve_quorum
        # The injector the cluster entered the chaos run with; SwapFault
        # events with fault=None restore it (NOT a healthy network -- the
        # scenario may layer the plan over a lossy baseline condition).
        self._baseline_fault = cluster.network.fault
        self._started = False
        self._crash_order: list[ServerId] = []
        self.applied: list[DisruptionRecord] = []
        self.skipped: list[DisruptionRecord] = []

    #: Injection kinds that take capacity away (their undo events are not
    #: disruptions, and neither is a fault swap back to a healthy network).
    DISRUPTIVE_KINDS = frozenset({"crash-leader", "crash-server", "partition"})

    @property
    def plan(self) -> ChaosPlan:
        """The plan being driven."""
        return self._plan

    @property
    def disruption_count(self) -> int:
        """How many applied injections were disruptive (crashes, partitions)."""
        return sum(
            1 for record in self.applied if record.kind in self.DISRUPTIVE_KINDS
        )

    @property
    def skipped_disruption_count(self) -> int:
        """How many *disruptive* injections were withheld (quorum guard,
        already-crashed target) -- benign no-op skips such as a recover with
        nothing crashed or a heal with no partition do not count."""
        return sum(
            1 for record in self.skipped if record.kind in self.DISRUPTIVE_KINDS
        )

    def start(self) -> None:
        """Schedule every plan event at ``now + event.at_ms``."""
        if self._started:
            raise SimulationError("chaos driver already started")
        self._started = True
        scheduler = self._cluster.world.scheduler
        base = scheduler.now()
        for event in self._plan.events:
            scheduler.call_at(
                base + event.at_ms,
                lambda event=event: self._fire(event),
                label=f"chaos:{type(event).__name__}",
            )

    def _fire(self, event) -> None:
        event.apply(self)
        if self._observer is not None:
            self._observer.reevaluate(self._cluster.world.now())

    # ------------------------------------------------------------------ #
    # Injection primitives (called by ChaosEvent.apply)
    # ------------------------------------------------------------------ #
    def crash_leader(self) -> None:
        """Crash the current leader, if one is running and quorum survives."""
        now = self._cluster.world.now()
        leader_id = self._cluster.leader_id()
        if leader_id is None:
            self._skip(now, "crash-leader", "no leader running")
            return
        if not self._crash_allowed():
            self._skip(now, "crash-leader", f"S{leader_id}: would lose quorum")
            return
        self._crash(leader_id)
        self._record(now, "crash-leader", f"S{leader_id}")

    def crash_server(self, server_index: int) -> None:
        """Crash the server at *server_index* (modulo the membership)."""
        now = self._cluster.world.now()
        members = self._cluster.config.server_ids
        target = members[server_index % len(members)]
        if target in self._cluster.crashed:
            self._skip(now, "crash-server", f"S{target}: already crashed")
            return
        if not self._crash_allowed():
            self._skip(now, "crash-server", f"S{target}: would lose quorum")
            return
        self._crash(target)
        self._record(now, "crash-server", f"S{target}")

    def recover(self, all_servers: bool = False) -> None:
        """Recover the longest-crashed server (or every crashed one)."""
        now = self._cluster.world.now()
        pending = [
            server_id
            for server_id in self._crash_order
            if server_id in self._cluster.crashed
        ]
        if not pending:
            self._skip(now, "recover", "nothing crashed")
            return
        targets = pending if all_servers else pending[:1]
        for server_id in targets:
            self._cluster.recover(server_id)
            self._crash_order.remove(server_id)
        self._record(
            now, "recover", ", ".join(f"S{server_id}" for server_id in targets)
        )

    def partition(
        self, group_count: int = 2, isolate_leader: bool = False
    ) -> None:
        """Install a partition (replacing any existing one)."""
        now = self._cluster.world.now()
        members = self._cluster.config.server_ids
        groups: list[tuple[ServerId, ...]]
        detail: str
        leader_id = self._cluster.leader_id() if isolate_leader else None
        if leader_id is not None:
            groups = [
                (leader_id,),
                tuple(member for member in members if member != leader_id),
            ]
            detail = f"isolated leader S{leader_id}"
        else:
            groups = self._contiguous_groups(members, group_count)
            detail = f"{len(groups)}-way contiguous split"
        self._cluster.network.partitions.partition(*groups)
        self._cluster.world.trace("chaos.partition", detail=detail)
        self._record(now, "partition", detail)

    def heal(self) -> None:
        """Remove the current partition."""
        now = self._cluster.world.now()
        partitions = self._cluster.network.partitions
        if not partitions.is_partitioned:
            self._skip(now, "heal", "no partition installed")
            return
        partitions.heal()
        self._cluster.world.trace("chaos.heal")
        self._record(now, "heal", "partition removed")

    def swap_fault(self, fault: FaultInjector | None) -> None:
        """Replace the network fault injector with *fault*, bound to the members.

        ``None`` restores the baseline injector the chaos run started with.
        """
        now = self._cluster.world.now()
        if fault is None:
            self._cluster.set_fault(self._baseline_fault)
            self._record(now, "swap-fault", "restored baseline fault")
            return
        self._cluster.set_fault(bind(fault, self._cluster.config.server_ids))
        self._record(now, "swap-fault", repr(fault))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _crash_allowed(self) -> bool:
        if not self._preserve_quorum:
            return True
        running = len(self._cluster.running_nodes())
        return running - 1 >= self._cluster.config.quorum_size

    def _crash(self, server_id: ServerId) -> None:
        self._cluster.crash(server_id)
        self._crash_order.append(server_id)

    def _record(self, time_ms: Milliseconds, kind: str, detail: str) -> None:
        self.applied.append(DisruptionRecord(time_ms, kind, detail))

    def _skip(self, time_ms: Milliseconds, kind: str, detail: str) -> None:
        self._cluster.world.trace("chaos.skip", kind=kind, detail=detail)
        self.skipped.append(DisruptionRecord(time_ms, kind, detail))

    @staticmethod
    def _contiguous_groups(
        members: tuple[ServerId, ...], group_count: int
    ) -> list[tuple[ServerId, ...]]:
        """Split *members* into contiguous, balanced groups (3/2 for 5-in-2).

        Delegates to :func:`repro.net.latency.assign_regions` -- the same
        balanced-split rule the geo latency spec uses -- so partition cells
        and latency regions can never drift apart; the only difference is
        that an oversized ``group_count`` clamps instead of raising.
        """
        count = min(group_count, len(members))
        regions = assign_regions(members, count)
        cells: dict[str, list[ServerId]] = {}
        for member in members:
            cells.setdefault(regions[member], []).append(member)
        return [tuple(cell) for cell in cells.values()]
