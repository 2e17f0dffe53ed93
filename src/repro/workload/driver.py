"""The workload driver: resolving a :class:`WorkloadSpec` against a cluster.

:class:`WorkloadDriver` is the runtime half of the workload subsystem: it
schedules client requests on the simulated cluster's own event scheduler and
tracks every op from ``propose()`` to state-machine apply.  Two modes:

* ``closed`` runs ``spec.clients`` closed-loop clients, each keeping at most
  one request in flight and thinking for an exponential ``think_time_ms``
  between completions (a client also moves on after ``REQUEST_TIMEOUT_MS``;
  its request may still commit later and is accounted either way).
* ``open`` issues requests on a deterministic arrival process (Poisson,
  fixed-gap or bursts) regardless of completions.

Both modes attach one listener to every node and match
``on_entry_committed(index, term)`` events against the ``(index, term)`` the
leader assigned at proposal time -- the Raft identity of an op, immune to the
entry being overwritten after a failover.  :meth:`finalize` resolves every
still-pending op against the surviving log (committed-but-unobserved vs
lost-at-failover) and replays that log into a fresh
:class:`~repro.statemachine.kvstore.KeyValueStore` to cross-check the
cluster's applied state -- the ground-truth verification the ISSUE asks for.

All randomness draws from named :class:`~repro.common.rng.SeedSequence`
streams and all scheduling goes through the simulated scheduler, so a driver
is bit-deterministic per seed.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.common.errors import NotLeaderError, SimulationError
from repro.common.rng import SeedSequence
from repro.raft.listeners import NodeListenerBase
from repro.statemachine.kvstore import KeyValueStore, PutCommand
from repro.workload import specs as workload_specs
from repro.workload.specs import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.cluster.builder import SimulatedCluster
    from repro.raft.node import RaftNode

__all__ = ["WorkloadDriver"]

#: How long a closed-loop client waits for its in-flight request to commit
#: before giving up and moving on.
REQUEST_TIMEOUT_MS = 4_000.0
#: Delay before each retry of a proposal a non-leader refused.
RETRY_BACKOFF_MS = 50.0
#: Length of every proposed value, in characters (the sequence number, a
#: colon, then padding).
VALUE_SIZE = 16


class _Op:
    """One logical client request, from first attempt to resolution."""

    __slots__ = ("sequence", "command", "client", "attempts", "proposed_ms", "released")

    def __init__(self, sequence: int, command: object, client: int | None) -> None:
        self.sequence = sequence
        self.command = command
        self.client = client
        self.attempts = 0
        self.proposed_ms = 0.0
        #: Whether the issuing closed-loop client has already moved on.
        self.released = client is None


class _CommitListener(NodeListenerBase):
    """Forwards every node's apply events to the driver's commit matcher."""

    def __init__(self, driver: "WorkloadDriver") -> None:
        self._driver = driver

    def on_entry_committed(
        self, node_id: int, index: int, term: int, time_ms: float
    ) -> None:
        self._driver._on_commit(index, term, time_ms)


class WorkloadDriver:
    """Drives one :class:`WorkloadSpec` against a simulated cluster.

    Args:
        cluster: the cluster under test.
        spec: a :class:`WorkloadSpec` or a registered workload name.
        seed: root seed for the driver's own random streams (think times,
            arrival gaps, key/value sampling); scenario runners pass the
            episode seed so the workload is part of the episode's identity.
        leader_selector: how the client finds the leader before each attempt;
            defaults to the cluster's global leader view.  Chaos scenarios
            pass a quorum-aware selector so requests during a partition count
            as dropped instead of landing on a stale leader.

    Counter semantics:

    ``proposed``
        successful ``propose()`` calls.
    ``rejected``
        ops abandoned after ``NotLeaderError`` exhausted the retry budget.
    ``dropped``
        ops abandoned because no (quorum-capable) leader existed at issue
        time.
    ``retries``
        extra attempts after a ``NotLeaderError``.
    ``committed``
        proposed ops whose ``(index, term)`` reached the state machine.
    ``lost``
        proposed ops whose entry did not survive failover (resolved against
        the surviving log in :meth:`finalize`).
    """

    def __init__(
        self,
        cluster: "SimulatedCluster",
        spec: WorkloadSpec | str,
        seed: int = 0,
        leader_selector: Callable[[], object] | None = None,
    ) -> None:
        self._cluster = cluster
        self._spec = workload_specs.get(spec) if isinstance(spec, str) else spec
        self._leader_selector = leader_selector or cluster.leader
        self._scheduler = cluster.world.scheduler
        self._sequence = 0
        self._active = False
        self._finalized = False
        self.proposed = 0
        self.rejected = 0
        self.dropped = 0
        self.retries = 0
        self.committed = 0
        self.lost = 0
        self._latencies: list[float] = []
        #: In-flight proposals keyed by their Raft identity ``(index, term)``.
        self._pending: dict[tuple[int, int], _Op] = {}
        seeds = SeedSequence(seed)
        spec_value = self._spec
        if spec_value.mode == "closed":
            self._think_rngs = [
                seeds.stream("workload", "client", client)
                for client in range(spec_value.clients)
            ]
        self._arrival_rng = seeds.stream("workload", "arrivals")
        self._key_rng = seeds.stream("workload", "keys")

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> WorkloadSpec:
        """The resolved workload spec this driver runs."""
        return self._spec

    @property
    def latencies_ms(self) -> tuple[float, ...]:
        """Commit latency of every op observed committing, in commit order."""
        return tuple(self._latencies)

    @property
    def pending_count(self) -> int:
        """Proposed ops not yet resolved (committed / lost)."""
        return len(self._pending)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Begin issuing requests according to the spec's mode."""
        if self._active:
            return
        self._active = True
        listener = _CommitListener(self)
        for node in self._cluster.nodes.values():
            node.add_listener(listener)
        if self._spec.mode == "closed":
            for client in range(self._spec.clients):
                self._schedule_think(client)
        else:
            self._schedule_arrival()

    def stop(self) -> None:
        """Stop issuing new requests (already scheduled ticks do nothing)."""
        self._active = False

    def finalize(self) -> None:
        """Stop and resolve every still-pending op against the surviving log.

        A pending op whose ``(index, term)`` is committed in the surviving
        log counts as ``committed`` (its apply event simply fell outside the
        measured window); everything else proposed-but-never-committed
        counts as ``lost``.  The surviving log is then replayed into a fresh
        state machine and cross-checked against the cluster's applied state.

        Raises:
            SimulationError: when the replayed log disagrees with the
                cluster's state machine (a replication bug, never a workload
                property).
        """
        self.stop()
        if self._finalized:
            return
        self._finalized = True
        scan = self._scan_node()
        if scan is None:
            self.lost += len(self._pending)
            self._pending.clear()
            return
        for (index, term), _ in self._pending.items():
            if (
                index <= scan.commit_index
                and scan.log.has_entry(index)
                and scan.log.term_at(index) == term
            ):
                # Committed in the surviving log but applied outside the
                # window our listener observed; count it, without a latency
                # sample (there is no apply timestamp to measure against).
                self.committed += 1
            else:
                self.lost += 1
        self._pending.clear()
        self._verify_ground_truth(scan)

    def _scan_node(self) -> "RaftNode | None":
        """The running node with the longest committed prefix (ties: lowest id)."""
        running = self._cluster.running_nodes()
        if not running:
            return None
        return max(running, key=lambda node: (node.commit_index, -node.node_id))

    def _verify_ground_truth(self, scan: "RaftNode") -> None:
        """Replay the committed log into a fresh KV store and cross-check."""
        if not isinstance(scan.state_machine, KeyValueStore):
            return
        replay = KeyValueStore()
        for index in range(1, scan.commit_index + 1):
            replay.apply(scan.log.entry_at(index).command)
        if replay.snapshot() != scan.state_machine.snapshot():
            raise SimulationError(
                f"workload ground truth diverged on node {scan.node_id}: "
                f"replaying {scan.commit_index} committed entries does not "
                "reproduce its state machine"
            )

    # ------------------------------------------------------------------ #
    # Closed loop
    # ------------------------------------------------------------------ #
    def _schedule_think(self, client: int) -> None:
        gap = self._think_rngs[client].expovariate(1.0 / self._spec.think_time_ms)
        self._scheduler.call_after(
            gap, partial(self._client_tick, client), label="workload-think"
        )

    def _client_tick(self, client: int) -> None:
        if not self._active:
            return
        self._issue(client)

    def _release(self, client: int) -> None:
        """The client's in-flight request resolved; think, then go again."""
        if not self._active:
            return
        self._schedule_think(client)

    # ------------------------------------------------------------------ #
    # Open loop
    # ------------------------------------------------------------------ #
    def _schedule_arrival(self) -> None:
        spec = self._spec
        if spec.arrival == "burst":
            delay = spec.burst_interval_ms
        elif spec.arrival == "poisson":
            delay = self._arrival_rng.expovariate(spec.rate_per_s / 1000.0)
        else:
            delay = spec.interval_ms
        self._scheduler.call_after(delay, self._arrival_tick, label="workload-arrival")

    def _arrival_tick(self) -> None:
        if not self._active:
            return
        count = self._spec.burst_size if self._spec.arrival == "burst" else 1
        for _ in range(count):
            self._issue(None)
        self._schedule_arrival()

    # ------------------------------------------------------------------ #
    # Shared issue path
    # ------------------------------------------------------------------ #
    def _issue(self, client: int | None) -> None:
        sequence = self._sequence
        self._sequence += 1
        self._attempt(_Op(sequence, self._build_command(sequence), client))

    def _attempt(self, op: _Op) -> None:
        leader = self._leader_selector()
        if leader is None:
            # No quorum-capable leader: lost at the client, terminally -- the
            # availability experiments read this as the client-side view of a
            # leaderless interval, and a retry would only re-measure it.
            self.dropped += 1
            self._resolve_client(op)
            return
        try:
            index = leader.propose(op.command)
        except NotLeaderError:
            if op.attempts < self._spec.max_retries:
                op.attempts += 1
                self.retries += 1
                self._scheduler.call_after(
                    RETRY_BACKOFF_MS,
                    partial(self._retry, op),
                    label="workload-retry",
                )
            else:
                self.rejected += 1
                self._resolve_client(op)
            return
        self.proposed += 1
        op.proposed_ms = self._cluster.world.now()
        key = (index, leader.current_term)
        self._pending[key] = op
        if op.client is not None:
            self._scheduler.call_after(
                REQUEST_TIMEOUT_MS,
                partial(self._request_timeout, key),
                label="workload-timeout",
            )

    def _retry(self, op: _Op) -> None:
        if not self._active:
            # The window closed while backing off; the op resolves as
            # rejected (it never reached a leader).
            self.rejected += 1
            return
        self._attempt(op)

    def _build_command(self, sequence: int) -> PutCommand:
        keyspace = self._spec.keyspace
        if keyspace.mode == "round-robin":
            key = sequence % keyspace.keys
        elif keyspace.mode == "uniform":
            key = self._key_rng.randrange(keyspace.keys)
        else:  # hotspot
            hot = max(1, int(keyspace.keys * keyspace.hot_fraction))
            if self._key_rng.random() < keyspace.hot_share:
                key = self._key_rng.randrange(hot)
            else:
                key = hot + self._key_rng.randrange(keyspace.keys - hot)
        return PutCommand(
            key=f"key-{key}", value=f"{sequence}:".ljust(VALUE_SIZE, "x")
        )

    # ------------------------------------------------------------------ #
    # Resolution
    # ------------------------------------------------------------------ #
    def _on_commit(self, index: int, term: int, time_ms: float) -> None:
        """First apply observation of ``(index, term)`` resolves the op."""
        op = self._pending.pop((index, term), None)
        if op is None:
            return
        self.committed += 1
        self._latencies.append(time_ms - op.proposed_ms)
        self._resolve_client(op)

    def _request_timeout(self, key: tuple[int, int]) -> None:
        op = self._pending.get(key)
        if op is None:
            return
        # The client gives up waiting and moves on; the op itself stays
        # pending (it may still commit, or resolve as lost in finalize()).
        self._resolve_client(op)

    def _resolve_client(self, op: _Op) -> None:
        if op.released:
            return
        op.released = True
        assert op.client is not None
        self._release(op.client)
