"""The ESCAPE node: Raft plus SCA, PPF and the configuration clock.

:class:`EscapeNode` overrides only the extension hooks of
:class:`repro.raft.node.RaftNode`:

================================  ====================================================
Hook                              ESCAPE behaviour
================================  ====================================================
``_hook_next_election_term``      term grows by the node's priority (Eq. 2)
``_hook_may_grant_vote``          reject candidates with a stale configuration clock
``_hook_make_vote_request``       include configuration clock (and priority)
``_hook_decorate_append_request`` piggyback the follower's newly assigned configuration
``_hook_payload_token``           the patrol and its clock (what that piggyback reads)
``_hook_build_append_response``   attach the current ``configStatus``
``_hook_before_heartbeat_round``  run one PPF round (clock bump + re-ranking)
``_hook_on_become_leader``        instantiate the PPF for this leadership period
================================  ====================================================

The rest is node state, read by Raft's own code with no call:

* the node's own timeout ``_own_timeout_ms``: every unscripted
  election-timeout wait is the timeout paired with the held configuration
  (Eq. 1), where Raft would draw from its randomized range;
* the held configuration is the reply token that, with the log tail, keys
  Raft's reply memo (the ``configStatus`` is a function of the two);
  :meth:`EscapeNode._hold` keeps the timeout and the token current;
* ``_adopts_piggyback``: the follower's AppendEntries handler compares the
  heartbeat's ``new_config`` with the reply token by identity and calls
  :meth:`EscapeNode._adopt_configuration` only when they differ, so an idle
  round makes no call;
* ``_reply_records``: the patrol's per-follower records, which the leader's
  reply handler updates in place as :meth:`ProbingPatrol.record_reply` would,
  with no call into ESCAPE or the patrol.

Everything else -- log replication, commitment, vote counting -- is inherited
unchanged, which is the code-level expression of the paper's safety argument.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.config import ClusterConfig, ProtocolConfig
from repro.common.types import LogIndex, Milliseconds, ServerId, Term
from repro.escape.configuration import ConfigStatus, Configuration
from repro.escape.messages import (
    EscapeAppendEntriesRequest,
    EscapeAppendEntriesResponse,
    EscapeRequestVoteRequest,
)
from repro.escape.ppf import ProbingPatrol
from repro.escape.sca import joining_configuration
from repro.raft.environment import Environment
from repro.raft.listeners import ListenerTable, NodeListener
from repro.raft.messages import (
    AppendEntriesRequest,
    AppendEntriesResponse,
    RequestVoteRequest,
)
from repro.raft.node import RaftNode
from repro.statemachine.base import StateMachine
from repro.storage.persistent import PersistentState


class EscapeNode(RaftNode):
    """A server running the ESCAPE leader-election protocol.

    Args:
        node_id, cluster, env, store, state_machine, protocol_config,
        listeners, timeout_script: as for :class:`~repro.raft.node.RaftNode`.
        initial_configuration: the SCA configuration this server starts with.
            When omitted it is derived from the server's own id, the cluster
            size and the SCA parameters in ``protocol_config`` (Eq. 1 with
            priority = server id).
    """

    __slots__ = ("configuration", "patrol", "configuration_updates")

    protocol_name = "escape"
    _adopts_piggyback = True

    def __init__(
        self,
        node_id: ServerId,
        cluster: ClusterConfig,
        env: Environment,
        store: PersistentState | None = None,
        state_machine: StateMachine | None = None,
        protocol_config: ProtocolConfig | None = None,
        listeners: Iterable[NodeListener] | ListenerTable = (),
        initial_configuration: Configuration | None = None,
        timeout_script: tuple[Milliseconds, ...] = (),
    ) -> None:
        super().__init__(
            node_id=node_id,
            cluster=cluster,
            env=env,
            store=store,
            state_machine=state_machine,
            protocol_config=protocol_config,
            listeners=listeners,
            timeout_script=timeout_script,
        )
        if initial_configuration is None:
            initial_configuration = joining_configuration(
                node_id, cluster.size, self.config.sca
            )
        self._hold(initial_configuration)
        self.patrol: ProbingPatrol | None = None
        self.configuration_updates = 0

    # ------------------------------------------------------------------ #
    # SCA: the held configuration, term growth
    # ------------------------------------------------------------------ #
    def _hold(self, configuration: Configuration) -> None:
        """Hold *configuration*: its timeout (Eq. 1) is every unscripted
        election-timeout wait from the next timer reset on, and it is the
        reply token (see :meth:`RaftNode._make_append_response`)."""
        self.configuration: Configuration = configuration
        self._own_timeout_ms = configuration.timer_period_ms
        self._reply_token = configuration

    def _hook_next_election_term(self) -> Term:
        """Eq. 2: the campaign term grows by this server's priority."""
        return self.current_term + self.configuration.priority

    # ------------------------------------------------------------------ #
    # Configuration-clock vote gating
    # ------------------------------------------------------------------ #
    def _hook_may_grant_vote(self, request: RequestVoteRequest) -> bool:
        """Reject candidates whose configuration clock is stale (Section IV-B)."""
        if isinstance(request, EscapeRequestVoteRequest):
            return request.conf_clock >= self.configuration.conf_clock
        return True

    def _hook_make_vote_request(self) -> RequestVoteRequest:
        return EscapeRequestVoteRequest(
            term=self.current_term,
            candidate_id=self.node_id,
            last_log_index=self.log.last_index,
            last_log_term=self.log.last_term,
            conf_clock=self.configuration.conf_clock,
            priority=self.configuration.priority,
        )

    # ------------------------------------------------------------------ #
    # PPF: leader side
    # ------------------------------------------------------------------ #
    def _hook_on_become_leader(self) -> None:
        """Start a fresh patrol whose clock dominates everything issued before."""
        if not self.peers:
            self.patrol = None
            return
        self.patrol = ProbingPatrol(
            leader_id=self.node_id,
            followers=self.peers,
            cluster_size=self.cluster.size,
            sca=self.config.sca,
            initial_clock=self.configuration.conf_clock + 1,
            stale_after_ms=4.0 * self.config.heartbeat_interval_ms,
        )
        # Raft's reply handler keeps these (see RaftNode._reply_records).
        self._reply_records = self.patrol.records
        if self._trace_on:
            self.env.trace(
                "ppf.start",
                conf_clock=self.patrol.conf_clock,
                leader_priority=self.configuration.priority,
            )

    def _hook_before_heartbeat_round(self) -> None:
        """Run one PPF round right before broadcasting heartbeats."""
        if self.patrol is None:
            return
        # The clock's entry point read as a value: 3.11 specializes that load,
        # not a method call on a callable held in the environment's dict.
        now = self.env.now
        self.patrol.advance_round(now(), self.log.last_index)
        if self._trace_on:
            self.env.trace(
                "ppf.rearrange",
                conf_clock=self.patrol.conf_clock,
                future_leader=self.patrol.groomed_future_leader(),
                assignment={
                    follower: configuration.priority
                    for follower, configuration in self.patrol.assignments.items()
                },
            )

    def _hook_decorate_append_request(
        self, request: AppendEntriesRequest, follower: ServerId
    ) -> AppendEntriesRequest:
        """Piggyback the follower's newly assigned configuration on the heartbeat."""
        new_config = (
            self.patrol.configuration_for(follower) if self.patrol is not None else None
        )
        return EscapeAppendEntriesRequest(
            request.term,
            request.leader_id,
            request.prev_log_index,
            request.prev_log_term,
            request.entries,
            request.leader_commit,
            new_config,
        )

    def _hook_payload_token(self) -> tuple[ProbingPatrol, int] | None:
        """The patrol, held (not its ``id()``), and its clock, which moves with
        every rearrangement: the assignment the piggyback reads."""
        patrol = self.patrol
        return None if patrol is None else (patrol, patrol.conf_clock)

    # ------------------------------------------------------------------ #
    # PPF: follower side
    # ------------------------------------------------------------------ #
    def _adopt_configuration(self, new_config: Configuration) -> None:
        """Adopt a newer configuration carried by the leader's heartbeat.

        Raft's AppendEntries handler calls this, before it re-arms the
        election timer, only when the piggyback is not the object held.
        """
        held = self.configuration
        clock, held_clock = new_config.conf_clock, held.conf_clock
        # A delayed heartbeat carrying an older assignment must never roll the
        # configuration back (the clock exists precisely for this).  A newer
        # clock alone makes the two differ, so fields are compared only on a tie.
        if clock < held_clock or (clock == held_clock and new_config == held):
            return
        if self._trace_on:
            self.env.trace(
                "config.update", old=held.describe(), new=new_config.describe()
            )
        self._hold(new_config)
        self.configuration_updates += 1

    def _hook_build_append_response(
        self, success: bool, match_index: LogIndex
    ) -> AppendEntriesResponse:
        """Attach this follower's ``configStatus`` to the reply.  It is a
        function of the log tail and the held configuration (the reply token),
        so Raft's reply memo reuses it with the reply."""
        configuration = self.configuration
        status = ConfigStatus(
            self.log.last_index, configuration.timer_period_ms, configuration.conf_clock
        )
        return EscapeAppendEntriesResponse(
            self.current_term, self.node_id, success, match_index, status
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        base = super().describe()
        return f"{base} {self.configuration.describe()}"


class EscapeNoPpfNode(EscapeNode):
    """ESCAPE with the Probing Patrol disabled: the ablation as a protocol.

    Leaders never instantiate a patrol, so the initial SCA configurations
    (priority = server id, timeout from Eq. 1) are permanent and the
    configuration clock stays at its initial value cluster-wide.  Unlike
    :class:`~repro.zraft.node.ZRaftNode` -- which also strips the ESCAPE
    message extensions and the clock-based vote gate -- this variant keeps
    the full ESCAPE wire format and vote gating, so it isolates *exactly*
    the contribution of the PPF's dynamic rearrangement (Section IV-B).

    Every other hook inherits from :class:`EscapeNode` and degrades
    gracefully when ``patrol is None``: heartbeats carry no new
    configuration, follower replies still report their (static)
    ``configStatus``, and the leader keeps no reply records.
    """

    __slots__ = ()

    protocol_name = "escape-noppf"

    def _hook_on_become_leader(self) -> None:
        """Never start a patrol: configurations are frozen at assignment."""
        self.patrol = None
