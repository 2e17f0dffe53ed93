"""The ESCAPE node: Z-Raft plus the PPF and the configuration clock.

:class:`EscapeNode` extends :class:`repro.zraft.node.ZRaftNode` (SCA: the held
configuration, its Eq. 1 timeout, Eq. 2 term growth) with the Probing Patrol:
the leader re-assigns configurations and piggybacks them on AppendEntries,
followers adopt them and carry their log index and held configuration on
each reply (the paper's ``configStatus``), and voters refuse a candidate
whose configuration clock is stale.  The chain's hook overrides:

================================  ======  ======================================
Hook                              Class   Behaviour
================================  ======  ======================================
``_hook_next_election_term``      Z-Raft  term grows by the priority (Eq. 2)
``_hook_make_vote_request``       Z-Raft  carry the clock (and priority)
``_hook_may_grant_vote``          ESCAPE  reject candidates with a stale clock
``_hook_piggyback``               ESCAPE  each follower's assigned configuration
``_hook_build_append_response``   ESCAPE  ``log_index`` + held ``configuration``
``_hook_before_heartbeat_round``  ESCAPE  one PPF round (clock bump, re-ranking)
``_hook_on_become_leader``        ESCAPE  start the PPF for this leadership
================================  ======  ======================================

The rest is node state, read by Raft's own code with no call:

* the node's own timeout ``_own_timeout_ms`` (Z-Raft): every unscripted
  election-timeout wait is the timeout paired with the held configuration
  (Eq. 1), where Raft would draw from its randomized range;
* the held configuration is the reply token that, with the log tail, keys
  Raft's reply memo, and the reply carries the two as ``configuration`` and
  ``log_index``; :meth:`EscapeNode._adopt_configuration` holds a new
  configuration as both configuration and token;
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

from typing import Iterable, Mapping

from repro.common.config import ClusterConfig, ProtocolConfig
from repro.common.types import LogIndex, Milliseconds, ServerId
from repro.escape.configuration import Configuration
from repro.escape.messages import (
    EscapeAppendEntriesRequest,
    EscapeAppendEntriesResponse,
    EscapeRequestVoteRequest,
)
from repro.escape.ppf import ProbingPatrol
from repro.raft.environment import Environment
from repro.raft.listeners import ListenerTable, NodeListener
from repro.raft.messages import AppendEntriesResponse, RequestVoteRequest
from repro.statemachine.base import StateMachine
from repro.storage.persistent import PersistentState
from repro.zraft.node import ZRaftNode


class EscapeNode(ZRaftNode):
    """A server running the ESCAPE leader-election protocol.

    Args: as for :class:`~repro.zraft.node.ZRaftNode`.
    """

    __slots__ = ("patrol", "configuration_updates")

    protocol_name = "escape"
    _adopts_piggyback = True
    _piggyback_request = EscapeAppendEntriesRequest

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
            node_id,
            cluster,
            env,
            store,
            state_machine,
            protocol_config,
            listeners,
            initial_configuration,
            timeout_script,
        )
        # The reply token (RaftNode._make_append_response), carried by each reply.
        self._reply_token = self.configuration
        self.patrol: ProbingPatrol | None = None
        self.configuration_updates = 0

    # ------------------------------------------------------------------ #
    # Configuration-clock vote gating
    # ------------------------------------------------------------------ #
    def _hook_may_grant_vote(self, request: RequestVoteRequest) -> bool:
        """Reject candidates whose configuration clock is stale (Section IV-B)."""
        if isinstance(request, EscapeRequestVoteRequest):
            return request.conf_clock >= self.configuration.conf_clock
        return True

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

    def _hook_piggyback(self) -> Mapping[ServerId, Configuration] | None:
        """Each follower's newly assigned configuration, carried by its
        AppendEntries: the patrol's assignment, a new object on every
        rearrangement.  A one-node leader runs no patrol and has no follower
        to send to: Raft's ``None``."""
        patrol = self.patrol
        return None if patrol is None else patrol.assignments

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
        self._reply_token = new_config
        self.configuration_updates += 1

    def _hook_build_append_response(
        self, success: bool, match_index: LogIndex
    ) -> AppendEntriesResponse:
        """The reply with this follower's ``configStatus`` on it, one object:
        its ``log_index`` and the held configuration (the reply token), so
        Raft's reply memo, keyed by both, reuses it with the reply."""
        return EscapeAppendEntriesResponse(
            self.current_term,
            self.node_id,
            success,
            match_index,
            self.log.last_index,
            self.configuration,
        )
