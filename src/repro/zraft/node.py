"""The Z-Raft node: Raft plus SCA's static priorities, no probing patrol.

The configuration each server receives at join time (priority = server id,
timeout from Eq. 1) is permanent: its timeout is every unscripted
election-timeout wait, and a campaign's term grows by the priority (Eq. 2).
RequestVote is ESCAPE's, carrying the (static) configuration clock and
priority; AppendEntries and every reply are Raft's.  Nothing is
redistributed, so no clock gates votes.  With low message loss Z-Raft tracks
ESCAPE closely; as loss grows the statically privileged servers fall behind
in log replication and their priorities are wasted on losing candidates
(Section VI-D).  :class:`~repro.escape.node.EscapeNode` adds the PPF to it.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.config import ClusterConfig, ProtocolConfig
from repro.common.types import Milliseconds, ServerId, Term
from repro.escape.configuration import Configuration
from repro.escape.messages import EscapeRequestVoteRequest
from repro.escape.sca import joining_configuration
from repro.raft.environment import Environment
from repro.raft.listeners import ListenerTable, NodeListener
from repro.raft.messages import RequestVoteRequest
from repro.raft.node import RaftNode
from repro.statemachine.base import StateMachine
from repro.storage.persistent import PersistentState


class ZRaftNode(RaftNode):
    """A server running Raft with ZooKeeper-style static priorities.

    Args:
        node_id, cluster, env, store, state_machine, protocol_config,
        listeners, timeout_script: as for :class:`~repro.raft.node.RaftNode`.
        initial_configuration: the SCA configuration this server starts with.
            When omitted it is derived from the server's own id, the cluster
            size and the SCA parameters in ``protocol_config`` (Eq. 1 with
            priority = server id).
    """

    __slots__ = ("configuration",)

    protocol_name = "zraft"

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
        # Spelled out, not ``*args, **kwargs``: forwarding the keywords cost
        # about 1 µs a node (ESCAPE, s=128: 9.5 against 7.8; CPython 3.11.7).
        super().__init__(
            node_id,
            cluster,
            env,
            store,
            state_machine,
            protocol_config,
            listeners,
            timeout_script,
        )
        if initial_configuration is None:
            initial_configuration = joining_configuration(
                node_id, cluster.size, self.config.sca
            )
        self._hold(initial_configuration)

    def _hold(self, configuration: Configuration) -> None:
        """Hold *configuration*: its timeout (Eq. 1) is every unscripted
        election-timeout wait from the next timer reset on."""
        self.configuration: Configuration = configuration
        self._own_timeout_ms = configuration.timer_period_ms

    def _hook_next_election_term(self) -> Term:
        """Eq. 2: the campaign term grows by this server's priority."""
        return self.current_term + self.configuration.priority

    def _hook_make_vote_request(self) -> RequestVoteRequest:
        return EscapeRequestVoteRequest(
            term=self.current_term,
            candidate_id=self.node_id,
            last_log_index=self.log.last_index,
            last_log_term=self.log.last_term,
            conf_clock=self.configuration.conf_clock,
            priority=self.configuration.priority,
        )

    def describe(self) -> str:
        base = super().describe()
        return f"{base} {self.configuration.describe()}"
