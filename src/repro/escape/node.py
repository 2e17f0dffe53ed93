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
``_hook_build_append_response``   attach the current ``configStatus`` (memoised)
``_hook_on_leader_heartbeat``     adopt a newer configuration carried by a heartbeat
``_hook_on_append_response``      feed the PPF with follower responsiveness
``_hook_before_heartbeat_round``  run one PPF round (clock bump + re-ranking)
``_hook_on_become_leader``        instantiate the PPF for this leadership period
================================  ====================================================

Two more differences are node state, read by Raft's own code with no call:
the node's own timeout ``_own_timeout_ms`` -- every unscripted
election-timeout wait is the timeout paired with the held configuration
(Eq. 1), where Raft would draw from its randomized range -- and the held
configuration is the reply token that, with the log tail, keys Raft's reply
memo (the ``configStatus`` is a function of the two).
:meth:`EscapeNode._hold` keeps both current.

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
from repro.raft.listeners import NodeListener
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

    protocol_name = "escape"

    def __init__(
        self,
        node_id: ServerId,
        cluster: ClusterConfig,
        env: Environment,
        store: PersistentState | None = None,
        state_machine: StateMachine | None = None,
        protocol_config: ProtocolConfig | None = None,
        listeners: Iterable[NodeListener] = (),
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
        # Steady-state memos, all compared by identity (the objects are
        # frozen): the configStatus last reported, with the configuration it
        # describes, and per follower the last (base request, decorated
        # request) pair sent.
        self._config_status_memo: tuple[Configuration, ConfigStatus] | None = None
        self._decorated_requests: dict[
            ServerId, tuple[AppendEntriesRequest, EscapeAppendEntriesRequest]
        ] = {}

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
        self.patrol.advance_round(self.env.now(), self.log.last_index)
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
        """Piggyback the follower's newly assigned configuration on the heartbeat.

        The decorated request is a pure function of the base request and the
        assigned configuration, so the one sent last is reused while both are
        still the same objects (an idle round changes neither).
        """
        new_config = (
            self.patrol.configuration_for(follower) if self.patrol is not None else None
        )
        last = self._decorated_requests.get(follower)
        if last is not None and last[0] is request and last[1].new_config is new_config:
            return last[1]
        decorated = EscapeAppendEntriesRequest(
            request.term,
            request.leader_id,
            request.prev_log_index,
            request.prev_log_term,
            request.entries,
            request.leader_commit,
            new_config,
        )
        self._decorated_requests[follower] = (request, decorated)
        return decorated

    def _hook_payload_token(self) -> tuple[ProbingPatrol, int] | None:
        """The patrol, held (not its ``id()``), and its clock, which moves with
        every rearrangement: the assignment the piggyback reads."""
        patrol = self.patrol
        return None if patrol is None else (patrol, patrol.conf_clock)

    def _hook_on_append_response(
        self, src: ServerId, response: AppendEntriesResponse
    ) -> None:
        """Feed follower responsiveness into the patrol."""
        if self.patrol is None:
            return
        if isinstance(response, EscapeAppendEntriesResponse) and response.config_status:
            log_index = response.config_status.log_index
        else:
            # A plain Raft reply (mixed-version cluster) still proves liveness
            # and reports progress through match_index.
            log_index = response.match_index
        self.patrol.record_reply(src, log_index, self.env.now())

    # ------------------------------------------------------------------ #
    # PPF: follower side
    # ------------------------------------------------------------------ #
    def _hook_on_leader_heartbeat(self, request: AppendEntriesRequest) -> None:
        """Adopt a newer configuration carried by the leader's heartbeat."""
        if not isinstance(request, EscapeAppendEntriesRequest):
            return
        new_config = request.new_config
        if new_config is None or new_config is self.configuration:
            return
        if new_config.conf_clock < self.configuration.conf_clock:
            # A delayed heartbeat carrying an older assignment must never roll
            # the configuration back (the clock exists precisely for this).
            return
        if new_config != self.configuration:
            if self._trace_on:
                self.env.trace(
                    "config.update",
                    old=self.configuration.describe(),
                    new=new_config.describe(),
                )
            self._hold(new_config)
            self.configuration_updates += 1

    def _hook_build_append_response(
        self, success: bool, match_index: LogIndex
    ) -> AppendEntriesResponse:
        """Attach this follower's ``configStatus`` to the reply.

        The status is a function of the log tail and the held configuration,
        and is rebuilt only when one of them changed: the configuration is
        frozen, so holding the same object means holding the same values.
        """
        configuration = self.configuration
        memo = self._config_status_memo
        if (
            memo is not None
            and memo[0] is configuration
            and memo[1].log_index == self.log.last_index
        ):
            status = memo[1]
        else:
            status = ConfigStatus(
                self.log.last_index, configuration.timer_period_ms, configuration.conf_clock
            )
            self._config_status_memo = (configuration, status)
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
    ``configStatus``, and responsiveness records are dropped.
    """

    protocol_name = "escape-noppf"

    def _hook_on_become_leader(self) -> None:
        """Never start a patrol: configurations are frozen at assignment."""
        self.patrol = None
