"""The sans-IO Raft node.

:class:`RaftNode` implements the full protocol described in Section II of the
paper: randomized election timeouts, ``RequestVote``/``AppendEntries`` RPCs,
the three vote-granting requirements, log replication with the consistency
check and quorum commitment, and heartbeat-based leadership maintenance.

The class exposes a small set of protected extension hooks (all prefixed
``_hook_``) and some node state that its handlers read with no call, where a
hook would run once per follower per heartbeat.  The subclasses follow the
paper: :class:`repro.zraft.node.ZRaftNode` adds SCA's static priorities and
:class:`repro.escape.node.EscapeNode` adds the PPF on top of it, both without
touching the replication logic -- mirroring the paper's Lemma 2 argument that
ESCAPE elections are indistinguishable from Raft elections on the receiving
side.  The hook table is in the :mod:`repro.escape.node` docstring.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.common.config import ClusterConfig, ProtocolConfig
from repro.common.errors import NotLeaderError, ProtocolError
from repro.common.types import LogIndex, Milliseconds, ServerId, Term
from repro.common.validation import require_positive
from repro.raft.election import VoteTally
from repro.raft.environment import Environment, TimerHandle
from repro.raft.listeners import (
    ListenerTable,
    NodeListener,
    enter_listener,
    listener_table,
)
from repro.raft.messages import (
    AppendEntriesRequest,
    AppendEntriesResponse,
    RequestVoteRequest,
    RequestVoteResponse,
    RpcMessage,
)
from repro.raft.replication import ReplicationProgress
from repro.raft.state import CANDIDATE, FOLLOWER, LEADER, Role, is_valid_transition
from repro.statemachine.base import StateMachine
from repro.statemachine.kvstore import KeyValueStore
from repro.storage.log import LogEntry
from repro.storage.persistent import InMemoryStore, PersistentState


class RaftNode:
    """A single Raft server.

    Args:
        node_id: this server's identifier (``S<i>``).
        cluster: static cluster membership.
        env: the environment providing time, transport, timers and randomness.
        store: durable state (defaults to a fresh in-memory store).
        state_machine: the replicated state machine (defaults to a
            :class:`~repro.statemachine.kvstore.KeyValueStore`).
        protocol_config: heartbeat interval and related timing knobs.
        listeners: observers notified of protocol events, or a table
            :func:`~repro.raft.listeners.listener_table` entered them into
            (the cluster builder enters its shared listeners once per build).
        timeout_script: the first waits after losing the leader, in order
            (each positive).  Wait *i* is ``timeout_script[i]`` while the
            script lasts; after it the protocol's own timeout applies again.
            The Figure 10 harness gives every node the same script to force
            competing candidates.

    Every instance field is a slot, so each handler's ``self.*`` reads take a
    fixed offset rather than a dict lookup (see ``docs/design-notes.md``), and
    assigning a misspelled field raises.  A subclass that adds state declares
    its own ``__slots__`` (``()`` when it adds none); one without them gets
    an instance dict again, which works but drops the fixed layout.
    """

    __slots__ = (
        "timeout_script",
        "node_id",
        "cluster",
        "env",
        "config",
        "store",
        "state_machine",
        "_timeout_low",
        "_timeout_span",
        "_own_timeout_ms",
        "_listening",
        "current_term",
        "voted_for",
        "log",
        "role",
        "leader_id",
        "commit_index",
        "last_applied",
        "quorum_size",
        "votes",
        "progress",
        "_election_timer",
        "_election_callback",
        "_heartbeat_timer",
        "_vote_retry_timer",
        "_timeout_attempt",
        "_running",
        "first_election_wait_ms",
        "stats",
        "_peer_ids",
        "_trace_on",
        "_reply_records",
        "_reply_token",
        "_append_response_memo",
        "_append_request_cache_key",
        "_append_request_cache",
        "_payload_table",
        "_vote_response_memo",
        "_typed_handlers",
    )

    protocol_name = "raft"

    def __init__(
        self,
        node_id: ServerId,
        cluster: ClusterConfig,
        env: Environment,
        store: PersistentState | None = None,
        state_machine: StateMachine | None = None,
        protocol_config: ProtocolConfig | None = None,
        listeners: Iterable[NodeListener] | ListenerTable = (),
        timeout_script: tuple[Milliseconds, ...] = (),
    ) -> None:
        if node_id not in cluster:
            raise ProtocolError(f"S{node_id} is not a member of the cluster")
        for value in timeout_script:
            require_positive(value, "scripted timeout")
        self.timeout_script = tuple(timeout_script)
        self.node_id = node_id
        self.cluster = cluster
        self.env = env
        self.config = protocol_config or ProtocolConfig.paper_defaults()
        self.store = store if store is not None else InMemoryStore()
        self.state_machine = state_machine if state_machine is not None else KeyValueStore()
        # Raft's randomized range, ``[low, low + span]``.
        timeouts = self.config.raft_timeouts
        self._timeout_low = timeouts.timeout_min_ms
        self._timeout_span = timeouts.timeout_max_ms - timeouts.timeout_min_ms
        # Every unscripted election-timeout wait, for a class that sets its
        # own timeouts (and keeps this current); None draws each wait from
        # Raft's range.
        self._own_timeout_ms: Milliseconds | None = None
        # A table is the cluster builder's, entered once for every node; the
        # node keeps its own copy because add_listener changes it in place.
        self._listening = (
            listeners.copy() if type(listeners) is dict else listener_table(listeners)
        )

        # Persistent state (reloaded from the store so a recovered node keeps
        # its promises).
        self.current_term: Term = self.store.load_term()
        self.voted_for: ServerId | None = self.store.load_voted_for()
        self.log = self.store.load_log()

        # Volatile state.
        self.role: Role = FOLLOWER
        self.leader_id: ServerId | None = None
        self.commit_index: LogIndex = 0
        self.last_applied: LogIndex = 0
        self.quorum_size = cluster.quorum_size
        self.votes = VoteTally(self.quorum_size)
        self.progress: ReplicationProgress | None = None

        # Timers and counters.
        self._election_timer: TimerHandle | None = None
        # The timer's callback, bound once: every re-arm passes this object
        # instead of building a bound method.  close() drops it.
        self._election_callback: Callable[[], None] | None = self._on_election_timeout
        self._heartbeat_timer: TimerHandle | None = None
        self._vote_retry_timer: TimerHandle | None = None
        self._timeout_attempt = 0
        self._running = False
        #: The wait :meth:`start` armed the election timer with (``None``
        #: before it runs): the harness's bootstrap campaign reads it.
        self.first_election_wait_ms: Milliseconds | None = None
        self.stats: dict[str, int] = {"votes_granted": 0}

        # Hot-path caches.  Membership is static, so the peer tuple is fixed
        # for the node's lifetime.
        self._peer_ids: tuple[ServerId, ...] = cluster.peers_of(node_id)
        self._trace_on: bool = getattr(env, "trace_enabled", True)
        # A leader's per-follower reply records, updated in place by the reply
        # handler (ESCAPE: its patrol's records, see
        # _handle_append_entries_response); None keeps nothing.
        self._reply_records: dict[ServerId, Any] | None = None
        # Reply memo: ((term, success, match_index, log.last_index, reply
        # token), the frozen reply).  A subclass whose replies carry more than
        # Raft's fields keeps ``_reply_token`` such that the token and the log
        # tail fix that content (ESCAPE: the held configuration).
        self._reply_token: Any = None
        self._append_response_memo: tuple[tuple, AppendEntriesResponse] | None = None
        # Base AppendEntries per next-index, valid while the key -- the
        # (current_term, log.last_index, commit_index) it was built under --
        # is unchanged (see _append_entries_factory).
        self._append_request_cache_key: tuple[Term, LogIndex, LogIndex] | None = None
        self._append_request_cache: dict[LogIndex, AppendEntriesRequest] = {}
        # (cache, progress version, piggyback, payloads) of the last
        # AppendEntries broadcast (see _append_entries_factory).
        self._payload_table: tuple | None = None
        self._vote_response_memo: tuple[Term, bool, RequestVoteResponse] | None = None
        # The class's handler memo, which every delivery reads: on CPython
        # 3.11 a class attribute read through a slotted instance is never
        # specialized, a slot read is.  It is the class's dict itself, so a
        # type resolved by one node serves all.
        self._typed_handlers = type(self)._message_handlers

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def is_running(self) -> bool:
        """Whether the node is started and not crashed."""
        return self._running

    @property
    def peers(self) -> tuple[ServerId, ...]:
        """Every other member of the cluster."""
        return self._peer_ids

    def add_listener(self, listener: NodeListener) -> None:
        """Attach an observer for protocol events."""
        enter_listener(self._listening, listener)

    def remove_listeners(self) -> None:
        """Detach every observer (nothing is notified)."""
        self._listening = listener_table()

    def close(self) -> None:
        """Release a finished node so reference counting frees it: detach
        every observer and drop the held election-timeout callback, the
        node's bound method.  Nothing may run on the node afterwards."""
        self.remove_listeners()
        self._election_callback = None

    def start(self) -> None:
        """Join the cluster as a follower and start the election timer."""
        if self._running:
            raise ProtocolError(f"S{self.node_id} is already running")
        self._running = True
        self.role = FOLLOWER
        self.leader_id = None
        self._timeout_attempt = 0
        if self._trace_on:
            self.env.trace("node.start", term=self.current_term)
        self.first_election_wait_ms = self._reset_election_timer()

    def expire_election_timer(self) -> None:
        """Fire the election timeout now instead of when its timer expires.

        The timeout runs its normal path (listeners, trace, a campaign unless
        the node leads); the campaign re-arms the pending timer, so it does
        not expire as well.  The harness uses this to elect a fresh
        cluster's first leader in one uncontested campaign.
        """
        if not self._running:
            raise ProtocolError(f"S{self.node_id} is not running")
        self._on_election_timeout()

    def stop(self) -> None:
        """Stop the node (models a crash): timers are cancelled, state kept."""
        self._running = False
        self._cancel_election_timer()
        self._cancel_heartbeat_timer()
        self._cancel_vote_retry_timer()
        if self._trace_on:
            self.env.trace("node.stop", term=self.current_term, role=str(self.role))

    def recover(self) -> None:
        """Restart after a crash: reload durable state and rejoin as follower.

        Volatile leadership state is discarded; the persisted term, vote and
        log survive, exactly as they would across a real process restart.
        """
        if self._running:
            raise ProtocolError(f"S{self.node_id} is still running")
        self.current_term = self.store.load_term()
        self.voted_for = self.store.load_voted_for()
        self.log = self.store.load_log()
        self.commit_index = min(self.commit_index, self.log.last_index)
        self.role = FOLLOWER
        self.leader_id = None
        self.progress = None
        self._timeout_attempt = 0
        self._running = True
        if self._trace_on:
            self.env.trace("node.recover", term=self.current_term)
        self._reset_election_timer()

    # ------------------------------------------------------------------ #
    # Client interface
    # ------------------------------------------------------------------ #
    def propose(self, command: Any) -> LogIndex:
        """Append a client command to the leader's log and start replicating it.

        Returns:
            The log index assigned to the command.

        Raises:
            NotLeaderError: if this node is not currently the leader.
        """
        if self.role is not LEADER:
            raise NotLeaderError(self.node_id, self.leader_id)
        entry = self.log.append_command(self.current_term, command)
        self.store.save_log(self.log)
        assert self.progress is not None
        self.progress.record_local_append(entry.index)
        if self._trace_on:
            self.env.trace("log.propose", index=entry.index, term=entry.term)
        if self.quorum_size == 1:
            self._advance_commit_index()
        else:
            self._replicate_to_followers()
        return entry.index

    # ------------------------------------------------------------------ #
    # Message dispatch
    # ------------------------------------------------------------------ #
    #: ``type(message)`` -> handler, as plain functions memoised per node class
    #: on first sight of each type (a per-node dict of the node's own bound
    #: methods made every node a reference cycle).
    _message_handlers: dict[type, Callable[["RaftNode", ServerId, Any], None]] = {}

    #: Per-class fact that lets the vote path skip a hook the class left at
    #: RaftNode's no-op (set here for RaftNode, in ``__init_subclass__`` for
    #: every subclass).
    _grant_hook_is_default = True

    #: The AppendEntries class a leader builds, once per follower, around
    #: what :meth:`_hook_piggyback` maps that follower to (its last field).
    _piggyback_request: type[AppendEntriesRequest] = AppendEntriesRequest

    #: Whether the class adopts a configuration piggybacked on AppendEntries
    #: (``request.new_config``, ESCAPE's PPF).  The follower compares it with
    #: the configuration it holds -- its reply token -- by identity and calls
    #: ``_adopt_configuration`` only when the two differ.
    _adopts_piggyback = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Its own memo: a subclass may override a handler.
        cls._message_handlers = {}
        cls._grant_hook_is_default = (
            cls._hook_may_grant_vote is RaftNode._hook_may_grant_vote
        )

    def on_message(self, src: ServerId, message: RpcMessage) -> None:
        """Entry point for every message delivered to this node."""
        if not self._running:
            return
        handler = self._typed_handlers.get(type(message))
        if handler is None:
            handler = self._resolve_message_handler(message)
        handler(self, src, message)

    #: A promise to the transport (the flat network uses it): this is exactly
    #: "if running, ``_typed_handlers[type(message)]``, resolved on first
    #: sight", so the lookup may be done without the frame.  An override does
    #: not carry the mark.
    on_message.dispatches_by_type = True

    def _resolve_message_handler(
        self, message: RpcMessage
    ) -> Callable[["RaftNode", ServerId, Any], None]:
        """Map a not-yet-seen message type to its handler (isinstance chain,
        so subclassed RPCs -- ESCAPE extends the Raft messages -- resolve)."""
        cls = type(self)
        if isinstance(message, RequestVoteRequest):
            handler = cls._handle_request_vote
        elif isinstance(message, RequestVoteResponse):
            handler = cls._handle_request_vote_response
        elif isinstance(message, AppendEntriesRequest):
            handler = cls._handle_append_entries
        elif isinstance(message, AppendEntriesResponse):
            handler = cls._handle_append_entries_response
        else:
            raise ProtocolError(f"unknown message type {type(message).__name__}")
        cls._message_handlers[type(message)] = handler
        return handler

    # ------------------------------------------------------------------ #
    # Leader election: timeouts and campaigns
    # ------------------------------------------------------------------ #
    def _on_election_timeout(self) -> None:
        if not self._running or self.role is LEADER:
            return
        attempt = self._timeout_attempt
        self._timeout_attempt += 1
        if self._trace_on:
            self.env.trace("election.timeout", term=self.current_term, attempt=attempt)
        now = self.env.now()
        for notify in self._listening["on_election_timeout"]:
            notify(self.node_id, self.current_term, attempt, now)
        self._start_election()

    def _start_election(self) -> None:
        """Transition to candidate and broadcast vote requests (one campaign)."""
        new_term = self._hook_next_election_term()
        if new_term <= self.current_term:
            raise ProtocolError(
                f"campaign term must increase: {new_term} <= {self.current_term}"
            )
        self.current_term = new_term
        self.voted_for = self.node_id
        self.store.save_term_and_vote(self.current_term, self.voted_for)
        self._change_role(CANDIDATE)
        self.leader_id = None
        self.votes.start_campaign(new_term)
        self.votes.record_vote(new_term, self.node_id)
        if self._trace_on:
            self.env.trace("election.start", term=new_term)
        now = self.env.now()
        for notify in self._listening["on_election_started"]:
            notify(self.node_id, new_term, now)
        self._reset_election_timer()
        self.env.broadcast(self._peer_ids, self._hook_make_vote_request())
        self._schedule_vote_retry()
        if self.votes.has_quorum():
            # Single-node cluster: the candidate's own vote is already a quorum.
            self._become_leader()

    def _schedule_vote_retry(self) -> None:
        """Arm the within-campaign RequestVote retransmission timer."""
        self._vote_retry_timer = self.env.rearm_timer(
            self._vote_retry_timer,
            self.config.vote_retry_interval_ms,
            self._retry_vote_requests,
            "vote-retry",
        )

    def _retry_vote_requests(self) -> None:
        """Retransmit the campaign's RequestVote to the peers still silent.

        Raft candidates keep soliciting votes until the campaign ends; the
        retransmission makes a campaign robust to lost requests and replies
        (duplicate requests are harmless because voters answer them
        idempotently).  A peer that has answered this campaign, granting or
        refusing, is not asked again: a voter that refused a candidate in a
        term refuses it for the rest of that term, unless a leader of the
        term has since replaced its log -- and then the candidate cannot win
        the term anyway.  Once every peer has answered, the timer is not
        re-armed; the next campaign arms it again.
        """
        if not self._running or self.role is not CANDIDATE:
            return
        pending = self.votes.silent(self._peer_ids)
        if pending:
            self.env.broadcast(pending, self._hook_make_vote_request())
            if self._trace_on:
                self.env.trace(
                    "election.vote_retry", term=self.current_term, pending=len(pending)
                )
            self._schedule_vote_retry()

    def _handle_request_vote(self, src: ServerId, request: RequestVoteRequest) -> None:
        if request.term < self.current_term:
            self.env.send(src, self._make_vote_response(granted=False))
            return
        if request.term > self.current_term:
            self._observe_higher_term(request.term)
        not_yet_voted = self.voted_for is None or self.voted_for == request.candidate_id
        if not_yet_voted or self._trace_on:
            # The log comparison and the grant hook only influence the verdict
            # when the vote is still available -- but the election.vote trace
            # records their values, so they are always computed while tracing
            # (hooks are pure reads by contract, so skipping them off-trace
            # cannot change any node's state).
            log_ok = self.log.candidate_is_acceptable(
                request.last_log_term, request.last_log_index
            )
            extra_ok = self._grant_hook_is_default or self._hook_may_grant_vote(request)
            granted = (
                log_ok and not_yet_voted and extra_ok and self.role is not LEADER
            )
        else:
            granted = False
        if granted:
            self.voted_for = request.candidate_id
            self.store.save_term_and_vote(self.current_term, self.voted_for)
            self.stats["votes_granted"] += 1
            # Granting a vote counts as hearing from a viable leader candidate,
            # so the follower's failure-detection timer restarts.
            self._reset_election_timer()
            now = self.env.now()
            for notify in self._listening["on_vote_granted"]:
                notify(self.node_id, request.candidate_id, self.current_term, now)
        if self._trace_on:
            self.env.trace(
                "election.vote",
                candidate=request.candidate_id,
                term=self.current_term,
                granted=granted,
                log_ok=log_ok,
                not_yet_voted=not_yet_voted,
                extra_ok=extra_ok,
            )
        memo = self._vote_response_memo
        if memo is not None and memo[0] == self.current_term and memo[1] is granted:
            response = memo[2]
        else:
            response = self._make_vote_response(granted=granted)
        self.env.send(src, response)

    def _make_vote_response(self, granted: bool) -> RequestVoteResponse:
        """Build (or reuse) the frozen vote response for the current term.

        During an election storm a voter answers many candidates in the same
        term with ``vote_granted=False``; the responses are frozen value
        objects, so one instance per ``(term, granted)`` is indistinguishable
        from a fresh one.
        """
        term = self.current_term
        memo = self._vote_response_memo
        if memo is not None and memo[0] == term and memo[1] is granted:
            return memo[2]
        response = RequestVoteResponse(
            term=term, voter_id=self.node_id, vote_granted=granted
        )
        self._vote_response_memo = (term, granted, response)
        return response

    def _handle_request_vote_response(
        self, src: ServerId, response: RequestVoteResponse
    ) -> None:
        if response.term > self.current_term:
            self._observe_higher_term(response.term)
            return
        if self.role is not CANDIDATE or response.term != self.current_term:
            return
        if not response.vote_granted:
            # Recorded so that the vote retry does not ask this voter again.
            self.votes.record_refusal(response.term, response.voter_id)
            return
        self.votes.record_vote(response.term, response.voter_id)
        if self.votes.has_quorum():
            self._become_leader()

    # ------------------------------------------------------------------ #
    # Log replication: AppendEntries
    # ------------------------------------------------------------------ #
    def _handle_append_entries(self, src: ServerId, request: AppendEntriesRequest) -> None:
        if request.term < self.current_term:
            self.env.send(src, self._make_append_response(False, self.log.last_index))
            return
        if request.term > self.current_term:
            self._observe_higher_term(request.term)
        # Same term: a candidate that sees a legitimate leader steps down.
        if self.role is not FOLLOWER:
            self._change_role(FOLLOWER)
        self.leader_id = request.leader_id
        self._timeout_attempt = 0
        # A configuration carried by this heartbeat (ESCAPE's PPF piggyback)
        # is adopted before the timer reset, so that it sets the very next
        # election-timeout wait.  An idle round carries the object the node
        # already holds, so it makes no call.
        if self._adopts_piggyback:
            piggyback = request.new_config
            if piggyback is not self._reply_token and piggyback is not None:
                self._adopt_configuration(piggyback)
        self._reset_election_timer()

        log = self.log
        prev_log_index = request.prev_log_index
        entries = request.entries
        # An empty window after index 0 passes the check and changes nothing.
        if prev_log_index or entries:
            changed = log.check_and_merge(prev_log_index, request.prev_log_term, entries)
            if changed is None:
                if self._trace_on:
                    self.env.trace(
                        "log.reject",
                        leader=request.leader_id,
                        prev_index=request.prev_log_index,
                        prev_term=request.prev_log_term,
                    )
                self.env.send(src, self._make_append_response(False, log.last_index))
                return
            if changed:
                self.store.save_log(log)
        if request.leader_commit > self.commit_index:
            self.commit_index = min(request.leader_commit, log.last_index)
            self._apply_committed_entries()
        self.env.send(
            src, self._make_append_response(True, prev_log_index + len(entries))
        )

    def _make_append_response(
        self, success: bool, match_index: LogIndex
    ) -> AppendEntriesResponse:
        """The reply to an AppendEntries request, reused while nothing changed.

        Replies are value-frozen, so the steady heartbeat stream (same term,
        same match index, same log tail and reply token) reuses one instance
        instead of allocating per reply; only a miss calls the build hook.
        """
        key = (
            self.current_term, success, match_index, self.log.last_index, self._reply_token
        )
        memo = self._append_response_memo
        if memo is not None and memo[0] == key:
            return memo[1]
        response = self._hook_build_append_response(success, match_index)
        self._append_response_memo = (key, response)
        return response

    def _handle_append_entries_response(
        self, src: ServerId, response: AppendEntriesResponse
    ) -> None:
        if response.term > self.current_term:
            self._observe_higher_term(response.term)
            return
        if self.role is not LEADER or response.term != self.current_term:
            return
        assert self.progress is not None
        records = self._reply_records
        if records is not None:
            # The follower's record, kept as ProbingPatrol.record_reply keeps
            # it but with no call per reply: the largest log index it reported
            # (its configStatus; the match index of a plain Raft reply) and
            # the time of its last reply.
            record = records[src]
            status = response.config_status
            index = response.match_index if status is None else status.log_index
            if index > record.log_index:
                record.log_index = index
            record.last_reply_ms = self.env.now()
        if response.success:
            self.progress.record_success(src, response.match_index)
            # A quorum index this reply raised is at most its match index, so
            # a reply at or below the commit index cannot commit anything.
            if response.match_index > self.commit_index:
                self._advance_commit_index()
        else:
            self.progress.record_failure(src, response.match_index)

    # ------------------------------------------------------------------ #
    # Role transitions
    # ------------------------------------------------------------------ #
    def _become_leader(self) -> None:
        self._change_role(LEADER)
        self.leader_id = self.node_id
        self._timeout_attempt = 0
        self._cancel_election_timer()
        self.progress = ReplicationProgress(self.peers, self.log.last_index)
        if self._trace_on:
            self.env.trace("election.won", term=self.current_term, votes=self.votes.count)
        now = self.env.now()
        for notify in self._listening["on_leader_elected"]:
            notify(self.node_id, self.current_term, self.votes.count, now)
        self._hook_on_become_leader()
        self._send_heartbeats()

    def _observe_higher_term(self, term: Term) -> None:
        """Adopt a higher term seen in any message (Raft rule / paper Eq. 3)."""
        if term <= self.current_term:
            return
        self.current_term = term
        self.voted_for = None
        self.store.save_term_and_vote(self.current_term, self.voted_for)
        if self.role is not FOLLOWER:
            self._change_role(FOLLOWER)
            self.leader_id = None
            self._reset_election_timer()

    def _change_role(self, new_role: Role) -> None:
        old_role = self.role
        if old_role is new_role:
            return
        if not is_valid_transition(old_role, new_role):
            raise ProtocolError(
                f"S{self.node_id}: invalid role transition {old_role} -> {new_role}"
            )
        self.role = new_role
        if old_role is CANDIDATE:
            self._cancel_vote_retry_timer()
        if old_role is LEADER:
            self._cancel_heartbeat_timer()
            self.progress = None
        if new_role is not LEADER and self._election_timer is None and self._running:
            self._reset_election_timer()
        if self._trace_on:
            self.env.trace(
                "role.change", old=str(old_role), new=str(new_role), term=self.current_term
            )
        now = self.env.now()
        for notify in self._listening["on_role_change"]:
            notify(self.node_id, old_role, new_role, self.current_term, now)

    # ------------------------------------------------------------------ #
    # Leader: heartbeats and replication
    # ------------------------------------------------------------------ #
    def _send_heartbeats(self) -> None:
        if not self._running or self.role is not LEADER:
            return
        self._hook_before_heartbeat_round()
        self.env.broadcast(self._peer_ids, self._append_entries_factory())
        self._heartbeat_timer = self.env.set_timer(
            self.config.heartbeat_interval_ms, self._send_heartbeats, label="heartbeat"
        )

    def _replicate_to_followers(self) -> None:
        """Push fresh entries immediately (without waiting for the heartbeat)."""
        if self.role is not LEADER:
            return
        self.env.broadcast(self._peer_ids, self._append_entries_factory())

    def _append_entries_factory(self) -> Callable[[ServerId], AppendEntriesRequest]:
        """Payload factory for one broadcast round of AppendEntries.

        What a next index fixes -- ``prev_log_index``, ``prev_log_term`` and
        the entries -- is read from the log once per distinct index and kept
        across rounds for as long as ``(current_term, log.last_index,
        commit_index)`` is unchanged: a leader's log only grows while its term
        lasts, so those three fix every other field too.  Raft's followers
        that share a next index share one request.  A class whose
        :meth:`_hook_piggyback` maps each follower to a value (ESCAPE: its
        assigned configuration) builds each follower's request once, in its
        final class (``_piggyback_request``), with that value last.

        The factory records what it hands each follower, and the next round
        serves that table as ``payloads.__getitem__`` (a C call, no frame per
        follower) while the cache is the same object (a new leadership has a
        new term, hence a new cache), no next index moved
        (``progress.version``), :meth:`_hook_piggyback` returned the same
        object and the table covers every peer: an idle heartbeat round.
        """
        progress = self.progress
        assert progress is not None
        key = (self.current_term, self.log.last_index, self.commit_index)
        if key != self._append_request_cache_key:
            self._append_request_cache_key = key
            self._append_request_cache = {}
        cache = self._append_request_cache
        version = progress.version
        piggyback = self._hook_piggyback()
        table = self._payload_table
        if (
            table is not None
            and table[0] is cache
            and table[1] == version
            and table[2] is piggyback
            and len(table[3]) == len(self._peer_ids)
        ):
            return table[3].__getitem__
        payloads: dict[ServerId, AppendEntriesRequest] = {}
        self._payload_table = (cache, version, piggyback, payloads)
        window = self._append_window
        next_index = progress.next_index
        term, _, commit = key
        leader_id = self.node_id
        if piggyback is None:

            def factory(follower: ServerId) -> AppendEntriesRequest:
                index = next_index(follower)
                request = cache.get(index)
                if request is None:
                    request = cache[index] = AppendEntriesRequest(
                        term, leader_id, *window(index), commit
                    )
                payloads[follower] = request
                return request

            return factory
        make = self._piggyback_request

        def factory(follower: ServerId) -> AppendEntriesRequest:
            index = next_index(follower)
            fields = cache.get(index)
            if fields is None:
                fields = cache[index] = window(index)
            prev_index, prev_term, entries = fields
            request = payloads[follower] = make(
                term, leader_id, prev_index, prev_term, entries, commit, piggyback[follower]
            )
            return request

        return factory

    def _append_window(
        self, next_index: LogIndex
    ) -> tuple[LogIndex, Term, tuple[LogEntry, ...]]:
        """``(prev_log_index, prev_log_term, entries)`` of the AppendEntries
        for a follower whose next index is known."""
        prev_index = next_index - 1
        log = self.log
        prev_term = log.term_at(prev_index) if prev_index <= log.last_index else 0
        entries = tuple(
            log.entries_from(next_index, limit=self.config.max_entries_per_append)
        )
        return prev_index, prev_term, entries

    def _advance_commit_index(self) -> None:
        assert self.progress is not None
        if self.commit_index >= self.log.last_index:
            # The quorum rule can never yield an index beyond the leader's own
            # log tail, so there is nothing further to commit.
            return
        new_commit = self.progress.commit_index_for_quorum(
            self.quorum_size, self.log, self.current_term
        )
        if new_commit > self.commit_index:
            self.commit_index = new_commit
            self._apply_committed_entries()

    def _apply_committed_entries(self) -> None:
        """Apply the newly committed range, read from the log in one slice.

        Listeners are notified synchronously and must not re-enter the node.
        """
        listening = self._listening["on_entry_committed"]
        now = self.env.now() if listening else 0.0
        apply = self.state_machine.apply
        last_applied = self.last_applied
        for entry in self.log.entries_from(
            last_applied + 1, self.commit_index - last_applied
        ):
            apply(entry.command)
            # Only now: an entry the state machine refused was not applied.
            # It stays next in line, so every later call raises on it again
            # and applies nothing after it: entries apply in log order or
            # not at all.
            self.last_applied = entry.index
            if self._trace_on:
                self.env.trace("log.apply", index=entry.index, term=entry.term)
            for notify in listening:
                notify(self.node_id, entry.index, entry.term, now)

    # ------------------------------------------------------------------ #
    # Timers
    # ------------------------------------------------------------------ #
    def _reset_election_timer(self) -> Milliseconds:
        """Arm the election timer with the next wait; returns the wait."""
        script = self.timeout_script
        if script and self._timeout_attempt < len(script):
            # A scripted wait draws nothing, whatever the protocol.
            timeout = script[self._timeout_attempt]
        else:
            timeout = self._own_timeout_ms
            if timeout is None:
                # Bit-identical to rng.uniform(low, high), which is
                # low + (high - low) * rng.random().
                timeout = self._timeout_low + self._timeout_span * self.env.rng.random()
        self._election_timer = self.env.rearm_timer(
            self._election_timer, timeout, self._election_callback, "election-timeout"
        )
        return timeout

    def _cancel_election_timer(self) -> None:
        if self._election_timer is not None:
            self.env.cancel_timer(self._election_timer)
            self._election_timer = None

    def _cancel_heartbeat_timer(self) -> None:
        if self._heartbeat_timer is not None:
            self.env.cancel_timer(self._heartbeat_timer)
            self._heartbeat_timer = None

    def _cancel_vote_retry_timer(self) -> None:
        if self._vote_retry_timer is not None:
            self.env.cancel_timer(self._vote_retry_timer)
            self._vote_retry_timer = None

    # ------------------------------------------------------------------ #
    # Extension hooks overridden by Z-Raft and ESCAPE
    # ------------------------------------------------------------------ #
    def _hook_next_election_term(self) -> Term:
        """Term used for the next campaign.  Raft: ``current_term + 1``."""
        return self.current_term + 1

    def _hook_may_grant_vote(self, request: RequestVoteRequest) -> bool:
        """Protocol-specific extra vote checks (ESCAPE: configuration clock)."""
        return True

    def _hook_make_vote_request(self) -> RequestVoteRequest:
        """Build this candidate's vote solicitation."""
        return RequestVoteRequest(
            term=self.current_term,
            candidate_id=self.node_id,
            last_log_index=self.log.last_index,
            last_log_term=self.log.last_term,
        )

    def _hook_piggyback(self) -> Mapping[ServerId, Any] | None:
        """What this round's AppendEntries piggyback, by follower: each
        follower's request is ``_piggyback_request`` with its value as the
        last field.  Raft: ``None``, nothing piggybacked.

        Called once per broadcast round.  The payload table serves a round
        only while this returns the very object it returned for the table
        (:meth:`_append_entries_factory`), so a class hands out a new mapping
        whenever a follower's value changes, and keeps returning the same one
        while none does."""
        return None

    def _hook_build_append_response(
        self, success: bool, match_index: LogIndex
    ) -> AppendEntriesResponse:
        """Construct the reply to an AppendEntries request (memo miss only).

        Whatever a subclass adds beyond Raft's fields (ESCAPE: its current
        ``configStatus``) must be a function of the log tail and
        ``_reply_token`` (see :meth:`_make_append_response`).
        """
        return AppendEntriesResponse(
            self.current_term, self.node_id, success, match_index
        )

    def _hook_before_heartbeat_round(self) -> None:
        """Called on the leader right before each heartbeat broadcast."""
        return None

    def _hook_on_become_leader(self) -> None:
        """Called when this node wins an election."""
        return None

    # ------------------------------------------------------------------ #
    # Debugging helpers
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """One-line summary used by examples and debugging sessions."""
        return (
            f"S{self.node_id}[{self.protocol_name}] role={self.role} "
            f"term={self.current_term} log=({self.log.last_index},{self.log.last_term}) "
            f"commit={self.commit_index}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"

