"""Raft RPC messages.

Raft uses exactly two RPCs: ``RequestVote`` (leader election) and
``AppendEntries`` (log replication and heartbeats).  ESCAPE extends both --
see :mod:`repro.escape.messages` -- by subclassing these dataclasses, so a
handler written against the base types also accepts the extended ones (the
paper's Lemma 2: an ESCAPE campaign is indistinguishable from a Raft campaign
on the receiving side).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.types import LogIndex, ServerId, Term
from repro.storage.log import LogEntry


@dataclass(frozen=True, slots=True)
class RpcMessage:
    """Base class for every protocol message; all carry the sender's term."""

    term: Term


@dataclass(frozen=True, slots=True)
class RequestVoteRequest(RpcMessage):
    """A candidate's vote solicitation.

    Attributes:
        term: the candidate's (already incremented) campaign term.
        candidate_id: who is asking for the vote.
        last_log_index: index of the candidate's last log entry.
        last_log_term: term of the candidate's last log entry.
    """

    candidate_id: ServerId = 0
    last_log_index: LogIndex = 0
    last_log_term: Term = 0


@dataclass(frozen=True, slots=True)
class RequestVoteResponse(RpcMessage):
    """A voter's reply to :class:`RequestVoteRequest`.

    Attributes:
        term: the voter's current term (lets a stale candidate step down).
        voter_id: who replied.
        vote_granted: whether the vote was granted.
    """

    voter_id: ServerId = 0
    vote_granted: bool = False


@dataclass(frozen=True, slots=True)
class AppendEntriesRequest(RpcMessage):
    """The leader's replication/heartbeat RPC.

    Attributes:
        term: the leader's term.
        leader_id: the sending leader.
        prev_log_index: index immediately preceding the carried entries.
        prev_log_term: term of the entry at ``prev_log_index``.
        entries: the entries to replicate (empty for a pure heartbeat).
        leader_commit: the leader's commit index.
    """

    leader_id: ServerId = 0
    prev_log_index: LogIndex = 0
    prev_log_term: Term = 0
    entries: tuple[LogEntry, ...] = field(default_factory=tuple)
    leader_commit: LogIndex = 0


@dataclass(frozen=True, slots=True)
class AppendEntriesResponse(RpcMessage):
    """A follower's reply to :class:`AppendEntriesRequest`.

    Attributes:
        term: the follower's current term.
        follower_id: who replied.
        success: whether the consistency check passed and entries were merged.
        match_index: on success, the highest log index now known to match the
            leader's log; on failure, the follower's last log index, which the
            leader uses to rewind ``nextIndex`` quickly.
    """

    follower_id: ServerId = 0
    success: bool = False
    match_index: LogIndex = 0
