"""Leader-side replication bookkeeping (``nextIndex`` / ``matchIndex``).

The :class:`ReplicationProgress` tracks, for every follower, the next log
index to send and the highest index known to be replicated, and computes the
commit index as the highest index stored on a quorum -- restricted, per Raft's
commitment rule, to entries of the current term.

The commit rule runs once per successful AppendEntries reply, so it does work
proportional to what the reply changed:

* every member's match index (the leader's own included) is also kept in one
  ascending list, re-positioned with ``bisect`` only when a match index
  actually rises -- the index stored on a quorum is then a list lookup, with
  no sort and no list build per reply;
* the search for a current-term entry at or below that index stops at the
  first entry of an older term: log terms never decrease with the index
  (:meth:`~repro.storage.log.ReplicatedLog.append_entry` enforces it), so
  nothing below such an entry can be of the current term.

Every update goes through :class:`ReplicationProgress` (the
:class:`PeerProgress` records it hands out are plain data), which keeps the
ordered list in step.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.common.errors import ProtocolError
from repro.common.types import LogIndex, ServerId, Term
from repro.storage.log import ReplicatedLog


@dataclass
class PeerProgress:
    """Replication progress of a single follower."""

    next_index: LogIndex
    match_index: LogIndex = 0


class ReplicationProgress:
    """Tracks every follower's progress and derives the commit index."""

    def __init__(self, leader_id: ServerId, peers: Iterable[ServerId], last_log_index: LogIndex) -> None:
        self._leader_id = leader_id
        self._peers: dict[ServerId, PeerProgress] = {
            peer: PeerProgress(next_index=last_log_index + 1) for peer in peers
        }
        self._leader_match_index: LogIndex = last_log_index
        # Every member's match index, ascending (followers start at 0).
        self._ordered_matches: list[LogIndex] = [0] * len(self._peers) + [last_log_index]
        #: Bumped whenever, and only when, some follower's next index moves:
        #: the same version, the same ``next_index(peer)`` for every peer.
        self.version = 0

    @property
    def peers(self) -> Mapping[ServerId, PeerProgress]:
        """Progress per follower (read-only view)."""
        return dict(self._peers)

    def progress_of(self, peer: ServerId) -> PeerProgress:
        """The progress record of one follower."""
        try:
            return self._peers[peer]
        except KeyError as exc:
            raise ProtocolError(f"S{peer} is not a tracked follower") from exc

    # Below, one dict read per call; the fallback only ever raises (unknown id).
    def next_index(self, peer: ServerId) -> LogIndex:
        """The next log index to send to *peer*."""
        return (self._peers.get(peer) or self.progress_of(peer)).next_index

    def match_index(self, peer: ServerId) -> LogIndex:
        """The highest index known replicated on *peer*."""
        return (self._peers.get(peer) or self.progress_of(peer)).match_index

    def record_local_append(self, last_log_index: LogIndex) -> None:
        """The leader appended up to *last_log_index* locally."""
        if last_log_index > self._leader_match_index:
            self._raise_match(self._leader_match_index, last_log_index)
            self._leader_match_index = last_log_index

    def record_success(self, peer: ServerId, match_index: LogIndex) -> None:
        """Record a successful AppendEntries response from *peer*: its match
        index never falls, and its next index ends beyond it (a failure may
        have rewound it below)."""
        record = self._peers.get(peer) or self.progress_of(peer)
        if match_index > record.match_index:
            self._raise_match(record.match_index, match_index)
            record.match_index = match_index
        if record.next_index <= record.match_index:
            record.next_index = record.match_index + 1
            self.version += 1

    def record_failure(self, peer: ServerId, follower_last_index: LogIndex) -> None:
        """Record a failed AppendEntries response from *peer*: rewind its next
        index -- to just past the last log index the follower reported, which
        skips a missing suffix in one step instead of one index per round trip."""
        record = self._peers.get(peer) or self.progress_of(peer)
        next_index = max(1, min(record.next_index - 1, follower_last_index + 1))
        if next_index != record.next_index:
            record.next_index = next_index
            self.version += 1

    def _raise_match(self, old: LogIndex, new: LogIndex) -> None:
        """Move one member's match index from *old* up to *new* in the ordered list."""
        ordered = self._ordered_matches
        del ordered[bisect_left(ordered, old)]
        ordered.insert(bisect_left(ordered, new), new)

    def commit_index_for_quorum(
        self, quorum_size: int, log: ReplicatedLog, current_term: Term
    ) -> LogIndex:
        """Highest index replicated on a quorum whose entry is from *current_term*.

        Raft only commits entries of the leader's current term by counting
        replicas; earlier-term entries become committed implicitly.  This is
        the rule that prevents the "figure 8" scenario of the Raft paper.
        """
        ordered = self._ordered_matches
        if quorum_size > len(ordered):
            return 0
        # The quorum_size-th highest match index; never beyond the log tail.
        candidate_index = min(ordered[-quorum_size], log.last_index)
        while candidate_index > 0:
            term = log.term_at(candidate_index)
            if term == current_term:
                return candidate_index
            if term < current_term:
                # Terms never decrease with the index: nothing below is newer.
                return 0
            candidate_index -= 1
        return 0
