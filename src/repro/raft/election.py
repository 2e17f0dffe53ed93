"""Vote tallying for election campaigns."""

from __future__ import annotations

from typing import Iterable

from repro.common.errors import ProtocolError
from repro.common.types import ServerId, Term
from repro.common.validation import require_positive


class VoteTally:
    """Who has answered a candidate in its current campaign, and how.

    A fresh tally is started for every campaign term; answers recorded for
    any other term are rejected, which is how stale (delayed) vote replies are
    ignored.  Refusals are kept next to grants so that the candidate re-asks
    only the peers it has not heard from (Raft's TLA+ specification sends
    RequestVote only to servers outside ``votesResponded``).
    """

    def __init__(self, quorum_size: int) -> None:
        require_positive(quorum_size, "quorum_size")
        self._quorum_size = quorum_size
        self._term: Term | None = None
        self._voters: set[ServerId] = set()
        self._refusers: set[ServerId] = set()

    @property
    def quorum_size(self) -> int:
        """Number of votes needed to win (majority of the full membership)."""
        return self._quorum_size

    @property
    def term(self) -> Term | None:
        """The campaign term currently being tallied (``None`` before any)."""
        return self._term

    @property
    def votes(self) -> frozenset[ServerId]:
        """Servers that granted their vote in the current campaign."""
        return frozenset(self._voters)

    @property
    def count(self) -> int:
        """Number of votes collected so far in the current campaign."""
        return len(self._voters)

    def start_campaign(self, term: Term) -> None:
        """Reset the tally for a new campaign in *term*."""
        if self._term is not None and term <= self._term:
            raise ProtocolError(
                f"campaign term must increase: {term} <= {self._term}"
            )
        self._term = term
        self._voters = set()
        self._refusers = set()

    def record_vote(self, term: Term, voter: ServerId) -> bool:
        """Record a granted vote.

        Returns:
            ``True`` if the vote counted (correct term, not a duplicate).
        """
        if self._term is None or term != self._term:
            return False
        if voter in self._voters:
            return False
        self._voters.add(voter)
        return True

    def record_refusal(self, term: Term, voter: ServerId) -> None:
        """Record a refused vote (ignored unless *term* is the campaign's)."""
        if term == self._term:
            self._refusers.add(voter)

    def silent(self, peers: Iterable[ServerId]) -> list[ServerId]:
        """The *peers*, in order, that have neither granted nor refused."""
        voters = self._voters
        refusers = self._refusers
        return [peer for peer in peers if peer not in voters and peer not in refusers]

    def has_quorum(self) -> bool:
        """Whether the collected votes reach the quorum."""
        return len(self._voters) >= self._quorum_size
