"""Vote tallying for election campaigns."""

from __future__ import annotations

from repro.common.errors import ProtocolError
from repro.common.types import ServerId, Term
from repro.common.validation import require_positive


class VoteTally:
    """Counts the votes a candidate has collected in its current campaign.

    A fresh tally is started for every campaign term; votes recorded for any
    other term are rejected, which is how stale (delayed) vote replies are
    ignored.
    """

    def __init__(self, quorum_size: int) -> None:
        require_positive(quorum_size, "quorum_size")
        self._quorum_size = quorum_size
        self._term: Term | None = None
        self._voters: set[ServerId] = set()

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

    def has_quorum(self) -> bool:
        """Whether the collected votes reach the quorum."""
        return len(self._voters) >= self._quorum_size
