"""Cluster-wide election observer.

One :class:`ElectionObserver` instance is attached (as a node listener) to
every node in a cluster.  It records, with simulated timestamps, the events
the paper's figures decompose: election timeouts (failure *detection*),
campaign starts and leader elections.  The harness then derives
detection/election periods and split-vote occurrence from these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.common.frozen import value_object
from repro.common.types import Milliseconds, ServerId, Term
from repro.raft.listeners import NodeListenerBase


@value_object
class TimeoutEvent:
    """A follower's election timer expired (it detected a missing leader)."""

    time_ms: Milliseconds
    node_id: ServerId
    term: Term


@value_object
class CampaignEvent:
    """A candidate started an election campaign."""

    time_ms: Milliseconds
    node_id: ServerId
    term: Term


@value_object
class LeaderElectedEvent:
    """A candidate collected a quorum and became leader."""

    time_ms: Milliseconds
    leader_id: ServerId
    term: Term
    votes: int


@dataclass
class ElectionObserver(NodeListenerBase):
    """Accumulates protocol events from every node in one cluster."""

    timeouts: list[TimeoutEvent] = field(default_factory=list)
    campaigns: list[CampaignEvent] = field(default_factory=list)
    leaders: list[LeaderElectedEvent] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # NodeListener callbacks
    # ------------------------------------------------------------------ #
    def on_election_timeout(
        self, node_id: ServerId, term: Term, attempt: int, time_ms: Milliseconds
    ) -> None:
        self.timeouts.append(TimeoutEvent(time_ms, node_id, term))

    def on_election_started(
        self, node_id: ServerId, term: Term, time_ms: Milliseconds
    ) -> None:
        self.campaigns.append(CampaignEvent(time_ms, node_id, term))

    def on_leader_elected(
        self, leader_id: ServerId, term: Term, votes: int, time_ms: Milliseconds
    ) -> None:
        self.leaders.append(LeaderElectedEvent(time_ms, leader_id, term, votes))

    # ------------------------------------------------------------------ #
    # Queries used by the harness
    # ------------------------------------------------------------------ #
    def first_timeout_after(self, time_ms: Milliseconds) -> TimeoutEvent | None:
        """The earliest election timeout strictly after *time_ms*."""
        candidates = [event for event in self.timeouts if event.time_ms > time_ms]
        return min(candidates, key=lambda event: event.time_ms, default=None)

    def leader_elected_after(
        self, time_ms: Milliseconds, exclude: Iterable[ServerId] = ()
    ) -> LeaderElectedEvent | None:
        """The earliest leader election strictly after *time_ms*.

        Args:
            exclude: server ids that do not count (e.g. the crashed leader).
        """
        excluded = set(exclude)
        candidates = [
            event
            for event in self.leaders
            if event.time_ms > time_ms and event.leader_id not in excluded
        ]
        return min(candidates, key=lambda event: event.time_ms, default=None)

    def campaigns_after(self, time_ms: Milliseconds) -> list[CampaignEvent]:
        """Every campaign started strictly after *time_ms*."""
        return [event for event in self.campaigns if event.time_ms > time_ms]

    def campaign_terms_after(self, time_ms: Milliseconds) -> dict[Term, list[ServerId]]:
        """Campaigns after *time_ms*, grouped by campaign term."""
        grouped: dict[Term, list[ServerId]] = {}
        for event in self.campaigns_after(time_ms):
            grouped.setdefault(event.term, []).append(event.node_id)
        return grouped

    def split_vote_occurred_after(self, time_ms: Milliseconds) -> bool:
        """Whether votes were split in any term after *time_ms*.

        A split vote, per Section II-B of the paper, is a term in which two or
        more candidates campaigned and no leader emerged.
        """
        elected_terms = {
            event.term for event in self.leaders if event.time_ms > time_ms
        }
        for term, candidates in self.campaign_terms_after(time_ms).items():
            if len(candidates) >= 2 and term not in elected_terms:
                return True
        return False
