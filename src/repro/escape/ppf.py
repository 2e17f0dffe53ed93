"""The Probing Patrol Function (PPF, Section IV-B).

The PPF runs on the leader.  Each heartbeat round it

1. reads the latest log responsiveness every follower reported in its
   AppendEntries replies (the ``log_index`` field, the log index of the
   paper's ``configStatus``),
2. decides which followers are currently *lagging* (silent, crashed, or
   missing log entries),
3. re-assigns the pool of prioritized configurations so that up-to-date
   followers hold the higher priorities (and therefore the shorter election
   timeouts), advancing the configuration clock whenever the assignment
   actually changes, and
4. hands the per-follower assignment back to the node, which piggybacks it on
   the next heartbeat broadcast.

Three engineering decisions deserve a note:

* **Stability.**  The ranking is *stable*: followers keep their relative order
  unless their lagging status changes.  A full re-sort on every heartbeat
  would reshuffle priorities on transient, one-heartbeat lags, which under
  broadcast message loss makes half the cluster hold configurations one clock
  behind and reintroduces exactly the stale-candidate problem the clock is
  meant to solve.
* **Rearrangement clock.**  The configuration clock is the logical clock of
  *rearrangements* -- it advances only when the priority assignment changes,
  not on every heartbeat.  Rounds that re-issue the same assignment keep the
  same clock, so a follower that misses one heartbeat broadcast is not
  instantly considered stale by the voters.

* **Idle rounds.**  Most rounds change nothing.  The ranking depends only on
  the followers' lagging verdicts and the priorities they hold, so a round
  whose verdicts equal those of the last round that ranked and reassigned
  nothing skips the sort (see :meth:`ProbingPatrol.advance_round`).

Followers that have stopped responding (or whose logs trail the leader's by
``LAG_ENTRIES_THRESHOLD`` entries or more) sink to the bottom of the ranking,
so a crashed or partitioned server can never hold the groomed "future
leader" configuration for long -- this is exactly the scenario of Figure 5b
in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.common.config import ScaParameters
from repro.common.errors import ConfigurationError
from repro.common.types import LogIndex, Milliseconds, ServerId
from repro.escape.configuration import Configuration
from repro.escape.sca import follower_priority_ladder, validate_assignment

#: A follower whose last reported log index trails the leader's log by at
#: least this many entries counts as lagging.
LAG_ENTRIES_THRESHOLD = 2


@dataclass(slots=True)
class FollowerResponsiveness:
    """What the leader currently knows about one follower."""

    follower_id: ServerId
    log_index: LogIndex = 0
    last_reply_ms: Milliseconds | None = None


class ProbingPatrol:
    """Leader-side configuration pool manager.

    Args:
        leader_id: the leader this patrol runs on.
        followers: the leader's peers.
        cluster_size: total number of servers ``n`` (followers hold priorities
            ``[2, n]``; the leader holds no active configuration while it
            leads -- its row is ``NA/∞`` in Figure 5 of the paper).
        sca: the Eq. 1 parameters used to pair a timeout with each priority.
        initial_clock: the first configuration clock to hand out; the leader
            uses its own configuration's clock + 1 so newly issued
            configurations always dominate anything assigned by a previous
            leader.
        stale_after_ms: a follower that has not replied for this long counts
            as lagging (covers crashed and partitioned servers).
    """

    def __init__(
        self,
        leader_id: ServerId,
        followers: Iterable[ServerId],
        cluster_size: int,
        sca: ScaParameters,
        initial_clock: int = 1,
        stale_after_ms: Milliseconds = 600.0,
    ) -> None:
        self._leader_id = leader_id
        self._followers = tuple(followers)
        if len(self._followers) != cluster_size - 1:
            raise ConfigurationError(
                f"expected {cluster_size - 1} followers, got {len(self._followers)}"
            )
        if stale_after_ms <= 0:
            raise ConfigurationError("stale_after_ms must be positive")
        self._ladder = tuple(follower_priority_ladder(cluster_size))
        # Eq. 1 for each rung, evaluated once: a rebuild only re-stamps.
        self._timeouts = tuple(
            sca.election_timeout_ms(priority, cluster_size) for priority in self._ladder
        )
        #: The configuration clock of the most recent rearrangement.
        self.conf_clock = max(0, initial_clock)
        self._stale_after_ms = stale_after_ms
        #: Follower -> what the leader knows of it, in ``followers`` order.
        #: A leader may update a record in place exactly as
        #: :meth:`record_reply` does (ESCAPE's reply handler does, with no
        #: call per reply).
        self.records: dict[ServerId, FollowerResponsiveness] = {
            follower: FollowerResponsiveness(follower) for follower in self._followers
        }
        self._assignments: dict[ServerId, Configuration] = {}
        #: The current follower → configuration assignment, read-only.  A
        #: rearrangement installs a new assignment rather than changing this
        #: one, so a view taken in one round reads that round's assignment
        #: for as long as it is held: the leader's AppendEntries factory
        #: reads it once per round and looks each follower up with no call.
        self.assignments: Mapping[ServerId, Configuration] = MappingProxyType(
            self._assignments
        )
        # The per-follower lagging verdicts of the last round that ranked and
        # found nothing to reassign; None after every rebuild (advance_round).
        self._settled_verdicts: list[bool] | None = None
        self.rearrangement_count = 0
        # The initial assignment simply follows server-id order; the first
        # few heartbeat replies will promote the actually-responsive servers.
        self._rebuild_from(sorted(self._followers))

    # ------------------------------------------------------------------ #
    # Observation (called from AppendEntries replies)
    # ------------------------------------------------------------------ #
    def responsiveness_of(self, follower: ServerId) -> FollowerResponsiveness:
        """The leader's current knowledge about one follower."""
        try:
            return self.records[follower]
        except KeyError as exc:
            raise ConfigurationError(f"S{follower} is not a tracked follower") from exc

    def record_reply(
        self,
        follower: ServerId,
        log_index: LogIndex,
        now_ms: Milliseconds,
    ) -> None:
        """Record a follower's AppendEntries reply (its responsiveness probe)."""
        # One dict read per call; the fallback only ever raises (unknown id).
        record = self.records.get(follower) or self.responsiveness_of(follower)
        if log_index > record.log_index:
            record.log_index = log_index
        record.last_reply_ms = now_ms

    def is_lagging(  # repro: allow[U1] -- reference verdict; test_sca_ppf_properties
        self,
        follower: ServerId,
        now_ms: Milliseconds,
        leader_last_index: LogIndex,
    ) -> bool:
        """Whether the leader currently considers *follower* to be lagging."""
        # One dict read per call; the fallback only ever raises (unknown id).
        record = self.records.get(follower) or self.responsiveness_of(follower)
        last_reply_ms = record.last_reply_ms
        if last_reply_ms is None or now_ms - last_reply_ms > self._stale_after_ms:
            return True
        return leader_last_index - record.log_index >= LAG_ENTRIES_THRESHOLD

    # ------------------------------------------------------------------ #
    # Rearrangement (called right before each heartbeat broadcast)
    # ------------------------------------------------------------------ #
    def advance_round(self, now_ms: Milliseconds, leader_last_index: LogIndex) -> None:
        """Run one PPF round: re-rank the followers and re-issue configurations.

        The configuration clock advances only when the ranking hands some
        follower a priority other than the one it holds; the node reads the
        round's outcome through :attr:`assignments`.

        The ranking is a function of the followers' lagging verdicts and the
        priorities they hold, so a round whose verdicts equal those of the
        last round that ranked and reassigned nothing -- with no rebuild in
        between, hence the same held priorities -- would sort the same keys
        into the same order and reach the same "nothing to reassign" answer:
        it returns without ranking.  Any other round ranks and compares in
        full.

        The verdicts are :meth:`is_lagging` for every follower, in
        ``followers`` order, computed in one pass over the records.
        """
        stale_after_ms = self._stale_after_ms
        verdicts = [
            (last_reply_ms := record.last_reply_ms) is None
            or now_ms - last_reply_ms > stale_after_ms
            or leader_last_index - record.log_index >= LAG_ENTRIES_THRESHOLD
            for record in self.records.values()
        ]
        if verdicts == self._settled_verdicts:
            return
        ranking = self._rank(verdicts)
        held = self._assignments
        if any(
            held[follower].priority != priority
            for follower, priority in zip(ranking, self._ladder)
        ):
            self.conf_clock += 1
            self._rebuild_from(ranking)
            self.rearrangement_count += 1
            self._settled_verdicts = None
        else:
            self._settled_verdicts = verdicts

    def configuration_for(  # repro: allow[U1] -- test_escape_ppf, test_replication_complexity
        self, follower: ServerId
    ) -> Configuration:
        """The configuration currently assigned to *follower*."""
        try:
            return self._assignments[follower]
        except KeyError as exc:
            raise ConfigurationError(f"S{follower} has no assigned configuration") from exc

    def groomed_future_leader(self) -> ServerId:
        """The follower currently holding the highest-priority configuration."""
        return max(
            self._assignments, key=lambda follower: self._assignments[follower].priority
        )

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _rank(self, verdicts: list[bool]) -> list[ServerId]:
        """Sort the followers best-first under the given lagging *verdicts*."""
        held = self._assignments
        keys = sorted(
            (lagging, -held[follower].priority, follower)
            for follower, lagging in zip(self._followers, verdicts)
        )
        return [follower for _, _, follower in keys]

    def _rebuild_from(self, ranking: list[ServerId]) -> None:
        assignments: dict[ServerId, Configuration] = {}
        clock = self.conf_clock
        for priority, timeout, follower in zip(self._ladder, self._timeouts, ranking):
            assignments[follower] = Configuration(priority, timeout, clock)
        validate_assignment(assignments)
        self._assignments = assignments
        self.assignments = MappingProxyType(assignments)
