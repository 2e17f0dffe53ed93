"""Redis-Cluster-style replica failover, with and without ESCAPE.

The model follows the failover mechanism of the Redis Cluster specification
(the paper's reference [13]) closely enough to exhibit the competition problem
the paper discusses, while staying small:

* a shard has one master and ``replicas`` replicas; the cluster also contains
  ``VOTING_MASTERS`` other masters that vote on failover requests;
* when the master fails, each replica waits a *failover delay* and then asks
  the voting masters for votes in a new ``configEpoch``;
* a voting master grants at most one vote per epoch, so two replicas that land
  in the same epoch can split the vote and must retry after
  ``RETRY_TIMEOUT_MS`` -- this is the same-epoch competition of Section IV-C;
* the stock delay is ``BASE_DELAY_MS + jitter + rank * RANK_STEP_MS`` where
  the rank orders replicas by replication offset (Redis's ``SLAVE_RANK``);
  ranks are computed from possibly *stale* offset information, so
  equal-looking replicas can pick the same rank.

The ESCAPE variant replaces the rank with a groomed configuration: the master
assigns each replica a unique priority derived from its replication
responsiveness before any failure happens, the failover epoch grows by the
priority (so concurrent attempts never collide in one epoch), and voting
masters reject attempts carrying a stale configuration clock.
"""

from __future__ import annotations

import random
from dataclasses import field
from typing import Self

from repro.common.frozen import value_object
from repro.common.rng import SeedSequence
from repro.common.types import Milliseconds
from repro.common.validation import require_fraction, require_positive
from repro.metrics.records import RecordSet
from repro.metrics.stats import SummaryStatistics, summarize


# The timing constants follow the Redis Cluster specification: a fixed 500 ms
# base delay, up to 500 ms of random jitter, 1000 ms per rank step, and a
# 10 s node timeout before a new attempt (scaled down here to 2 s to keep
# simulated episodes short while preserving the ratios).

#: Masters outside the failed shard that vote on failover requests.
VOTING_MASTERS = 5
#: Votes needed to win a failover election (majority of voting masters).
QUORUM = VOTING_MASTERS // 2 + 1
#: Fixed part of every failover delay.
BASE_DELAY_MS: Milliseconds = 500.0
#: Upper bound of the stock failover delay's random part.
JITTER_MS: Milliseconds = 500.0
#: Extra delay per rank step (Redis's ``SLAVE_RANK``).
RANK_STEP_MS: Milliseconds = 1_000.0
#: Vote round trip; requests this close in one epoch compete for votes.
VOTE_RTT_MS: Milliseconds = 150.0
#: Wait before a replica retries a failover attempt.
RETRY_TIMEOUT_MS: Milliseconds = 2_000.0
#: Failover attempts each replica schedules.
MAX_ATTEMPTS = 20


@value_object
class RedisClusterParameters:
    """The swept parameters of the failover model; its timing and the voting
    masters are the module constants above."""

    replicas: int = 5
    # Probability that a replica mis-estimates its own rank (stale replication
    # offset information), which is what makes two replicas pick the same rank.
    rank_confusion: float = 0.3
    # Fraction of vote requests lost on the way to a voting master.
    vote_loss_rate: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.replicas, "replicas")
        require_fraction(self.rank_confusion, "rank_confusion")
        require_fraction(self.vote_loss_rate, "vote_loss_rate")


@value_object
class FailoverMeasurement:
    """Outcome of one simulated master failure."""

    variant: str
    promoted_replica: int | None
    failover_ms: Milliseconds
    attempts: int
    epoch_collisions: int
    converged: bool
    extra: dict[str, float] = field(default_factory=dict)


class FailoverSet(RecordSet[FailoverMeasurement]):
    """Failover measurements from repeated runs of one model.

    The queries are the quantities Section IV-C argues ESCAPE improves.
    """

    record_type = FailoverMeasurement

    def _converged_summary(self) -> SummaryStatistics | None:
        times = [m.failover_ms for m in self._measurements if m.converged]
        return summarize(times) if times else None

    def mean_ms(self) -> float | None:
        """Average failover time of the converged runs (``None`` if none did)."""
        summary = self._converged_summary()
        return summary.mean if summary else None

    def p95_ms(self) -> float | None:
        """95th-percentile failover time of the converged runs."""
        summary = self._converged_summary()
        return summary.p95 if summary else None

    def collision_rate(self) -> float:
        """Fraction of runs with at least one same-epoch collision."""
        runs = self._require_runs()
        return sum(1 for m in runs if m.epoch_collisions > 0) / len(runs)

    def convergence_fraction(self) -> float:
        """Fraction of runs that promoted a replica."""
        runs = self._require_runs()
        return sum(1 for m in runs if m.converged) / len(runs)


@value_object
class _Attempt:
    """One replica's failover attempt."""

    time_ms: Milliseconds
    replica: int
    epoch: int
    conf_clock: int


@value_object
class _FailoverModelBase:
    """Shared vote-counting machinery for both variants.

    A model is a frozen value and ``run(seed)`` a pure function of the two,
    so a model is itself the scenario of a sweep cell (picklable, with a
    deterministic ``repr``).
    """

    params: RedisClusterParameters

    variant = "base"

    def with_engine(self, engine: object) -> Self:
        """The model itself: an analytic model runs on no simulation engine."""
        return self

    # Subclasses provide the per-replica schedule of attempts.
    def _attempt_schedule(self, rng: random.Random) -> list[_Attempt]:
        raise NotImplementedError

    def _clock_gate(self, attempt: _Attempt, master_clock: int) -> bool:
        """Whether voting masters accept the attempt's configuration clock."""
        return True

    def _master_clock(self) -> int:
        return 0

    def run(self, seed: int) -> FailoverMeasurement:
        """Simulate one master failure and measure the failover.

        Vote requests that reach the voting masters within one vote round-trip
        of each other *and in the same epoch* compete: each master grants its
        single per-epoch vote to one of the concurrent contenders uniformly at
        random (its choice in reality depends on which request arrives first
        over its own network path).  Requests separated by more than a
        round-trip are served strictly in order.
        """
        params = self.params
        rng = SeedSequence(seed).stream("redis", self.variant)
        attempts = sorted(self._attempt_schedule(rng), key=lambda a: (a.time_ms, a.replica))
        votes_used_in_epoch: dict[int, dict[int, int]] = {}
        granted_votes: dict[tuple[int, int], int] = {}
        master_clock = self._master_clock()
        collisions = 0
        for index, attempt in enumerate(attempts):
            if not self._clock_gate(attempt, master_clock):
                continue
            contenders = [
                other
                for other in attempts
                if other.epoch == attempt.epoch
                and abs(other.time_ms - attempt.time_ms) <= VOTE_RTT_MS
                and self._clock_gate(other, master_clock)
            ]
            if len({other.replica for other in contenders}) > 1:
                collisions += 1
            epoch_votes = votes_used_in_epoch.setdefault(attempt.epoch, {})
            for master in range(VOTING_MASTERS):
                if master in epoch_votes:
                    continue  # this master already voted in this epoch
                if params.vote_loss_rate and rng.random() < params.vote_loss_rate:
                    continue
                chosen = rng.choice(contenders) if len(contenders) > 1 else attempt
                epoch_votes[master] = chosen.replica
                key = (attempt.epoch, chosen.replica)
                granted_votes[key] = granted_votes.get(key, 0) + 1
            if granted_votes.get((attempt.epoch, attempt.replica), 0) >= QUORUM:
                return FailoverMeasurement(
                    variant=self.variant,
                    promoted_replica=attempt.replica,
                    failover_ms=attempt.time_ms + VOTE_RTT_MS,
                    attempts=index + 1,
                    epoch_collisions=collisions,
                    converged=True,
                )
        last_time = attempts[-1].time_ms if attempts else 0.0
        return FailoverMeasurement(
            variant=self.variant,
            promoted_replica=None,
            failover_ms=last_time + RETRY_TIMEOUT_MS,
            attempts=len(attempts),
            epoch_collisions=collisions,
            converged=False,
        )


@value_object
class RedisFailoverModel(_FailoverModelBase):
    """The stock Redis Cluster failover (rank-based delays, shared epochs)."""

    variant = "redis"

    def _attempt_schedule(self, rng: random.Random) -> list[_Attempt]:
        params = self.params
        # True freshness order of the replicas (0 = most up to date).  With
        # probability ``rank_confusion`` a replica mis-ranks itself by one,
        # which is how two replicas end up with the same delay bucket.
        true_ranks = list(range(params.replicas))
        rng.shuffle(true_ranks)
        attempts: list[_Attempt] = []
        epoch_base = 1
        for replica, true_rank in enumerate(true_ranks):
            perceived_rank = true_rank
            if rng.random() < params.rank_confusion and true_rank > 0:
                perceived_rank = true_rank - 1
            for retry in range(MAX_ATTEMPTS):
                delay = (
                    BASE_DELAY_MS
                    + rng.uniform(0.0, JITTER_MS)
                    + perceived_rank * RANK_STEP_MS
                    + retry * RETRY_TIMEOUT_MS
                )
                # Every attempt bumps the shared failover epoch by one, so
                # concurrent attempts frequently share an epoch.
                attempts.append(
                    _Attempt(
                        time_ms=delay,
                        replica=replica,
                        epoch=epoch_base + retry,
                        conf_clock=0,
                    )
                )
        return attempts


@value_object
class EscapeFailoverModel(_FailoverModelBase):
    """Redis failover with ESCAPE-style groomed configurations."""

    #: Fraction of replicas whose groomed assignment is one clock behind.
    stale_assignment_rate: float = 0.0

    variant = "escape-redis"

    #: Configuration clock the master stamped on the current assignments.
    GROOMED_CLOCK = 1

    def __post_init__(self) -> None:
        require_fraction(self.stale_assignment_rate, "stale_assignment_rate")

    def _master_clock(self) -> int:
        return self.GROOMED_CLOCK

    def _clock_gate(self, attempt: _Attempt, master_clock: int) -> bool:
        # Voting masters refuse attempts whose configuration clock is stale
        # (Section IV-B's rule transplanted to configEpoch voting).
        return attempt.conf_clock >= master_clock

    def _attempt_schedule(self, rng: random.Random) -> list[_Attempt]:
        params = self.params
        # The master groomed the replicas before failing: the freshest replica
        # holds priority ``replicas``, the next ``replicas - 1``, and so on,
        # each paired with a strictly increasing delay (Eq. 1 transplanted).
        priorities = list(range(params.replicas, 0, -1))
        attempts: list[_Attempt] = []
        for replica, priority in enumerate(priorities):
            stale = rng.random() < self.stale_assignment_rate
            clock = self.GROOMED_CLOCK - 1 if stale else self.GROOMED_CLOCK
            delay_rank = params.replicas - priority  # freshest replica waits least
            epoch = 0
            for retry in range(MAX_ATTEMPTS):
                delay = (
                    BASE_DELAY_MS
                    + delay_rank * RANK_STEP_MS / max(1, params.replicas)
                    + retry * RETRY_TIMEOUT_MS
                )
                # Eq. 2 transplanted: the epoch grows by the priority, so
                # concurrent attempts always land in different epochs.
                epoch += priority
                attempts.append(
                    _Attempt(time_ms=delay, replica=replica, epoch=epoch, conf_clock=clock)
                )
        return attempts
