"""Closed-form models of detection time and split-vote probability.

These models capture the trade-off the paper analyses in Section III: widening
Raft's randomized timeout range reduces the chance of concurrent candidates
(and hence split votes) but lengthens the time until the first follower
notices the leader is gone.  ESCAPE's prioritized timeouts make detection a
constant (the base time) independent of cluster size.

The models deliberately ignore second-order effects (heartbeat phase at the
moment of the crash, vote-message latency variance) -- they are cross-checks
for the simulator, not replacements for it.
"""

from __future__ import annotations

import math

from repro.common.errors import ConfigurationError
from repro.common.types import Milliseconds


def expected_minimum_uniform(low: float, high: float, n: int) -> float:
    """Expected minimum of *n* i.i.d. uniforms on ``[low, high]``.

    ``E[min] = low + (high - low) / (n + 1)``.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if high < low:
        raise ConfigurationError(f"invalid range [{low}, {high}]")
    return low + (high - low) / (n + 1)


def raft_expected_detection_ms(  # repro: allow[U1] -- ROADMAP 4(d); test_paper_claims
    timeout_min_ms: Milliseconds,
    timeout_max_ms: Milliseconds,
    followers: int,
    heartbeat_interval_ms: Milliseconds = 0.0,
) -> Milliseconds:
    """Expected Raft detection period after a leader crash.

    Each of the *followers* holds a timer drawn uniformly from the timeout
    range; the first to expire detects the failure, so the expectation is the
    expected minimum of the draws, minus (on average) half a heartbeat
    interval because the crash lands uniformly inside the heartbeat period.
    """
    base = expected_minimum_uniform(timeout_min_ms, timeout_max_ms, followers)
    return max(0.0, base - heartbeat_interval_ms / 2.0)


def escape_expected_detection_ms(  # repro: allow[U1] -- ROADMAP 4(d); test_paper_claims
    base_time_ms: Milliseconds,
    heartbeat_interval_ms: Milliseconds = 0.0,
) -> Milliseconds:
    """Expected ESCAPE detection period: the groomed future leader's timeout.

    The highest-priority follower always holds the ``baseTime`` timeout
    (Eq. 1 with ``P = n``), so detection does not depend on the cluster size.
    """
    return max(0.0, base_time_ms - heartbeat_interval_ms / 2.0)


def simultaneous_timeout_probability(  # repro: allow[U1] -- ROADMAP 4(d); test_paper_claims
    timeout_min_ms: Milliseconds,
    timeout_max_ms: Milliseconds,
    followers: int,
    window_ms: Milliseconds,
) -> float:
    """Probability that at least two follower timers expire within *window_ms*.

    A split vote needs at least two candidates close enough in time that the
    first candidate's vote requests have not yet reached (and reset) the rest
    of the cluster; *window_ms* is therefore of the order of one network
    latency.  The computation conditions on the earliest timer and asks
    whether any of the remaining ``followers - 1`` timers lands inside the
    window -- a standard order-statistics bound rather than an exact split
    probability (votes may still aggregate even with two candidates), so the
    simulator is expected to produce split-vote rates *below* this value.
    """
    if followers < 2:
        return 0.0
    spread = timeout_max_ms - timeout_min_ms
    if spread <= 0:
        return 1.0
    window = min(window_ms, spread)
    per_follower_miss = 1.0 - window / spread
    return 1.0 - per_follower_miss ** (followers - 1)


def split_vote_probability_two_candidates(  # repro: allow[U1] -- ROADMAP 4(d); test_paper_claims
    cluster_size: int,
) -> float:
    """Probability that two simultaneous candidates split the vote.

    Both candidates vote for themselves; each of the remaining
    ``cluster_size - 2`` voters (the crashed leader excluded) independently
    votes for whichever request arrives first (probability 1/2 each, latencies
    being i.i.d.).  The vote splits when neither candidate reaches the quorum
    ``floor(n/2) + 1``.
    """
    if cluster_size < 3:
        return 0.0
    voters = cluster_size - 1 - 2  # exclude the crashed leader and both candidates
    quorum = cluster_size // 2 + 1
    split_probability = 0.0
    for votes_for_first in range(voters + 1):
        probability = math.comb(voters, votes_for_first) * 0.5**voters
        first_total = 1 + votes_for_first
        second_total = 1 + (voters - votes_for_first)
        if first_total < quorum and second_total < quorum:
            split_probability += probability
    return split_probability
