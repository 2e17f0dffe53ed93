"""Unit tests for the Probing Patrol Function."""

import pytest

from repro.common.config import ScaParameters
from repro.common.errors import ConfigurationError
from repro.escape.ppf import ProbingPatrol
from repro.escape.sca import validate_assignment


def make_patrol(cluster_size=5, leader_id=1, initial_clock=1, **kwargs):
    followers = [sid for sid in range(1, cluster_size + 1) if sid != leader_id]
    return ProbingPatrol(
        leader_id=leader_id,
        followers=followers,
        cluster_size=cluster_size,
        sca=ScaParameters(base_time_ms=1500.0, k_ms=500.0),
        initial_clock=initial_clock,
        **kwargs,
    )


class TestConstruction:
    def test_every_follower_gets_a_unique_configuration(self):
        patrol = make_patrol(cluster_size=5)
        assignments = patrol.assignments
        assert set(assignments) == {2, 3, 4, 5}
        assert sorted(config.priority for config in assignments.values()) == [2, 3, 4, 5]
        validate_assignment(assignments)

    def test_top_priority_gets_base_timeout(self):
        patrol = make_patrol()
        best = patrol.configuration_for(patrol.groomed_future_leader())
        assert best.priority == 5
        assert best.timer_period_ms == 1500.0

    def test_initial_clock_is_respected(self):
        patrol = make_patrol(initial_clock=9)
        assert patrol.conf_clock == 9
        assert all(config.conf_clock == 9 for config in patrol.assignments.values())

    def test_follower_count_must_match_cluster_size(self):
        with pytest.raises(ConfigurationError):
            ProbingPatrol(
                leader_id=1, followers=[2, 3], cluster_size=5, sca=ScaParameters()
            )

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(ConfigurationError):
            make_patrol(lag_entries_threshold=0)
        with pytest.raises(ConfigurationError):
            make_patrol(stale_after_ms=0.0)


class TestResponsivenessTracking:
    def test_record_reply_updates_knowledge(self):
        patrol = make_patrol()
        patrol.record_reply(3, log_index=7, now_ms=100.0)
        record = patrol.responsiveness_of(3)
        assert record.log_index == 7
        assert record.last_reply_ms == 100.0

    def test_log_index_never_regresses(self):
        patrol = make_patrol()
        patrol.record_reply(3, log_index=7, now_ms=100.0)
        patrol.record_reply(3, log_index=5, now_ms=200.0)
        assert patrol.responsiveness_of(3).log_index == 7

    def test_unknown_follower_rejected(self):
        patrol = make_patrol(leader_id=1)
        for call in (
            lambda: patrol.record_reply(1, log_index=1, now_ms=0.0),
            lambda: patrol.is_lagging(1, now_ms=0.0, leader_last_index=0),
            lambda: patrol.responsiveness_of(1),
        ):
            with pytest.raises(ConfigurationError) as error:
                call()
            assert str(error.value) == "S1 is not a tracked follower"

    def test_lagging_classification(self):
        patrol = make_patrol(stale_after_ms=500.0, lag_entries_threshold=2)
        # Never replied -> lagging.
        assert patrol.is_lagging(2, now_ms=0.0, leader_last_index=0)
        patrol.record_reply(2, log_index=10, now_ms=100.0)
        assert not patrol.is_lagging(2, now_ms=200.0, leader_last_index=10)
        # Silent for longer than the staleness window -> lagging.
        assert patrol.is_lagging(2, now_ms=700.0, leader_last_index=10)
        # Log gap at or beyond the threshold -> lagging.
        assert patrol.is_lagging(2, now_ms=200.0, leader_last_index=12)
        assert not patrol.is_lagging(2, now_ms=200.0, leader_last_index=11)


class TestRearrangement:
    def test_responsive_followers_keep_their_priorities(self):
        patrol = make_patrol()
        for follower in (2, 3, 4, 5):
            patrol.record_reply(follower, log_index=5, now_ms=10.0)
        before = {f: c.priority for f, c in patrol.assignments.items()}
        clock_before = patrol.conf_clock
        patrol.advance_round(now_ms=20.0, leader_last_index=5)
        after = {f: c.priority for f, c in patrol.assignments.items()}
        assert before == after
        assert patrol.conf_clock == clock_before  # no rearrangement, no clock bump

    def test_lagging_top_follower_is_demoted(self):
        # This is the Figure 5a scenario: the follower holding the best
        # configuration falls behind, so the configuration moves to an
        # up-to-date follower and the clock advances.
        patrol = make_patrol()
        groomed = patrol.groomed_future_leader()
        for follower in patrol.assignments:
            if follower != groomed:
                patrol.record_reply(follower, log_index=10, now_ms=10.0)
        patrol.record_reply(groomed, log_index=2, now_ms=10.0)  # far behind
        clock_before = patrol.conf_clock
        patrol.advance_round(now_ms=20.0, leader_last_index=10)
        assert patrol.groomed_future_leader() != groomed
        assert patrol.configuration_for(groomed).priority == 2  # sank to the bottom
        assert patrol.conf_clock == clock_before + 1
        assert patrol.rearrangement_count == 1

    def test_silent_follower_is_demoted_after_staleness_window(self):
        # Figure 5b: a crashed follower stops replying; its high-priority
        # configuration is handed to a live server.
        patrol = make_patrol(stale_after_ms=400.0)
        for follower in patrol.assignments:
            patrol.record_reply(follower, log_index=5, now_ms=0.0)
        groomed = patrol.groomed_future_leader()
        # Everyone except the groomed future leader keeps replying.
        for follower in patrol.assignments:
            if follower != groomed:
                patrol.record_reply(follower, log_index=6, now_ms=600.0)
        patrol.advance_round(now_ms=700.0, leader_last_index=6)
        assert patrol.groomed_future_leader() != groomed

    def test_recovered_follower_is_not_instantly_promoted(self):
        # Stability: re-promotions only happen when the ranking changes, so a
        # recovered server re-enters at its demoted position rather than
        # reclaiming the top slot and churning the clock.
        patrol = make_patrol()
        for follower in patrol.assignments:
            patrol.record_reply(follower, log_index=5, now_ms=0.0)
        groomed = patrol.groomed_future_leader()
        patrol.record_reply(groomed, log_index=5, now_ms=0.0)
        # Demote the groomed leader by silencing it for a while.
        for follower in patrol.assignments:
            if follower != groomed:
                patrol.record_reply(follower, log_index=8, now_ms=1_000.0)
        patrol.advance_round(now_ms=1_100.0, leader_last_index=8)
        demoted_priority = patrol.configuration_for(groomed).priority
        # It catches back up ...
        patrol.record_reply(groomed, log_index=8, now_ms=1_200.0)
        patrol.advance_round(now_ms=1_300.0, leader_last_index=8)
        # ... and keeps its (low) priority: no churn.
        assert patrol.configuration_for(groomed).priority == demoted_priority

    def test_clock_advances_monotonically(self):
        patrol = make_patrol()
        clocks = [patrol.conf_clock]
        for round_index in range(5):
            patrol.record_reply(2 + round_index % 4, log_index=round_index, now_ms=round_index * 10.0)
            patrol.advance_round(now_ms=round_index * 10.0, leader_last_index=round_index)
            clocks.append(patrol.conf_clock)
        assert clocks == sorted(clocks)

    def test_assignments_always_satisfy_lemma_three(self):
        patrol = make_patrol(cluster_size=8, leader_id=3)
        for round_index in range(10):
            for follower in list(patrol.assignments):
                if (follower + round_index) % 3 != 0:
                    patrol.record_reply(
                        follower, log_index=round_index, now_ms=round_index * 100.0
                    )
            patrol.advance_round(now_ms=round_index * 100.0, leader_last_index=round_index)
            validate_assignment(patrol.assignments)

    def test_two_server_cluster_has_single_follower_pool(self):
        patrol = make_patrol(cluster_size=2, leader_id=1)
        assert set(patrol.assignments) == {2}
        assert patrol.configuration_for(2).priority == 2
