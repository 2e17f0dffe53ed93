"""Property-based tests for SCA and the Probing Patrol Function."""

from helpers import FakeEnvironment, fast_protocol_config, small_cluster
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import ScaParameters
from repro.escape.configuration import Configuration
from repro.escape.messages import EscapeAppendEntriesRequest
from repro.escape.node import EscapeNode
from repro.escape.ppf import ProbingPatrol
from repro.escape.sca import assign_initial_configurations, follower_priority_ladder
from repro.escape.sca import validate_assignment
from repro.zraft.node import ZRaftNode


class TestScaProperties:
    @given(
        n=st.integers(min_value=1, max_value=128),
        base=st.floats(min_value=10.0, max_value=5_000.0),
        k=st.floats(min_value=1.0, max_value=1_000.0),
    )
    def test_initial_assignment_is_unique_and_ordered(self, n, base, k):
        params = ScaParameters(base_time_ms=base, k_ms=k)
        configs = assign_initial_configurations(list(range(1, n + 1)), params)
        validate_assignment(configs)
        # Priorities are exactly 1..n and timeouts strictly decrease with priority.
        assert sorted(c.priority for c in configs.values()) == list(range(1, n + 1))
        by_priority = sorted(configs.values(), key=lambda c: c.priority)
        timeouts = [c.timer_period_ms for c in by_priority]
        assert all(earlier > later for earlier, later in zip(timeouts, timeouts[1:]))
        assert min(timeouts) == base

    @given(n=st.integers(min_value=2, max_value=128))
    def test_priority_ladder_is_a_permutation_of_2_to_n(self, n):
        ladder = follower_priority_ladder(n)
        assert sorted(ladder) == list(range(2, n + 1))


@st.composite
def reply_schedules(draw):
    """A random sequence of (follower, log_index, time) reply observations."""
    cluster_size = draw(st.integers(min_value=3, max_value=12))
    leader = draw(st.integers(min_value=1, max_value=cluster_size))
    followers = [sid for sid in range(1, cluster_size + 1) if sid != leader]
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(followers),
                st.integers(min_value=0, max_value=50),
                st.floats(min_value=0.0, max_value=10_000.0),
            ),
            max_size=60,
        )
    )
    return cluster_size, leader, followers, sorted(events, key=lambda item: item[2])


class TestPpfProperties:
    @given(reply_schedules())
    @settings(max_examples=50, deadline=None)
    def test_assignments_always_unique_and_clock_monotone(self, schedule):
        cluster_size, leader, followers, events = schedule
        patrol = ProbingPatrol(
            leader_id=leader,
            followers=followers,
            cluster_size=cluster_size,
            sca=ScaParameters(1500.0, 500.0),
            initial_clock=1,
        )
        last_clock = patrol.conf_clock
        leader_last_index = 0
        now = 0.0
        for follower, log_index, time_ms in events:
            now = max(now, time_ms)
            leader_last_index = max(leader_last_index, log_index)
            patrol.record_reply(follower, log_index=log_index, now_ms=time_ms)
            patrol.advance_round(now_ms=now, leader_last_index=leader_last_index)
            # Lemma 3: no duplicate priorities within one clock.
            validate_assignment(patrol.assignments)
            priorities = sorted(c.priority for c in patrol.assignments.values())
            assert priorities == list(range(2, cluster_size + 1))
            # Clocks never move backwards.
            assert patrol.conf_clock >= last_clock
            last_clock = patrol.conf_clock

    @given(reply_schedules())
    @settings(max_examples=50, deadline=None)
    def test_groomed_future_leader_is_never_a_known_laggard(self, schedule):
        cluster_size, leader, followers, events = schedule
        patrol = ProbingPatrol(
            leader_id=leader,
            followers=followers,
            cluster_size=cluster_size,
            sca=ScaParameters(1500.0, 500.0),
        )
        leader_last_index = 0
        now = 0.0
        for follower, log_index, time_ms in events:
            now = max(now, time_ms)
            leader_last_index = max(leader_last_index, log_index)
            patrol.record_reply(follower, log_index=log_index, now_ms=time_ms)
            patrol.advance_round(now_ms=now, leader_last_index=leader_last_index)
            groomed = patrol.groomed_future_leader()
            up_to_date = [
                candidate
                for candidate in followers
                if not patrol.is_lagging(candidate, now, leader_last_index)
            ]
            # If any follower is currently considered up to date, the groomed
            # future leader must be one of them.
            if up_to_date:
                assert groomed in up_to_date

    @given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=20))
    def test_idle_rounds_never_advance_the_clock(self, cluster_size, rounds):
        followers = list(range(2, cluster_size + 1))
        patrol = ProbingPatrol(
            leader_id=1,
            followers=followers,
            cluster_size=cluster_size,
            sca=ScaParameters(1500.0, 500.0),
        )
        for follower in followers:
            patrol.record_reply(follower, log_index=1, now_ms=0.0)
        patrol.advance_round(now_ms=1.0, leader_last_index=1)
        clock = patrol.conf_clock
        for round_index in range(rounds):
            for follower in followers:
                patrol.record_reply(follower, log_index=1, now_ms=round_index + 2.0)
            patrol.advance_round(now_ms=round_index + 2.0, leader_last_index=1)
        assert patrol.conf_clock == clock


@st.composite
def heartbeat_schedules(draw):
    """Heartbeat rounds in which a random subset of followers replies."""
    cluster_size = draw(st.integers(min_value=3, max_value=10))
    followers = list(range(2, cluster_size + 1))
    rounds = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=400.0),  # time since the last round
                st.integers(min_value=0, max_value=2),  # entries the leader appended
                st.lists(  # who replied, and how far behind the leader's tail
                    st.tuples(st.sampled_from(followers), st.integers(0, 3)),
                    max_size=cluster_size,
                ),
            ),
            max_size=40,
        )
    )
    return cluster_size, followers, rounds


class TestPpfEarlyReturn:
    @given(heartbeat_schedules())
    @settings(max_examples=100, deadline=None)
    def test_skipping_the_ranking_never_changes_the_outcome(self, schedule):
        cluster_size, followers, rounds = schedule

        def make():
            return ProbingPatrol(1, followers, cluster_size, ScaParameters(1500.0, 500.0))

        patrol, always_ranking = make(), make()
        now, leader_last_index = 0.0, 0
        for elapsed, appended, replies in rounds:
            now += elapsed
            leader_last_index += appended
            for follower, behind in replies:
                for each in (patrol, always_ranking):
                    each.record_reply(follower, max(0, leader_last_index - behind), now)
            always_ranking._settled_verdicts = None  # forget: rank every round
            for each in (patrol, always_ranking):
                each.advance_round(now, leader_last_index)
            assert patrol.assignments == always_ranking.assignments
            assert patrol.conf_clock == always_ranking.conf_clock
            assert patrol.rearrangement_count == always_ranking.rearrangement_count


# A follower's life: heartbeats (each maybe carrying a configuration, with a
# clock that may be older than the held one) and election timeouts firing.
FOLLOWER_STEPS = st.lists(
    st.one_of(
        st.just("timeout"),
        st.none(),
        st.builds(
            Configuration,
            priority=st.integers(min_value=1, max_value=5),
            timer_period_ms=st.sampled_from([100.0, 140.0, 180.0, 2_000.0]),
            conf_clock=st.integers(min_value=0, max_value=4),
        ),
    ),
    max_size=25,
)


class TestEscapeTimeoutFollowsTheHeldConfiguration:
    @given(
        node_class=st.sampled_from([EscapeNode, ZRaftNode]),
        script=st.lists(st.sampled_from([30.0, 60.0]), max_size=2),
        steps=FOLLOWER_STEPS,
    )
    @settings(max_examples=150, deadline=None)
    def test_the_very_next_reset_waits_the_adopted_configuration_s_timeout(
        self, node_class, script, steps
    ):
        env = FakeEnvironment(node_id=2)
        node = node_class(
            node_id=2,
            cluster=small_cluster(5),
            env=env,
            protocol_config=fast_protocol_config(),
            timeout_script=tuple(script),
        )
        held = node.configuration
        waits_since_leader = 0
        node.start()
        for step in steps:
            if step == "timeout":
                env.fire_next_timer("S2:election-timeout")
                waits_since_leader += 1
            else:
                node.on_message(
                    1,
                    EscapeAppendEntriesRequest(
                        term=node.current_term, leader_id=1, new_config=step
                    ),
                )
                waits_since_leader = 0
                # Z-Raft never adopts; ESCAPE adopts a changed configuration
                # whose clock is not older than the held one's.
                if (
                    node_class is EscapeNode
                    and step is not None
                    and step.conf_clock >= held.conf_clock
                    and step != held
                ):
                    held = step
            assert node.configuration == held
            (timer,) = [
                timer
                for timer in env.pending_timers()
                if timer.label == "S2:election-timeout"
            ]
            expected = (
                script[waits_since_leader]
                if waits_since_leader < len(script)
                else held.timer_period_ms
            )
            assert timer.delay_ms == expected
