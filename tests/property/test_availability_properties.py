"""Property-based tests for the availability timeline and interval algebra.

The chaos subsystem's headline number -- the leaderless fraction of a
measured window -- is only meaningful if the interval decomposition is sound.
These properties pin it for *arbitrary* crash/recover/election sequences
(modelled as arbitrary availability flips at non-decreasing times, which is
exactly what the observer feeds the timeline): the available and leaderless
intervals are each ordered and non-overlapping, together they tile the
measured horizon exactly, and the leaderless fraction stays in ``[0, 1]``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.chaos.availability import AvailabilityTimeline, quorum_leader
from repro.cluster.builder import build_cluster
from repro.common.errors import SimulationError
from repro.raft.listeners import NodeListenerBase
from repro.raft.state import Role

# An arbitrary fault history: the window's starting state, then a sequence of
# (time delta, observed availability) observations.  Deltas of zero exercise
# the same-instant collapse; repeated states exercise the no-op path.
TRANSITIONS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
        st.booleans(),
    ),
    max_size=60,
)


def _build_timeline(initial, transitions, start_ms=1_000.0):
    timeline = AvailabilityTimeline(start_ms, initial)
    now = start_ms
    for delta, available in transitions:
        now += delta
        timeline.record(now, available)
    return timeline, now


class TestAvailabilityIntervalProperties:
    @given(st.booleans(), TRANSITIONS, st.floats(min_value=0.0, max_value=10_000.0))
    def test_intervals_tile_the_window_exactly(self, initial, transitions, tail):
        timeline, last = _build_timeline(initial, transitions)
        end = last + tail
        report = timeline.finalize(end)

        merged = sorted(
            [*report.available_intervals, *report.leaderless_intervals]
        )
        # Every interval is forward; consecutive intervals meet exactly
        # (ordered, non-overlapping, gap-free), and the union spans the
        # window -- no time is counted twice and none is lost.
        for start, stop in merged:
            assert start < stop
        for (_, prev_end), (next_start, _) in zip(merged, merged[1:]):
            assert prev_end == next_start
        if merged:
            assert merged[0][0] == report.start_ms
            assert merged[-1][1] == report.end_ms
        else:
            assert report.start_ms == report.end_ms

    @given(st.booleans(), TRANSITIONS, st.floats(min_value=0.0, max_value=10_000.0))
    def test_leaderless_fraction_is_a_fraction(self, initial, transitions, tail):
        timeline, last = _build_timeline(initial, transitions)
        report = timeline.finalize(last + tail)
        assert 0.0 <= report.unavailability <= 1.0
        assert 0.0 <= report.availability <= 1.0
        assert report.unavailability + report.availability == pytest.approx(1.0)

    @given(st.booleans(), TRANSITIONS)
    def test_each_interval_list_is_ordered_and_disjoint(self, initial, transitions):
        timeline, last = _build_timeline(initial, transitions)
        report = timeline.finalize(last + 500.0)
        for intervals in (report.available_intervals, report.leaderless_intervals):
            for (_, prev_end), (next_start, _) in zip(intervals, intervals[1:]):
                assert prev_end <= next_start

    @given(st.booleans(), TRANSITIONS)
    def test_recovery_latencies_match_the_leaderless_intervals(
        self, initial, transitions
    ):
        timeline, last = _build_timeline(initial, transitions)
        report = timeline.finalize(last + 500.0)
        latencies = report.recovery_latencies_ms()
        assert len(latencies) == len(report.leaderless_intervals)
        assert all(latency > 0.0 for latency in latencies)
        assert sum(latencies) == report.leaderless_ms

    @given(st.booleans(), TRANSITIONS)
    def test_durations_add_up(self, initial, transitions):
        timeline, last = _build_timeline(initial, transitions)
        report = timeline.finalize(last + 250.0)
        assert report.available_ms + report.leaderless_ms == pytest.approx(
            report.duration_ms
        )


class TestTimelineEdgeCases:
    def test_time_cannot_run_backwards(self):
        timeline = AvailabilityTimeline(100.0, True)
        timeline.record(200.0, False)
        with pytest.raises(SimulationError, match="precedes"):
            timeline.record(150.0, True)

    def test_finalize_cannot_precede_the_last_transition(self):
        timeline = AvailabilityTimeline(100.0, True)
        timeline.record(300.0, False)
        with pytest.raises(SimulationError, match="precedes"):
            timeline.finalize(200.0)

    def test_same_instant_flip_collapses_the_zero_length_segment(self):
        timeline = AvailabilityTimeline(0.0, True)
        timeline.record(100.0, False)
        timeline.record(100.0, True)  # flipped back in the same instant
        report = timeline.finalize(200.0)
        assert report.leaderless_intervals == ()
        assert report.available_intervals == ((0.0, 200.0),)

    def test_empty_window_has_no_intervals(self):
        timeline = AvailabilityTimeline(50.0, False)
        report = timeline.finalize(50.0)
        assert report.available_intervals == ()
        assert report.leaderless_intervals == ()
        assert report.unavailability == 0.0


# ---------------------------------------------------------------------- #
# quorum_leader: the leader tracker against a scan of every node
# ---------------------------------------------------------------------- #
def scanned_quorum_leader(cluster):
    """The highest-term running leader whose cell holds a running quorum,
    found by asking every node (the tracker-free reference)."""
    quorum = cluster.config.quorum_size
    partitions = cluster.network.partitions
    capable = []
    for node in cluster.running_nodes():
        if node.role is not Role.LEADER:
            continue
        cell = partitions.cell_members(node.node_id)
        if sum(1 for member in cell if cluster.node(member).is_running) >= quorum:
            capable.append(node)
    return max(capable, key=lambda node: node.current_term) if capable else None


class _AgreementCheck(NodeListenerBase):
    """Compares the two answers wherever the availability observer asks."""

    def __init__(self):
        self.cluster = None
        self.checks = 0

    def check(self):
        if self.cluster is not None:
            assert quorum_leader(self.cluster) is scanned_quorum_leader(self.cluster)
            self.checks += 1

    def on_role_change(self, node_id, old_role, new_role, term, time_ms):
        self.check()

    def on_leader_elected(self, leader_id, term, votes, time_ms):
        self.check()


CLUSTER_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.floats(min_value=10.0, max_value=4_000.0)),
        st.tuples(st.just("crash"), st.integers(min_value=0, max_value=99)),
        st.tuples(st.just("recover"), st.integers(min_value=0, max_value=99)),
        st.tuples(
            st.just("partition"),
            st.lists(st.integers(min_value=0, max_value=2), min_size=7, max_size=7),
        ),
        st.tuples(st.just("heal"), st.none()),
    ),
    max_size=20,
)


class TestQuorumLeaderAgreesWithTheScan:
    @given(
        protocol=st.sampled_from(["raft", "escape"]),
        size=st.integers(min_value=3, max_value=7),
        seed=st.integers(min_value=0, max_value=2**16),
        operations=CLUSTER_OPERATIONS,
    )
    @settings(max_examples=40, deadline=None)
    def test_under_crash_recover_partition_and_heal(
        self, protocol, size, seed, operations
    ):
        checker = _AgreementCheck()
        cluster = build_cluster(protocol, size, seed=seed, listeners=(checker,), trace=False)
        checker.cluster = cluster
        cluster.start_all()
        cluster.world.run_for(4_000.0)
        for operation, argument in operations:
            if operation == "run":
                cluster.world.run_for(argument)
            elif operation == "crash":
                running = sorted(set(cluster.nodes) - cluster.crashed)
                if running:
                    cluster.crash(running[argument % len(running)])
            elif operation == "recover":
                crashed = sorted(cluster.crashed)
                if crashed:
                    cluster.recover(crashed[argument % len(crashed)])
            elif operation == "partition":
                cells = {}
                for server_id, cell in zip(sorted(cluster.nodes), argument):
                    cells.setdefault(cell, []).append(server_id)
                cluster.network.partitions.partition(*cells.values())
            else:
                cluster.network.partitions.heal()
            checker.check()
        assert checker.checks > len(operations)
