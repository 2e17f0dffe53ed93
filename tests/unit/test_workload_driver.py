"""Unit tests for the workload driver, measurement records and aggregate."""

import pytest

from repro.cluster.builder import build_cluster
from repro.cluster.harness import ElectionHarness
from repro.cluster.observers import ElectionObserver
from repro.common.errors import ClusterError, SimulationError
from repro.statemachine.kvstore import PutCommand
from repro.workload import WorkloadDriver, WorkloadMeasurement, legacy_interval
from repro.workload.aggregate import WorkloadAggregate
from repro.workload.driver import VALUE_SIZE
from repro.workload.specs import KeyspaceSpec, WorkloadSpec

from helpers import ConstantLatency

FAST_LATENCY = ConstantLatency(5.0)


def stabilized(protocol="raft", size=3, seed=0):
    observer = ElectionObserver()
    cluster = build_cluster(
        protocol=protocol,
        size=size,
        seed=seed,
        latency=FAST_LATENCY,
        listeners=(observer,),
    )
    harness = ElectionHarness(cluster, observer)
    cluster.start_all()
    harness.stabilize()
    return cluster, harness


def drive(spec, seed=0, duration_ms=3_000.0, leader_selector=None, finalize=True):
    cluster, harness = stabilized(seed=seed)
    driver = WorkloadDriver(
        cluster, spec, seed=seed, leader_selector=leader_selector
    )
    driver.start()
    harness.run_for(duration_ms)
    if finalize:
        driver.finalize()
    return driver, cluster, harness


class _RecordingLeader:
    """A stand-in leader that accepts every proposal and records its time."""

    current_term = 1

    def __init__(self, world):
        self._world = world
        self.times = []

    def propose(self, command):
        self.times.append(self._world.now())
        return len(self.times)


class TestFixedIntervalClients:
    def test_replays_the_retired_client_workload_exactly(self):
        # The counters and S1's (index, term, key) log that the retired
        # ClientWorkload loop produced for seed 7 (captured before it was
        # deleted), which keep the fig11/avail golden reports valid; the
        # values are the open-loop driver's padded "<sequence>:" strings.
        cluster, harness = stabilized(seed=7)
        driver = WorkloadDriver(cluster, legacy_interval(100.0), seed=7)
        driver.start()
        harness.run_for(2_000.0)
        driver.stop()

        assert (driver.proposed, driver.rejected, driver.dropped) == (20, 0, 0)
        log = [(e.index, e.term, e.command) for e in cluster.node(1).log]
        assert log == [
            (
                index,
                1,
                PutCommand(
                    key=f"key-{(index - 1) % 16}",
                    value=f"{index - 1}:".ljust(16, "x"),
                ),
            )
            for index in range(1, 20)
        ]

    def test_every_op_resolves(self):
        driver, _, _ = drive(legacy_interval(100.0), duration_ms=1_000.0)
        assert driver.committed > 0
        assert driver.committed + driver.lost == driver.proposed
        assert len(driver.latencies_ms) == driver.committed
        assert driver.pending_count == 0

    def test_proposes_exactly_every_interval(self):
        # 1000 / (1000 / 30) is 29.999999999999996: a gap derived from a
        # rate drifts off the 30 ms grid from the first arrival on.  The
        # cluster is never started, so the schedule begins at 0 ms, where
        # that error is not rounded away as it is at larger clock values.
        cluster = build_cluster(
            protocol="raft", size=3, seed=0, latency=FAST_LATENCY
        )
        leader = _RecordingLeader(cluster.world)
        driver = WorkloadDriver(
            cluster, legacy_interval(30.0), leader_selector=lambda: leader
        )
        start = cluster.world.now()
        driver.start()
        cluster.world.run_for(301.0)
        driver.stop()
        assert leader.times == [start + 30.0 * k for k in range(1, 11)]
        assert driver.proposed == 10


class TestClosedLoop:
    def test_ops_commit_with_positive_latencies(self):
        driver, _, _ = drive("closed-loop", duration_ms=3_000.0, finalize=False)
        assert driver.proposed > 0
        assert driver.committed > 0
        assert all(latency > 0 for latency in driver.latencies_ms)
        driver.finalize()
        # Every proposed op resolved one way: committed or lost.
        assert driver.committed + driver.lost == driver.proposed
        assert driver.pending_count == 0

    def test_healthy_cluster_loses_nothing(self):
        driver, _, _ = drive("closed-loop", duration_ms=3_000.0)
        assert driver.lost == 0
        assert driver.dropped == 0

    def test_finalize_is_idempotent(self):
        driver, _, _ = drive("closed-loop", duration_ms=2_000.0)
        committed = driver.committed
        driver.finalize()
        assert driver.committed == committed


class TestOpenLoop:
    def test_uniform_arrivals_issue_at_the_configured_rate(self):
        spec = WorkloadSpec(
            name="t-uniform", mode="open", arrival="uniform", interval_ms=100.0
        )
        driver, _, _ = drive(spec, duration_ms=3_000.0)
        # One per 100 ms over 3 s of healthy cluster: every arrival proposes.
        assert driver.proposed == 30
        assert driver.committed + driver.lost == driver.proposed

    def test_burst_arrivals_issue_whole_bursts(self):
        spec = WorkloadSpec(
            name="t-burst",
            mode="open",
            arrival="burst",
            burst_size=5,
            burst_interval_ms=1_000.0,
        )
        driver, _, _ = drive(spec, duration_ms=3_100.0)
        assert driver.proposed == 15

    def test_poisson_arrivals_are_seed_deterministic(self):
        first, _, _ = drive("open-poisson", seed=11, duration_ms=3_000.0)
        second, _, _ = drive("open-poisson", seed=11, duration_ms=3_000.0)
        assert first.proposed == second.proposed
        assert first.latencies_ms == second.latencies_ms


class TestKeyAndValueModels:
    def test_round_robin_cycles_the_keyspace(self):
        spec = WorkloadSpec(
            name="t-rr",
            mode="open",
            arrival="uniform",
            interval_ms=100.0,
            keyspace=KeyspaceSpec(keys=4),
        )
        driver, cluster, _ = drive(spec, duration_ms=1_000.0)
        keys = [entry.command.key for entry in cluster.node(1).log]
        assert keys[:4] == ["key-0", "key-1", "key-2", "key-3"]

    def test_hotspot_keys_stay_in_range(self):
        spec = WorkloadSpec(
            name="t-hot",
            mode="open",
            arrival="uniform",
            interval_ms=50.0,
            keyspace=KeyspaceSpec(mode="hotspot", keys=8),
        )
        driver, cluster, _ = drive(spec, duration_ms=2_000.0)
        indexes = {
            int(entry.command.key.removeprefix("key-"))
            for entry in cluster.node(1).log
        }
        assert indexes <= set(range(8))

    def test_every_value_has_the_fixed_size(self):
        spec = WorkloadSpec(
            name="t-val", mode="open", arrival="uniform", interval_ms=100.0
        )
        driver, cluster, _ = drive(spec, duration_ms=1_000.0)
        lengths = {len(entry.command.value) for entry in cluster.node(1).log}
        assert lengths == {VALUE_SIZE}


class TestFailurePaths:
    def test_no_leader_counts_dropped(self):
        spec = WorkloadSpec(
            name="t-drop", mode="open", arrival="uniform", interval_ms=100.0
        )
        driver, _, _ = drive(
            spec, duration_ms=2_000.0, leader_selector=lambda: None
        )
        assert driver.proposed == 0
        assert driver.dropped == 20

    def test_not_leader_exhausts_retries_then_rejects(self):
        spec = WorkloadSpec(
            name="t-retry",
            mode="open",
            arrival="uniform",
            interval_ms=200.0,
            max_retries=2,
        )
        cluster, harness = stabilized()
        leader = cluster.leader()
        follower = next(
            node
            for node in cluster.nodes.values()
            if node.node_id != leader.node_id
        )
        driver = WorkloadDriver(
            cluster, spec, leader_selector=lambda: follower
        )
        driver.start()
        # 10 arrivals at 200 ms gaps; the extra 100 ms lets the last op's
        # retry chain (2 x 50 ms backoff) finish inside the window.
        harness.run_for(2_100.0)
        driver.finalize()
        assert driver.proposed == 0
        assert driver.rejected == 10
        assert driver.retries == 20  # two extra attempts per op

    def test_finalize_counts_unverifiable_pending_ops_as_lost(self):
        driver, _, _ = drive("closed-loop", duration_ms=2_000.0, finalize=False)
        # An op the leader accepted under a term whose entry never survived.
        driver._pending[(999, 99)] = _fake_op()
        proposed_before = driver.proposed
        driver.proposed += 1
        driver.finalize()
        assert driver.lost == 1
        assert driver.proposed == proposed_before + 1

    def test_ground_truth_divergence_raises(self):
        driver, cluster, _ = drive(
            "closed-loop", duration_ms=2_000.0, finalize=False
        )
        for node in cluster.running_nodes():
            node.state_machine.apply(PutCommand(key="rogue", value="x"))
        with pytest.raises(SimulationError, match="ground truth diverged"):
            driver.finalize()


def _fake_op():
    from repro.workload.driver import _Op

    return _Op(10_000, PutCommand(key="ghost", value="v"), None)


class TestWorkloadMeasurement:
    def _measurement(self, **overrides):
        values = dict(
            protocol="raft",
            cluster_size=3,
            seed=0,
            plan="p",
            workload="closed-loop",
            window_ms=10_000.0,
            proposed=50,
            committed=45,
            retries=2,
            dropped=3,
            rejected=1,
            lost=5,
            outage_count=2,
            leaderless_ms=1_000.0,
            latencies_ms=(250.0, 300.0),
        )
        values.update(overrides)
        return WorkloadMeasurement(**values)

    def test_ops_per_s_and_issued(self):
        measurement = self._measurement()
        assert measurement.ops_per_s == pytest.approx(4.5)
        assert measurement.issued == 54

    def test_non_positive_window_rejected(self):
        with pytest.raises(ClusterError, match="window"):
            self._measurement(window_ms=0.0)

    def test_losing_more_than_proposed_rejected(self):
        with pytest.raises(ClusterError, match="cannot lose"):
            self._measurement(lost=51)


class TestWorkloadAggregate:
    def _measurement(self, **overrides):
        return TestWorkloadMeasurement()._measurement(**overrides)

    def test_add_matches_from_measurements(self):
        samples = [
            self._measurement(),
            self._measurement(committed=90, latencies_ms=(100.0, 900.0)),
        ]
        incremental = WorkloadAggregate(label="x")
        for sample in samples:
            incremental.add(sample)
        assert incremental == WorkloadAggregate.from_measurements(samples, "x")
        assert len(incremental) == 2

    def test_merge_equals_single_pass(self):
        samples = [
            self._measurement(seed=s, committed=40 + s) for s in range(4)
        ]
        left = WorkloadAggregate.from_measurements(samples[:2], "x")
        right = WorkloadAggregate.from_measurements(samples[2:], "x")
        left.merge(right)
        assert left == WorkloadAggregate.from_measurements(samples, "x")

    def test_merge_label_mismatch_rejected(self):
        left = WorkloadAggregate(label="a")
        with pytest.raises(ClusterError, match="cannot merge"):
            left.merge(WorkloadAggregate(label="b"))

    def test_queries(self):
        aggregate = WorkloadAggregate.from_measurements(
            [self._measurement()], "x"
        )
        assert aggregate.ops_per_s() == pytest.approx(4.5)
        assert aggregate.p50_ms() == pytest.approx(250.0, abs=51.0)
        assert aggregate.dropped_per_run() == 3.0
        assert aggregate.lost_per_failover() == 2.5
        assert aggregate.outages_per_run() == 2.0
        # 1 s of 10 s leaderless: the dip equals the leaderless fraction.
        assert aggregate.election_dip_percent() == pytest.approx(10.0)

    def test_no_outages_means_zero_loss_rate(self):
        aggregate = WorkloadAggregate.from_measurements(
            [self._measurement(outage_count=0, lost=0, leaderless_ms=0.0)], "x"
        )
        assert aggregate.lost_per_failover() == 0.0
        assert aggregate.election_dip_percent() == 0.0

    def test_empty_aggregate_refuses_rates(self):
        with pytest.raises(ClusterError, match="no runs"):
            WorkloadAggregate(label="x").ops_per_s()

    def test_state_round_trip(self):
        aggregate = WorkloadAggregate.from_measurements(
            [self._measurement(), self._measurement(committed=90)], "x"
        )
        assert WorkloadAggregate.from_state(aggregate.to_state()) == aggregate
