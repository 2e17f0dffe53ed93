"""Integration tests: behaviour under broadcast message loss (Section VI-D)."""

import pytest

from repro.cluster import ElectionScenario
from repro.metrics.records import MeasurementSet
from repro.net.faults import BroadcastOmissionFault
from repro.workload import WorkloadDriver, legacy_interval

from helpers import LIVE_PROTOCOLS

RUNS = 5

#: Enough runs for the Figure 11 ordering at 40 % loss, s=10: at 300 runs a
#: side ESCAPE's mean is 2,629 ms against Raft's 3,303 (SDs 918 / 1,730), so
#: 80 runs put the gap about three standard errors clear of zero.
HEAVY_LOSS_RUNS = 80


class TestLiveness:
    @pytest.mark.parametrize("protocol", LIVE_PROTOCOLS)
    @pytest.mark.parametrize("loss", [0.2, 0.4])
    def test_every_protocol_still_elects_a_leader_under_loss(self, protocol, loss):
        scenario = ElectionScenario(
            protocol=protocol,
            cluster_size=10,
            fault=BroadcastOmissionFault(loss),
            workload_interval_ms=250.0,
        )
        measurement = scenario.run(seed=17)
        assert measurement.converged

    @pytest.mark.parametrize("protocol", LIVE_PROTOCOLS)
    def test_replication_continues_under_loss(self, protocol):
        scenario = ElectionScenario(
            protocol=protocol,
            cluster_size=5,
            fault=BroadcastOmissionFault(0.2),
            workload_interval_ms=100.0,
        )
        cluster, harness = scenario.build(seed=4)
        cluster.start_all()
        harness.stabilize()
        workload = WorkloadDriver(cluster, legacy_interval(100.0), seed=4)
        workload.start()
        harness.run_for(3_000.0)
        workload.stop()
        leader = cluster.leader()
        assert leader.commit_index > 10
        assert harness.committed_prefixes_consistent()


class TestPaperOrdering:
    def test_escape_beats_raft_under_heavy_loss(self):
        # Figure 11: the gap between ESCAPE and Raft widens with the loss rate.
        raft = MeasurementSet(
            ElectionScenario(
                protocol="raft",
                cluster_size=10,
                fault=BroadcastOmissionFault(0.4),
                workload_interval_ms=250.0,
            ).run_many(HEAVY_LOSS_RUNS, base_seed=29)
        )
        escape = MeasurementSet(
            ElectionScenario(
                protocol="escape",
                cluster_size=10,
                fault=BroadcastOmissionFault(0.4),
                workload_interval_ms=250.0,
            ).run_many(HEAVY_LOSS_RUNS, base_seed=29)
        )
        assert escape.mean_total_ms() < raft.mean_total_ms()

    def test_raft_split_votes_increase_with_loss(self):
        low_loss = MeasurementSet(
            ElectionScenario(protocol="raft", cluster_size=10).run_many(
                RUNS, base_seed=31
            )
        )
        high_loss = MeasurementSet(
            ElectionScenario(
                protocol="raft",
                cluster_size=10,
                fault=BroadcastOmissionFault(0.4),
                workload_interval_ms=250.0,
            ).run_many(RUNS, base_seed=31)
        )
        assert high_loss.split_vote_fraction() >= low_loss.split_vote_fraction()

    def test_loss_increases_election_time_for_every_protocol(self):
        for protocol in ("raft", "escape"):
            healthy = MeasurementSet(
                ElectionScenario(protocol=protocol, cluster_size=10).run_many(
                    RUNS, base_seed=37
                )
            )
            lossy = MeasurementSet(
                ElectionScenario(
                    protocol=protocol,
                    cluster_size=10,
                    fault=BroadcastOmissionFault(0.4),
                    workload_interval_ms=250.0,
                ).run_many(RUNS, base_seed=37)
            )
            assert lossy.mean_total_ms() >= healthy.mean_total_ms() * 0.95
