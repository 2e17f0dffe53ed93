"""Integration tests pinning the paper's headline claims (Section VI).

These tests use fewer runs and smaller scales than the paper's 1000-run
sweeps, so they assert the *shape* of each result -- who wins, direction of
trends, hard bounds ESCAPE is claimed to satisfy -- rather than exact numbers.
EXPERIMENTS.md records the quantitative side-by-side comparison.
"""

import pytest

from repro.analysis.theory import escape_expected_detection_ms, raft_expected_detection_ms
from repro.cluster import ElectionScenario
from repro.experiments import adapter_redis, fig03_randomization, run_experiment
from repro.metrics.records import MeasurementSet
from repro.metrics.stats import reduction_percent
from repro.net.faults import BroadcastOmissionFault

RUNS = 6
SIZES = (8, 16, 32)


def measure(protocol, size, runs=RUNS, seed=101, **kwargs):
    scenario = ElectionScenario(protocol=protocol, cluster_size=size, **kwargs)
    return MeasurementSet(scenario.run_many(runs, base_seed=seed), label=f"{protocol}@{size}")


class TestSectionVIB:
    """Figure 9: election time under leader failures at increasing scales."""

    @pytest.mark.parametrize("size", SIZES)
    def test_escape_elections_complete_within_two_seconds(self, size):
        # "In ESCAPE, all the election campaigns were completed within 2000 ms"
        measurements = measure("escape", size)
        assert measurements.convergence_fraction() == 1.0
        assert measurements.total_summary().maximum < 2_000.0

    @pytest.mark.parametrize("size", SIZES)
    def test_escape_never_splits_votes(self, size):
        # "... with no occurrence of split votes."
        assert measure("escape", size).split_vote_fraction() == 0.0

    def test_escape_reduction_grows_with_cluster_size(self):
        # "ESCAPE shortens the leader election time by 11.6% and 21.3% at
        # sizes of 8 and 128 servers" -- the reduction grows with scale.
        # At 300 runs a side the reductions read 466 and 1,568 ms (Raft SDs
        # 726 / 1,948 ms); 30 runs keep each bound about three standard
        # errors clear.
        small_raft = measure("raft", 8, runs=30)
        small_escape = measure("escape", 8, runs=30)
        large_raft = measure("raft", 128, runs=30)
        large_escape = measure("escape", 128, runs=30)
        small_reduction = small_raft.mean_total_ms() - small_escape.mean_total_ms()
        large_reduction = large_raft.mean_total_ms() - large_escape.mean_total_ms()
        assert small_reduction > 0
        assert large_reduction > 0
        assert large_reduction >= small_reduction * 0.8  # monotone up to noise

    def test_raft_split_votes_grow_with_cluster_size(self):
        small = measure("raft", 8, runs=8, seed=55)
        large = measure("raft", 32, runs=8, seed=55)
        assert large.split_vote_fraction() >= small.split_vote_fraction()


class TestSectionVIC:
    """Figure 10: competing-candidate phases."""

    def test_raft_election_time_grows_roughly_linearly_with_phases(self):
        times = []
        for phases in (0, 1, 2):
            measurements = MeasurementSet(
                ElectionScenario(
                    protocol="raft", cluster_size=8, contention_phases=phases
                ).run_many(4, base_seed=71)
            )
            times.append(measurements.mean_total_ms())
        assert times[1] > times[0] + 1_000.0
        assert times[2] > times[1] + 1_000.0

    def test_escape_is_flat_in_the_number_of_phases(self):
        times = []
        for phases in (0, 1, 2, 3):
            measurements = MeasurementSet(
                ElectionScenario(
                    protocol="escape", cluster_size=8, contention_phases=phases
                ).run_many(4, base_seed=71)
            )
            assert measurements.split_vote_fraction() == 0.0
            times.append(measurements.mean_total_ms())
        assert max(times) - min(times) < 1_500.0
        assert max(times) < 3_500.0

    def test_escape_wins_by_a_growing_factor_under_contention(self):
        raft = MeasurementSet(
            ElectionScenario(
                protocol="raft", cluster_size=8, contention_phases=3
            ).run_many(4, base_seed=77)
        )
        escape = MeasurementSet(
            ElectionScenario(
                protocol="escape", cluster_size=8, contention_phases=3
            ).run_many(4, base_seed=77)
        )
        # Paper: ~6.5 s vs < 2 s at three phases (a ~70 % reduction); we only
        # require a clear factor-of-two separation here.
        assert raft.mean_total_ms() > 2.0 * escape.mean_total_ms()


class TestSectionVID:
    """Figure 11: message loss."""

    def test_ordering_raft_worst_escape_best_under_heavy_loss(self):
        results = {}
        splits = {}
        for protocol in ("raft", "zraft", "escape"):
            measurements = MeasurementSet(
                ElectionScenario(
                    protocol=protocol,
                    cluster_size=10,
                    fault=BroadcastOmissionFault(0.4),
                    workload_interval_ms=250.0,
                ).run_many(8, base_seed=83)
            )
            results[protocol] = measurements.mean_total_ms()
            splits[protocol] = measurements.split_vote_fraction()
        # ESCAPE clearly beats Raft; Z-Raft sits in between up to small-sample
        # noise (at 10 servers the paper's own gap is only ~14 %).
        assert results["escape"] < results["raft"]
        assert results["zraft"] < results["raft"] * 1.3
        # The prioritized protocols avoid same-term competition even under
        # heavy loss, while Raft splits votes frequently.
        assert splits["raft"] > 0.0
        assert splits["zraft"] == 0.0

    def test_election_time_grows_with_loss_rate_for_raft(self):
        means = []
        for loss in (0.0, 0.2, 0.4):
            means.append(
                MeasurementSet(
                    ElectionScenario(
                        protocol="raft",
                        cluster_size=10,
                        fault=BroadcastOmissionFault(loss) if loss else None,
                        workload_interval_ms=250.0 if loss else 0.0,
                    ).run_many(6, base_seed=89)
                ).mean_total_ms()
            )
        assert means[2] > means[0]


class TestRegisteredSweepShapes:
    """The shape every registered sweep's report must have, at quick sizes.

    These were the assertions of the per-figure benchmark suite (paper-shape
    checks, never timings); they run through ``run_experiment`` so they also
    pin the declarations end to end.  Margins allow one stray run of slack
    so a reduced-run sample cannot fail by chance.
    """

    RUNS = 10

    def sweep(self, name, seed, **overrides):
        return run_experiment(name, runs=self.RUNS, seed=seed, **overrides).result

    def test_wide_timeout_randomness_removes_the_slow_election_tail(self):
        # Section III / Figure 3: with little randomness a visible fraction
        # of elections drags past 3.5 s; wide randomization removes it.
        ranges = fig03_randomization.PAPER_TIMEOUT_RANGES[:4]
        result = self.sweep("fig3", 0, timeout_ranges=ranges)
        narrow, wide = (
            fig03_randomization.slow_fraction(result.cell(timeout_range=timeout_range))
            for timeout_range in (ranges[0], ranges[-1])
        )
        assert wide <= narrow + 0.2

    def test_detection_grows_with_timeout_randomness(self):
        # Figure 4: the cost side of the trade-off.
        ranges = fig03_randomization.PAPER_TIMEOUT_RANGES[:4]
        result = self.sweep("fig4", 1, timeout_ranges=ranges)
        detections = [cell.mean_detection_ms() for cell in result.by_label.values()]
        assert all(b >= a - 100.0 for a, b in zip(detections, detections[1:]))

    def test_heavy_loss_costs_raft_more_than_escape(self):
        # Figure 11: the loss penalty hits Raft harder than ESCAPE.
        result = self.sweep("fig11", 4, quick=True)

        def penalty(protocol):
            return (
                result.cell(protocol=protocol, size=10, loss_rate=0.4).mean_total_ms()
                - result.cell(protocol=protocol, size=10, loss_rate=0.0).mean_total_ms()
            )

        assert 0.0 < penalty("raft") and penalty("escape") < penalty("raft")

    def test_escape_splits_votes_no_more_than_raft_across_wan_splits(self):
        # Section II-B: split votes are what priority-driven elections avoid.
        result = self.sweep("wan", 11, quick=True)
        assert all(m.converged for cell in result.by_label.values() for m in cell)
        raft, escape = (
            sum(
                result.cell(protocol=protocol, condition=condition).split_vote_fraction()
                for condition in result.axes["condition"]
            )
            for protocol in ("raft", "escape")
        )
        assert escape <= raft + 1.0 / self.RUNS

    def test_escape_is_leaderless_no_longer_than_raft(self):
        # The end-to-end quantity faster elections are supposed to buy.
        result = self.sweep("avail", 13, quick=True)
        raft, escape = (
            result.cell(protocol=protocol).mean_unavailability()
            for protocol in ("raft", "escape")
        )
        assert escape <= raft + 1.0 / self.RUNS

    @pytest.mark.parametrize("k_ms", [50.0, 200.0, 500.0, 1000.0])
    def test_a_generous_priority_gap_needs_one_campaign(self, k_ms):
        # Eq. 1: with k >= 2x latency (here >= 400 ms) elections finish in a
        # single campaign; a tight k costs campaigns but still converges.
        cell = self.sweep("ablation-k", 6, k_values=(k_ms,)).cell(k_ms=k_ms)
        assert cell.convergence_fraction() == 1.0
        if k_ms >= 400.0:
            assert cell.mean_campaigns() <= 1.5

    def test_the_patrol_never_hurts_and_is_idle_without_faults(self):
        # The PPF ablation: Z-Raft (SCA alone) against ESCAPE.
        result = self.sweep("ablation-ppf", 5, protocols=("zraft", "escape"))
        zraft, escape = (
            result.cell(protocol=protocol, loss_rate=0.0).mean_total_ms()
            for protocol in ("zraft", "escape")
        )
        assert abs(reduction_percent(zraft, escape)) < 35.0
        escape, zraft = (
            result.cell(protocol=protocol, loss_rate=0.4).mean_total_ms()
            for protocol in ("escape", "zraft")
        )
        assert escape < zraft * 1.3

    def test_the_groomed_redis_failover_never_collides_or_loses(self):
        # Section IV-C: the advantage grows as rank information degrades.
        result = run_experiment("adapter-redis", runs=200, seed=7).result
        levels = result.axes["confusion"]
        reductions = [
            adapter_redis.escape_reduction(result, confusion) for confusion in levels
        ]
        for confusion, reduction in zip(levels, reductions):
            groomed = result.cell(confusion=confusion, variant="escape-redis")
            assert groomed.collision_rate() == 0.0
            assert reduction >= 0.0
        assert reductions[-1] >= reductions[0] - 5.0


class TestAnalyticalCrossCheck:
    """The simulator's averages track the closed-form detection models."""

    def test_raft_detection_matches_order_statistics_model(self):
        measurements = measure("raft", 16, runs=8, seed=91)
        predicted = raft_expected_detection_ms(
            1_500.0, 3_000.0, followers=15, heartbeat_interval_ms=150.0
        )
        assert measurements.mean_detection_ms() == pytest.approx(predicted, rel=0.25)

    def test_escape_detection_matches_base_time_model(self):
        measurements = measure("escape", 16, runs=8, seed=91)
        predicted = escape_expected_detection_ms(1_500.0, heartbeat_interval_ms=150.0)
        assert measurements.mean_detection_ms() == pytest.approx(predicted, rel=0.15)
