"""Unit tests for measurement records, statistics and table rendering."""

import pytest

from repro.common.errors import ClusterError
from repro.metrics.records import (
    AvailabilityMeasurement,
    AvailabilitySet,
    ElectionMeasurement,
    MeasurementSet,
)
from repro.metrics.stats import (
    fraction_at_or_below,
    percentile,
    reduction_percent,
    summarize,
)
from repro.metrics.tables import render_table


def measurement(total=2000.0, converged=True, split=False, protocol="raft", **kwargs):
    detection = kwargs.pop("detection", total * 0.8)
    return ElectionMeasurement(
        protocol=protocol,
        cluster_size=kwargs.pop("cluster_size", 8),
        seed=kwargs.pop("seed", 0),
        converged=converged,
        crash_time_ms=1_000.0,
        detection_ms=detection,
        election_ms=total - detection,
        total_ms=total,
        campaign_count=kwargs.pop("campaigns", 1),
        split_vote=split,
        winner_id=2 if converged else None,
        winner_term=5 if converged else None,
        **kwargs,
    )


class TestElectionMeasurement:
    def test_converged_measurement_requires_winner(self):
        with pytest.raises(ClusterError):
            ElectionMeasurement(
                protocol="raft",
                cluster_size=3,
                seed=0,
                converged=True,
                crash_time_ms=0.0,
                detection_ms=1.0,
                election_ms=1.0,
                total_ms=2.0,
                campaign_count=1,
                split_vote=False,
                winner_id=None,
                winner_term=None,
            )

    def test_extra_mapping_is_mutable(self):
        m = measurement()
        m.extra["note"] = "x"
        assert m.extra["note"] == "x"


class TestMeasurementSet:
    def test_totals_only_include_converged_runs(self):
        measurements = MeasurementSet(
            [measurement(2000.0), measurement(3000.0, converged=False), measurement(4000.0)]
        )
        assert measurements.values(lambda m: m.total_ms) == [2000.0, 4000.0]
        assert measurements.mean_total_ms() == 3000.0
        assert len(measurements.converged) == 2

    def test_mean_total_is_the_summarys_mean_bit_for_bit(self):
        """Regression: the batch mean summed in insertion order, the summary
        (and the streaming aggregate) in sorted order -- one ulp apart here."""
        totals = (0.3, 1.1, 0.1)
        assert sum(totals) / 3 != sum(sorted(totals)) / 3
        measurements = MeasurementSet([measurement(total) for total in totals])
        assert measurements.mean_total_ms() == measurements.total_summary().mean == 0.5

    def test_split_vote_and_convergence_fractions(self):
        measurements = MeasurementSet(
            [measurement(split=True), measurement(), measurement(converged=False)]
        )
        assert measurements.split_vote_fraction() == pytest.approx(1 / 3)
        assert measurements.convergence_fraction() == pytest.approx(2 / 3)

    def test_empty_set_behaviour(self):
        empty = MeasurementSet(label="empty")
        assert empty.split_vote_fraction() == 0.0
        assert empty.convergence_fraction() == 0.0
        with pytest.raises(ClusterError):
            empty.mean_total_ms()

    @pytest.mark.parametrize(
        "statistic",
        ["mean_detection_ms", "mean_election_ms", "total_summary"],
    )
    def test_a_cell_with_no_converged_run_fails_with_its_label(self, statistic):
        # Not ZeroDivisionError: the report of a sweep names the empty cell.
        stalled = MeasurementSet([measurement(converged=False)], label="raft@8")
        with pytest.raises(ClusterError, match="no converged runs .* 'raft@8'"):
            getattr(stalled, statistic)()

    def test_mean_campaigns_is_per_run_over_every_run(self):
        # A run that never converged campaigned too.
        mixed = MeasurementSet(
            [measurement(campaigns=1), measurement(converged=False, campaigns=9)]
        )
        assert mixed.mean_campaigns() == 5.0
        stalled = MeasurementSet([measurement(converged=False, campaigns=4)])
        assert stalled.mean_campaigns() == 4.0
        with pytest.raises(ClusterError, match="no runs in .*'empty'"):
            MeasurementSet(label="empty").mean_campaigns()

    def test_means_cover_the_converged_runs(self):
        measurements = MeasurementSet(
            [
                measurement(2000.0, detection=1500.0, campaigns=1),
                measurement(9000.0, converged=False, campaigns=7),
                measurement(4000.0, detection=3000.0, campaigns=3),
            ]
        )
        assert measurements.mean_detection_ms() == 2250.0
        assert measurements.mean_election_ms() == 750.0
        assert measurements.total_summary() == summarize([2000.0, 4000.0])

    def test_values_selector(self):
        measurements = MeasurementSet([measurement(campaigns=2), measurement(campaigns=4)])
        assert measurements.values(lambda m: m.campaign_count) == [2, 4]

    def test_add_and_iterate(self):
        measurements = MeasurementSet()
        measurements.add(measurement())
        assert len(list(measurements)) == 1


def _measurement(seed=1, protocol="raft", outages=2):
    intervals = tuple(
        (10_000.0 * (i + 1), 10_000.0 * (i + 1) + 1_500.0) for i in range(outages)
    )
    leaderless = sum(end - start for start, end in intervals)
    return AvailabilityMeasurement(
        protocol=protocol,
        cluster_size=5,
        seed=seed,
        plan="repeated-leader-kill",
        start_ms=5_000.0,
        end_ms=65_000.0,
        available_ms=60_000.0 - leaderless,
        leaderless_ms=leaderless,
        unavailability=leaderless / 60_000.0,
        disruption_count=outages,
        skipped_disruptions=0,
        outage_count=outages,
        recovery_ms=tuple(end - start for start, end in intervals),
        proposals_proposed=200,
        proposals_dropped=12,
        leaderless_intervals=intervals,
        extra={"committed_entries": 180},
    )


class TestAvailabilitySetAggregates:
    def test_empty_set_refuses_aggregates(self):
        empty = AvailabilitySet(label="empty")
        with pytest.raises(Exception, match="no runs"):
            empty.mean_unavailability()
        assert empty.mean_recovery_ms() is None
        assert empty.total_proposed() == 0

    def test_means_are_per_run_and_recovery_is_pooled(self):
        availability_set = AvailabilitySet(
            [_measurement(1, outages=2), _measurement(2, outages=2)]
        )
        assert availability_set.mean_outages() == 2.0
        assert len(availability_set.pooled_recovery_ms()) == 4
        assert availability_set.mean_recovery_ms() == pytest.approx(1_500.0)


class TestStats:
    def test_fraction_at_or_below(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert fraction_at_or_below(values, 2.5) == 0.5
        assert fraction_at_or_below([], 1.0) == 0.0

    def test_percentiles(self):
        values = list(range(1, 101))
        assert percentile(values, 50.0) == pytest.approx(50.5)
        assert percentile(values, 0.0) == 1
        assert percentile(values, 100.0) == 100
        assert percentile([42.0], 75.0) == 42.0

    def test_percentile_validation(self):
        with pytest.raises(ClusterError):
            percentile([], 50.0)
        with pytest.raises(ClusterError):
            percentile([1.0], 120.0)

    def test_summarize(self):
        summary = summarize([100.0, 200.0, 300.0, 400.0])
        assert summary.count == 4
        assert summary.mean == 250.0
        assert summary.minimum == 100.0
        assert summary.maximum == 400.0
        # Sample (n-1) standard deviation: sqrt(50000 / 3).
        assert summary.std_dev == pytest.approx(129.10, rel=1e-3)
        assert "mean=250.0ms" in summary.describe()

    def test_summarize_uses_sample_std_dev(self):
        import statistics

        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        assert summarize(values).std_dev == pytest.approx(statistics.stdev(values))

    def test_summarize_single_value_has_zero_std_dev(self):
        summary = summarize([42.0])
        assert summary.std_dev == 0.0
        assert summary.median == 42.0
        assert summary.p99 == 42.0

    def test_summarize_percentiles_match_unsorted_percentile_calls(self):
        values = [9.0, 1.0, 7.0, 3.0, 5.0, 8.0, 2.0]
        summary = summarize(values)
        assert summary.median == percentile(values, 50.0)
        assert summary.p95 == percentile(values, 95.0)
        assert summary.p99 == percentile(values, 99.0)

    def test_summarize_empty_rejected(self):
        with pytest.raises(ClusterError):
            summarize([])

    def test_reduction_percent_matches_paper_style(self):
        # "ESCAPE shortens the leader election time by 21.3%" style numbers.
        assert reduction_percent(1000.0, 787.0) == pytest.approx(21.3)
        with pytest.raises(ClusterError):
            reduction_percent(0.0, 1.0)


class TestTables:
    def test_render_table_aligns_columns(self):
        text = render_table(
            headers=["name", "value"],
            rows=[["raft", 2000.123], ["escape", 1700]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(headers=["a", "b"], rows=[[1]])
