"""Unit tests for the mergeable streaming aggregates.

The streaming sweep engine's correctness rests on three claims pinned here:
in the exact regime (count <= capacity) the accumulators report
bit-identically to the batch ``summarize`` path;
beyond the capacity the compression stays deterministic and keeps
count/min/max exact; and every accumulator's ``to_state``/``from_state``
round-trips bit-exactly through JSON (the checkpoint format's contract).
The any-chunking/any-merge-order generalisation lives in
``tests/property/test_streaming_equivalence.py``.
"""

from __future__ import annotations

import json
import math
from typing import Callable

import pytest

from repro.common.errors import ClusterError
from repro.metrics.records import ElectionMeasurement
from repro.metrics.stats import percentile, summarize
from repro.metrics.streaming import (
    DEFAULT_CDF_CAPACITY,
    ElectionAggregate,
    MergeableCDF,
    StreamingSummary,
)
from repro.workload.aggregate import WorkloadAggregate
from repro.workload.records import WorkloadMeasurement


def _measurement(
    seed: int,
    *,
    converged: bool = True,
    total_ms: float = 1500.0,
    split_vote: bool = False,
    campaigns: int = 1,
) -> ElectionMeasurement:
    return ElectionMeasurement(
        protocol="raft",
        cluster_size=3,
        seed=seed,
        converged=converged,
        crash_time_ms=100.0,
        detection_ms=total_ms / 3,
        election_ms=2 * total_ms / 3,
        total_ms=total_ms,
        campaign_count=campaigns,
        split_vote=split_vote,
        winner_id=1 if converged else None,
        winner_term=2 if converged else None,
    )


SAMPLE = [1500.0, 1900.5, 1200.25, 3100.0, 1500.0, 2050.125, 1750.0, 990.0]


class TestMergeableCDF:
    def test_exact_regime_matches_batch_cdf(self):
        sketch = MergeableCDF(capacity=16)
        for value in SAMPLE:
            sketch.add(value)
        assert sketch.exact
        assert sketch.count == len(SAMPLE)
        assert sketch.values() == sorted(SAMPLE)

    def test_exact_merge_is_lossless(self):
        left, right = MergeableCDF(capacity=16), MergeableCDF(capacity=16)
        for value in SAMPLE[:3]:
            left.add(value)
        for value in SAMPLE[3:]:
            right.add(value)
        left.merge(right)
        assert left.values() == sorted(SAMPLE)

    def test_capacity_floor(self):
        with pytest.raises(ClusterError):
            MergeableCDF(capacity=3)

    def test_non_finite_values_rejected(self):
        sketch = MergeableCDF(capacity=8)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ClusterError):
                sketch.add(bad)

    def test_capacity_mismatch_rejected_on_merge(self):
        with pytest.raises(ClusterError):
            MergeableCDF(capacity=8).merge(MergeableCDF(capacity=16))

    def test_empty_sketch_has_no_percentile(self):
        with pytest.raises(ClusterError):
            MergeableCDF(capacity=8).percentile(50.0)

    def test_compression_triggers_past_capacity(self):
        sketch = MergeableCDF(capacity=8)
        for index in range(9):
            sketch.add(float(index))
        assert not sketch.exact
        assert sketch.count == 9
        with pytest.raises(ClusterError):
            sketch.values()
        # Percentiles stay observed values inside the sample's range.
        assert 0.0 <= sketch.percentile(50.0) <= 8.0

    def test_compression_is_deterministic(self):
        def build():
            sketch = MergeableCDF(capacity=8)
            for index in range(50):
                sketch.add(float((index * 37) % 50))
            return sketch

        assert build().to_state() == build().to_state()
        assert build() == build()

    def test_state_round_trips_through_json(self):
        sketch = MergeableCDF(capacity=8)
        for index in range(20):  # forces compression, keeps an exact buffer
            sketch.add(index * 0.1)
        state = json.loads(json.dumps(sketch.to_state()))
        assert MergeableCDF.from_state(state) == sketch


class TestStreamingSummary:
    def test_exact_regime_summary_is_bit_identical_to_batch(self):
        summary = StreamingSummary(capacity=16).extend(SAMPLE)
        assert summary.summary() == summarize(SAMPLE)
        assert summary.cdf.values() == sorted(SAMPLE)

    def test_chunked_merge_equals_single_pass(self):
        whole = StreamingSummary(capacity=16).extend(SAMPLE)
        merged = StreamingSummary(capacity=16).extend(SAMPLE[:2])
        for chunk in (SAMPLE[2:5], SAMPLE[5:]):
            merged.merge(StreamingSummary(capacity=16).extend(chunk))
        assert merged == whole
        assert merged.summary() == whole.summary()

    def test_merge_with_empty_is_identity_both_ways(self):
        summary = StreamingSummary(capacity=16).extend(SAMPLE)
        before = summary.to_state()
        summary.merge(StreamingSummary(capacity=16))
        assert summary.to_state() == before
        empty = StreamingSummary(capacity=16)
        empty.merge(summary)
        assert empty == summary

    def test_empty_summary_refuses_queries(self):
        empty = StreamingSummary(capacity=16)
        with pytest.raises(ClusterError):
            empty.summary()
        with pytest.raises(ClusterError):
            _ = empty.mean
        with pytest.raises(ClusterError):
            _ = empty.minimum
        with pytest.raises(ClusterError):
            _ = empty.maximum

    def test_compressed_regime_keeps_count_min_max_exact(self):
        values = [float((index * 17) % 101) for index in range(200)]
        summary = StreamingSummary(capacity=8).extend(values)
        stats = summary.summary()
        assert stats.count == len(values)
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)
        assert stats.mean == pytest.approx(sum(values) / len(values))

    def test_state_round_trips_through_json(self):
        summary = StreamingSummary(capacity=16).extend(SAMPLE)
        state = json.loads(json.dumps(summary.to_state()))
        assert StreamingSummary.from_state(state).to_state() == summary.to_state()

    def test_empty_state_round_trips(self):
        state = json.loads(json.dumps(StreamingSummary(capacity=16).to_state()))
        restored = StreamingSummary.from_state(state)
        assert restored.count == 0
        assert restored == StreamingSummary(capacity=16)

    def test_default_capacity_is_paper_scale(self):
        assert StreamingSummary().cdf.capacity == DEFAULT_CDF_CAPACITY
        assert DEFAULT_CDF_CAPACITY >= 2048  # every registered default stays exact


class TestElectionAggregate:
    def test_counters_and_fractions(self):
        aggregate = ElectionAggregate("cell")
        aggregate.add(_measurement(1, total_ms=1000.0, split_vote=True, campaigns=2))
        aggregate.add(_measurement(2, total_ms=2000.0))
        aggregate.add(_measurement(3, converged=False, campaigns=3))
        assert len(aggregate) == 3
        assert aggregate.converged == 2
        assert aggregate.split_vote_fraction() == pytest.approx(1 / 3)
        assert aggregate.convergence_fraction() == pytest.approx(2 / 3)
        assert aggregate.mean_campaigns() == pytest.approx(2.0)
        # Period summaries cover converged runs only (MeasurementSet semantics).
        assert aggregate.total_summary().count == 2
        assert aggregate.mean_total_ms() == pytest.approx(1500.0)

    def test_from_measurements_equals_incremental_adds(self):
        measurements = [_measurement(seed, total_ms=1000.0 + seed) for seed in range(6)]
        incremental = ElectionAggregate("cell")
        for measurement in measurements:
            incremental.add(measurement)
        assert ElectionAggregate.from_measurements(measurements, "cell") == incremental

    def test_merge_equals_aggregating_the_concatenation(self):
        measurements = [_measurement(seed, total_ms=900.0 + 13 * seed) for seed in range(8)]
        left = ElectionAggregate.from_measurements(measurements[:3], "cell")
        left.merge(ElectionAggregate.from_measurements(measurements[3:], "cell"))
        whole = ElectionAggregate.from_measurements(measurements, "cell")
        assert left == whole
        assert left.total_summary() == whole.total_summary()
        assert left.total_ms.cdf.values() == whole.total_ms.cdf.values()

    def test_label_mismatch_rejected(self):
        with pytest.raises(ClusterError):
            ElectionAggregate("a").merge(ElectionAggregate("b"))

    def test_empty_aggregate_refuses_means(self):
        empty = ElectionAggregate("cell")
        with pytest.raises(ClusterError):
            empty.mean_campaigns()
        with pytest.raises(ClusterError):
            empty.mean_total_ms()
        with pytest.raises(ClusterError):
            empty.total_summary()

    def test_state_round_trips_through_json(self):
        measurements = [_measurement(seed) for seed in range(4)]
        aggregate = ElectionAggregate.from_measurements(measurements, "cell")
        state = json.loads(json.dumps(aggregate.to_state()))
        assert ElectionAggregate.from_state(state).to_state() == aggregate.to_state()

    def test_period_means_cover_converged_runs(self):
        aggregate = ElectionAggregate.from_measurements(
            [
                _measurement(1, total_ms=1500.0),
                _measurement(2, total_ms=3000.0),
                _measurement(3, converged=False, total_ms=9000.0),
            ]
        )
        assert aggregate.mean_detection_ms() == 750.0
        assert aggregate.mean_election_ms() == 1500.0
        with pytest.raises(ClusterError, match="no converged runs"):
            ElectionAggregate("cell").mean_detection_ms()


def _three_values(q: float) -> dict[str, Callable[[], float | None]]:
    """Every percentile path over the sample ``1, 2, 3``, at *q*."""
    sketch = MergeableCDF(capacity=8)
    for value in (1.0, 2.0, 3.0):
        sketch.add(value)
    workload = WorkloadAggregate.from_measurements(
        [
            WorkloadMeasurement(
                "raft", 3, 0, "p", "closed-loop", 1_000.0, 3, 3, 0, 0, 0, 0, 0, 0.0,
                (1.0, 2.0, 3.0),
            )
        ]
    )
    return {
        "stats.percentile": lambda: percentile([1.0, 2.0, 3.0], q),
        "MergeableCDF": lambda: sketch.percentile(q),
        "StreamingSummary": lambda: StreamingSummary().extend([1.0, 2.0, 3.0]).percentile(q),
        "WorkloadAggregate.percentile_ms": lambda: workload.percentile_ms(q),
    }


PERCENTILE_PATHS = sorted(_three_values(50.0))


@pytest.mark.parametrize("path", PERCENTILE_PATHS)
@pytest.mark.parametrize("q", [-50.0, 150.0, math.nan])
def test_every_percentile_path_refuses_q_outside_0_100(path, q):
    with pytest.raises(ClusterError, match=r"percentile must be in \[0, 100\]"):
        _three_values(q)[path]()


@pytest.mark.parametrize("path", PERCENTILE_PATHS)
def test_every_percentile_path_accepts_both_ends(path):
    assert _three_values(0.0)[path]() == 1.0
    assert _three_values(100.0)[path]() == 3.0
