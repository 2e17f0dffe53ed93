"""Property-based pins for the streaming/batch equivalence contract.

The streaming sweep engine only preserves the repository's determinism
guarantee if its aggregates are *exactly* the batch statistics in disguise.
These properties pin the contract declared by :mod:`repro.metrics.streaming`
for arbitrary samples: in the exact regime (count <= capacity), **any**
chunking and **any** merge order of :class:`StreamingSummary` partials
reproduce the batch ``summarize``/``cumulative_distribution`` results
bit-identically; the JSON state round-trip (the checkpoint format) is
bit-exact; and beyond the capacity the compression stays deterministic while
count/min/max remain exact.  The election containers themselves --
:class:`MeasurementSet` (batch) and :class:`ElectionAggregate` (streaming) --
answer every query they share identically on any mix of converged and
non-converged runs, under any chunking.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    ElectionAggregate,
    ElectionMeasurement,
    MeasurementSet,
    MergeableCDF,
    StreamingSummary,
    cumulative_distribution,
    summarize,
)

CAPACITY = 64

# Finite floats in a measurement-like range; duplicates are likely (small
# grid) so ties exercise the stable-merge path.
VALUES = st.lists(
    st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False).map(
        lambda value: round(value, 2)
    ),
    min_size=1,
    max_size=CAPACITY,
)

# Chunk boundaries as a list of relative cut weights; normalised per sample.
CUTS = st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=8)


def _chunks(values, cuts):
    """Split *values* into contiguous chunks sized by the relative *cuts*."""
    total = sum(cuts)
    chunks, start = [], 0
    for cut in cuts:
        end = min(len(values), start + max(1, round(len(values) * cut / total)))
        if end > start:
            chunks.append(values[start:end])
        start = end
    if start < len(values):
        chunks.append(values[start:])
    return chunks


@given(values=VALUES, cuts=CUTS)
def test_any_chunking_matches_batch_summary_bit_identically(values, cuts):
    merged = StreamingSummary(capacity=CAPACITY)
    for chunk in _chunks(values, cuts):
        merged.merge(StreamingSummary(capacity=CAPACITY).extend(chunk))
    assert merged.count == len(values)
    # Bit-identical, not approximately equal: summarize returns a frozen
    # dataclass, so == compares every statistic exactly.
    assert merged.summary() == summarize(values)
    assert merged.cumulative_distribution() == cumulative_distribution(values)


@given(values=VALUES, cuts=CUTS, seed=st.integers(min_value=0, max_value=2**31))
def test_merge_order_is_irrelevant_in_the_exact_regime(values, cuts, seed):
    chunks = _chunks(values, cuts)
    partials = [
        StreamingSummary(capacity=CAPACITY).extend(chunk) for chunk in chunks
    ]
    # A deterministic permutation derived from the seed (no global RNG).
    order = sorted(range(len(partials)), key=lambda i: (seed * 2654435761 + i) % 97)
    permuted = StreamingSummary(capacity=CAPACITY)
    for index in order:
        permuted.merge(partials[index])
    assert permuted.summary() == summarize(values)
    assert permuted.cumulative_distribution() == cumulative_distribution(values)


@given(values=VALUES)
def test_json_state_round_trip_is_bit_exact(values):
    summary = StreamingSummary(capacity=CAPACITY).extend(values)
    state = json.loads(json.dumps(summary.to_state()))
    restored = StreamingSummary.from_state(state)
    assert restored.to_state() == summary.to_state()
    assert restored.summary() == summary.summary()


@settings(max_examples=25)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False),
        min_size=20,
        max_size=120,
    )
)
def test_compressed_regime_is_deterministic_and_exact_on_extremes(values):
    capacity = 8  # force compression for nearly every sample

    def build():
        return StreamingSummary(capacity=capacity).extend(values)

    summary = build()
    assert summary.to_state() == build().to_state()  # same sequence, same state
    stats = summary.summary()
    assert stats.count == len(values)
    assert stats.minimum == min(values)
    assert stats.maximum == max(values)
    assert min(values) <= stats.median <= max(values)
    assert min(values) <= stats.p99 <= max(values)


@given(values=VALUES, cuts=CUTS)
def test_sketch_merge_is_lossless_while_exact(values, cuts):
    merged = MergeableCDF(capacity=CAPACITY)
    for chunk in _chunks(values, cuts):
        partial = MergeableCDF(capacity=CAPACITY)
        for value in chunk:
            partial.add(value)
        merged.merge(partial)
    assert merged.exact
    assert merged.values() == sorted(values)


@st.composite
def _episodes(draw):
    """Election runs, converged or not; a stalled run still campaigned."""
    runs = draw(
        st.lists(
            st.tuples(
                st.booleans(),  # converged
                st.integers(min_value=1, max_value=12),  # campaigns
                st.integers(min_value=1, max_value=800_000),  # total, in 1/100 ms
            ),
            min_size=1,
            max_size=CAPACITY,
        )
    )
    return [
        ElectionMeasurement(
            protocol="raft",
            cluster_size=5,
            seed=index,
            converged=converged,
            crash_time_ms=0.0,
            detection_ms=total / 200.0,
            election_ms=total / 200.0,
            total_ms=total / 100.0,
            campaign_count=campaigns,
            split_vote=campaigns > 1,
            winner_id=1 if converged else None,
            winner_term=2 if converged else None,
        )
        for index, (converged, campaigns, total) in enumerate(runs)
    ]


def test_mean_campaigns_counts_the_run_that_never_converged():
    """The case the two containers used to answer 1.0 and 5.0."""
    converged, stalled = (
        ElectionMeasurement("raft", 5, 0, True, 0.0, 1.0, 1.0, 2.0, 1, False, 1, 2),
        ElectionMeasurement("raft", 5, 1, False, 0.0, 1.0, 1.0, 2.0, 9, True, None, None),
    )
    batch = MeasurementSet([converged, stalled], label="cell")
    streamed = ElectionAggregate.from_measurements([converged, stalled], label="cell")
    assert batch.mean_campaigns() == streamed.mean_campaigns() == 5.0


@given(episodes=_episodes(), cuts=CUTS)
def test_batch_and_streaming_containers_agree_on_any_mix(episodes, cuts):
    batch = MeasurementSet(episodes, label="cell")
    streamed = ElectionAggregate("cell", capacity=CAPACITY)
    for chunk in _chunks(episodes, cuts):
        streamed.merge(
            ElectionAggregate.from_measurements(chunk, label="cell", capacity=CAPACITY)
        )
    assert streamed.runs == len(batch)
    assert streamed.mean_campaigns() == batch.mean_campaigns()
    assert streamed.split_vote_fraction() == batch.split_vote_fraction()
    assert streamed.convergence_fraction() == batch.convergence_fraction()
    if streamed.converged:
        assert streamed.total_summary() == batch.total_summary()
        assert streamed.mean_total_ms() == batch.mean_total_ms()
        assert streamed.total_cdf() == cumulative_distribution(batch.totals_ms())
