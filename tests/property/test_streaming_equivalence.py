"""Property-based pins for the streaming exactness contract.

Every election statistic is computed once, by the mergeable aggregates of
:mod:`repro.metrics.streaming`; a :class:`MeasurementSet` answers through an
aggregate sized to its run count.  What remains to pin is where those
aggregates stop being the batch ``summarize`` over the sorted sample in
disguise: at ``count == capacity`` any chunking and any merge order are
still bit-identical to the batch path, one value past it the sketch
compresses (count, min and max stay exact, the support is observed values),
a :class:`MeasurementSet` never crosses that line however many runs it
holds, and the aggregates' JSON state -- the checkpoint format -- is the one
the hand-written codecs wrote.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    DEFAULT_CDF_CAPACITY,
    ElectionAggregate,
    ElectionMeasurement,
    MeasurementSet,
    StreamingSummary,
    summarize,
)
from repro.workload import WorkloadAggregate
from repro.workload.records import WorkloadMeasurement

CAPACITY = 64


def _values(min_size: int, max_size: int) -> st.SearchStrategy[list[float]]:
    # Finite floats in a measurement-like range; duplicates are likely (small
    # grid) so ties exercise the stable-merge path.
    return st.lists(
        st.floats(min_value=0.0, max_value=10_000.0, allow_nan=False).map(
            lambda value: round(value, 2)
        ),
        min_size=min_size,
        max_size=max_size,
    )


VALUES = _values(1, CAPACITY)
AT_CAPACITY = _values(CAPACITY, CAPACITY)
PAST_CAPACITY = _values(CAPACITY + 1, CAPACITY + 1)

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


def _merged(values, cuts) -> StreamingSummary:
    merged = StreamingSummary(capacity=CAPACITY)
    for chunk in _chunks(values, cuts):
        merged.merge(StreamingSummary(capacity=CAPACITY).extend(chunk))
    return merged


@given(values=VALUES, cuts=CUTS)
def test_any_chunking_matches_batch_summary_bit_identically(values, cuts):
    merged = _merged(values, cuts)
    assert merged.count == len(values)
    # Bit-identical, not approximately equal: summarize returns a frozen
    # dataclass, so == compares every statistic exactly.
    assert merged.summary() == summarize(values)
    assert merged.cdf.values() == sorted(values)


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
    assert permuted.cdf.values() == sorted(values)


@given(values=AT_CAPACITY, cuts=CUTS)
def test_a_summary_at_capacity_is_still_exact(values, cuts):
    merged = _merged(values, cuts)
    assert merged.cdf.exact
    assert merged.summary() == summarize(values)
    assert merged.cdf.values() == sorted(values)


@given(values=PAST_CAPACITY, cuts=CUTS)
def test_one_value_past_capacity_compresses_to_observed_values(values, cuts):
    merged = _merged(values, cuts)
    assert not merged.cdf.exact
    stats = merged.summary()
    assert stats.count == len(values)
    assert (stats.minimum, stats.maximum) == (min(values), max(values))
    observed = set(values)
    state = merged.cdf.to_state()
    assert all(value in observed for value in state["points"] + state["values"])
    assert min(values) <= stats.median <= stats.p99 <= max(values)


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


def _election(seed: int, total: float, converged: bool = True) -> ElectionMeasurement:
    return ElectionMeasurement(
        "raft", 5, seed, converged, 0.0, total / 4, total - total / 4, total,
        1 if converged else 3, not converged, 1 if converged else None,
        2 if converged else None,
    )


def test_a_measurement_set_past_the_default_capacity_stays_exact():
    runs = DEFAULT_CDF_CAPACITY + 1
    totals = [((index * 7919) % 100_003) / 7.0 for index in range(runs)]
    episodes = [_election(index, total) for index, total in enumerate(totals)]
    episodes.append(_election(runs, 0.0, converged=False))
    cell = MeasurementSet(episodes, label="cell")
    # An aggregate of the default capacity would compress here ...
    assert not ElectionAggregate.from_measurements(episodes).total_ms.cdf.exact
    # ... the set's own one does not, so it equals the batch path bit for bit.
    assert cell.total_summary() == summarize(totals)
    assert cell.mean_total_ms() == summarize(totals).mean
    assert cell.mean_detection_ms() == summarize([m.detection_ms for m in episodes[:-1]]).mean
    assert cell.mean_election_ms() == summarize([m.election_ms for m in episodes[:-1]]).mean
    assert cell.mean_campaigns() == (runs + 3) / (runs + 1)


def _election_aggregate() -> ElectionAggregate:
    return ElectionAggregate.from_measurements(
        [
            ElectionMeasurement("raft", 5, 0, True, 0.0, 1200.5, 300.25, 1500.75, 2, True, 1, 3),
            ElectionMeasurement("raft", 5, 1, False, 0.0, 0.0, 0.0, 0.0, 4, True, None, None),
        ],
        "cell",
        capacity=4,
    )


def _workload_aggregate() -> WorkloadAggregate:
    measurement = WorkloadMeasurement(
        "raft", 5, 0, "p", "closed-loop", 10_000.0, 50, 45, 2, 3, 1, 5, 2, 1_000.0,
        (250.0, 300.5),
    )
    return WorkloadAggregate.from_measurements([measurement], "cell", capacity=4)


def _summary_state(count, mean, m2, values):
    return {
        "count": count,
        "mean": mean,
        "m2": m2,
        "cdf": {"capacity": 4, "values": values, "points": None, "points_count": 0},
        "min": values[0],
        "max": values[-1],
    }


# The states the hand-written codecs wrote for the two samples above, key
# order included: a checkpoint written before the codec was derived from the
# field list still resumes.
ELECTION_STATE = {
    "label": "cell",
    "runs": 2,
    "converged": 1,
    "split_votes": 2,
    "campaigns": 6,
    "total_ms": _summary_state(1, 1500.75, 0.0, [1500.75]),
    "detection_ms": _summary_state(1, 1200.5, 0.0, [1200.5]),
    "election_ms": _summary_state(1, 300.25, 0.0, [300.25]),
}
WORKLOAD_STATE = {
    "label": "cell",
    "runs": 1,
    "proposed": 50,
    "committed": 45,
    "retries": 2,
    "dropped": 3,
    "rejected": 1,
    "lost": 5,
    "outages": 2,
    "window_ms": 10000.0,
    "leaderless_ms": 1000.0,
    "latency_ms": _summary_state(2, 275.25, 1275.125, [250.0, 300.5]),
}


@pytest.mark.parametrize(
    "build, state",
    [(_election_aggregate, ELECTION_STATE), (_workload_aggregate, WORKLOAD_STATE)],
    ids=["ElectionAggregate", "WorkloadAggregate"],
)
def test_aggregate_state_codec(build, state):
    aggregate = build()
    written = aggregate.to_state()
    assert list(written) == [field.name for field in dataclasses.fields(aggregate)]
    assert json.dumps(written) == json.dumps(state)
    restored = type(aggregate).from_state(json.loads(json.dumps(state)))
    assert restored == aggregate
    assert restored.to_state() == written
