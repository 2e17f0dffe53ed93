"""Unit tests for latency models and fault injectors."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.net.faults import (
    BroadcastOmissionFault,
    CompositeFault,
    MessageDuplicationFault,
    NoFault,
    PacketLossFault,
)
from repro.net.latency import (
    GeoGroupLatency,
    LogNormalLatency,
    UniformLatency,
)

from helpers import ConstantLatency


class TestLatencyModels:
    def test_constant_latency_always_returns_value(self):
        model = ConstantLatency(42.0)
        rng = random.Random(0)
        assert all(model.sample(rng, 1, 2) == 42.0 for _ in range(10))

    def test_uniform_latency_stays_in_range(self):
        model = UniformLatency(100.0, 200.0)
        rng = random.Random(1)
        samples = [model.sample(rng, 1, 2) for _ in range(500)]
        assert all(100.0 <= sample <= 200.0 for sample in samples)
        assert max(samples) - min(samples) > 50.0  # actually spreads out

    def test_uniform_latency_rejects_inverted_range(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(200.0, 100.0)

    def test_lognormal_latency_is_positive_and_capped(self):
        model = LogNormalLatency(median_ms=150.0, sigma=0.5, max_ms=1_000.0)
        rng = random.Random(2)
        samples = [model.sample(rng, 1, 2) for _ in range(500)]
        assert all(0.0 < sample <= 1_000.0 for sample in samples)

    def test_geo_latency_uses_intra_and_inter_ranges(self):
        model = GeoGroupLatency(
            regions={1: "a", 2: "a", 3: "b"},
            intra_ms=(1.0, 2.0),
            inter_ms=(100.0, 110.0),
        )
        rng = random.Random(3)
        assert model.sample(rng, 1, 2) <= 2.0
        assert model.sample(rng, 1, 3) >= 100.0

    def test_geo_latency_requires_region_assignment(self):
        with pytest.raises(ConfigurationError):
            GeoGroupLatency(regions={})
        model = GeoGroupLatency(regions={1: "a"})
        with pytest.raises(ConfigurationError):
            model.region_of(9)


class TestNoFault:
    def test_never_drops(self):
        fault = NoFault()
        rng = random.Random(0)
        assert not fault.drop_unicast(rng, 1, 2)
        assert fault.omitted_broadcast_targets(rng, 1, [2, 3, 4]) == frozenset()


class TestPacketLossFault:
    def test_zero_rate_never_drops(self):
        fault = PacketLossFault(0.0)
        rng = random.Random(0)
        assert not any(fault.drop_unicast(rng, 1, 2) for _ in range(100))

    def test_full_rate_always_drops(self):
        fault = PacketLossFault(1.0)
        rng = random.Random(0)
        assert all(fault.drop_unicast(rng, 1, 2) for _ in range(100))

    def test_rate_is_approximately_respected(self):
        fault = PacketLossFault(0.3)
        rng = random.Random(7)
        drops = sum(fault.drop_unicast(rng, 1, 2) for _ in range(5_000))
        assert 0.25 < drops / 5_000 < 0.35

    def test_rejects_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            PacketLossFault(1.5)


class TestBroadcastOmissionFault:
    def test_omits_ceil_of_delta_fraction(self):
        # Paper example: 10 servers, delta=20% -> the sender omits 2 per broadcast.
        fault = BroadcastOmissionFault(0.2)
        rng = random.Random(0)
        targets = list(range(2, 11))  # 9 peers of a 10-server cluster
        omitted = fault.omitted_broadcast_targets(rng, 1, targets)
        assert len(omitted) == 2
        assert omitted <= set(targets)

    def test_forty_percent_omits_four_of_nine(self):
        fault = BroadcastOmissionFault(0.4)
        rng = random.Random(1)
        omitted = fault.omitted_broadcast_targets(rng, 1, list(range(2, 11)))
        assert len(omitted) == 4

    def test_zero_rate_omits_nothing(self):
        fault = BroadcastOmissionFault(0.0)
        rng = random.Random(0)
        assert fault.omitted_broadcast_targets(rng, 1, [2, 3]) == frozenset()

    def test_omission_subset_varies_across_broadcasts(self):
        fault = BroadcastOmissionFault(0.4)
        rng = random.Random(5)
        targets = list(range(2, 12))
        subsets = {fault.omitted_broadcast_targets(rng, 1, targets) for _ in range(50)}
        assert len(subsets) > 1

    def test_unicast_untouched_by_default(self):
        fault = BroadcastOmissionFault(0.9)
        rng = random.Random(0)
        assert not any(fault.drop_unicast(rng, 1, 2) for _ in range(50))

    def test_unicast_affected_when_enabled(self):
        fault = BroadcastOmissionFault(1.0, affect_unicast=True)
        rng = random.Random(0)
        assert fault.drop_unicast(rng, 1, 2)


class TestCompositeFault:
    def test_union_of_drop_decisions(self):
        rng = random.Random(0)
        dropping = CompositeFault(injectors=(NoFault(), PacketLossFault(1.0)))
        assert dropping.drop_unicast(rng, 1, 2)
        assert dropping.omitted_broadcast_targets(rng, 1, [2, 3]) == frozenset({2, 3})
        healthy = CompositeFault(injectors=(NoFault(), BroadcastOmissionFault(0.0)))
        assert not healthy.drop_unicast(rng, 1, 3)
        assert healthy.omitted_broadcast_targets(rng, 1, [2, 3]) == frozenset()

    def test_forwards_duplication_from_wrapped_injectors(self):
        # Regression: a MessageDuplicationFault inside a composite used to be
        # silently disabled because the composite did not forward
        # should_duplicate to the network's duck-typed lookup.
        fault = CompositeFault(
            injectors=(BroadcastOmissionFault(0.2), MessageDuplicationFault(1.0))
        )
        rng = random.Random(0)
        assert fault.should_duplicate(rng, 1, 2)

    def test_no_duplication_without_a_duplicating_injector(self):
        fault = CompositeFault(
            injectors=(BroadcastOmissionFault(0.2), PacketLossFault(0.5))
        )
        rng = random.Random(0)
        assert not any(fault.should_duplicate(rng, 1, 2) for _ in range(50))

    def test_duplication_rate_is_preserved_inside_the_composite(self):
        direct = MessageDuplicationFault(0.3)
        wrapped = CompositeFault(injectors=(MessageDuplicationFault(0.3),))
        hits = lambda fault, seed: sum(  # noqa: E731 - tiny local helper
            fault.should_duplicate(random.Random(seed), 1, 2) for _ in range(1)
        )
        # Same RNG stream, same decisions: wrapping must not perturb draws.
        for seed in range(200):
            assert hits(direct, seed) == hits(wrapped, seed)
