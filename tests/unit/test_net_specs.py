"""Unit tests for binding a network condition to a membership.

A condition is the :mod:`repro.net` model itself; ``resolve(server_ids)``
exists only where the membership matters -- the geo spec assigns regions, a
link fault checks its links name members, a composite binds its parts -- and
:func:`repro.net.faults.bind` returns every other model as it is.  Conditions
validate at construction and pickle round-trip unchanged: the properties the
scenario layer and the parallel sweep engine rely on.
"""

import pickle

import pytest

from repro.common.errors import ConfigurationError
from repro.net.faults import (
    BroadcastOmissionFault,
    CompositeFault,
    MessageDuplicationFault,
    NoFault,
    PacketLossFault,
    bind,
)
from repro.net.latency import (
    GeoGroupLatency,
    GeoLatencySpec,
    LogNormalLatency,
    UniformLatency,
    assign_regions,
)

from helpers import ConstantLatency

SERVERS = (1, 2, 3, 4, 5)

#: The models no membership can change: binding is the identity.
MEMBERSHIP_FREE = [
    UniformLatency(50.0, 80.0),
    ConstantLatency(25.0),
    LogNormalLatency(median_ms=120.0, sigma=0.6, max_ms=2_000.0),
    NoFault(),
    BroadcastOmissionFault(0.2, affect_unicast=True),
    PacketLossFault(0.1),
    MessageDuplicationFault(0.3),
    CompositeFault(
        injectors=(BroadcastOmissionFault(0.2), MessageDuplicationFault(0.1))
    ),
]

ALL_CONDITIONS = MEMBERSHIP_FREE + [
    GeoLatencySpec(region_count=2, intra_ms=(1.0, 5.0), inter_ms=(90.0, 140.0)),
]


class TestBind:
    @pytest.mark.parametrize(
        "model", MEMBERSHIP_FREE, ids=lambda model: type(model).__name__
    )
    def test_a_membership_free_model_is_its_own_runtime_form(self, model):
        assert bind(model, SERVERS) is model


class TestGeoBinding:
    def test_geo_resolves_with_balanced_regions(self):
        spec = GeoLatencySpec(
            region_count=2, intra_ms=(1.0, 5.0), inter_ms=(90.0, 140.0)
        )
        model = bind(spec, SERVERS)
        assert isinstance(model, GeoGroupLatency)
        assert model.intra_ms == (1.0, 5.0)
        assert model.inter_ms == (90.0, 140.0)
        # 5 servers over 2 regions: contiguous 3/2 split.
        assert model.region_of(1) == model.region_of(3)
        assert model.region_of(4) == model.region_of(5)
        assert model.region_of(3) != model.region_of(4)

    def test_geo_spec_is_cluster_size_independent(self):
        spec = GeoLatencySpec(region_count=3)
        small = spec.resolve((1, 2, 3))
        large = spec.resolve(tuple(range(1, 31)))
        assert len(set(small.regions.values())) == 3
        assert len(set(large.regions.values())) == 3

    def test_geo_spec_validates_at_construction(self):
        with pytest.raises(ConfigurationError):
            GeoLatencySpec(region_count=0)
        with pytest.raises(ConfigurationError):
            GeoLatencySpec(intra_ms=(-10.0, -5.0))
        with pytest.raises(ConfigurationError):
            GeoLatencySpec(inter_ms=(-1.0, 200.0))

    def test_geo_rejects_more_regions_than_servers(self):
        with pytest.raises(ConfigurationError):
            GeoLatencySpec(region_count=4).resolve((1, 2, 3))

    def test_geo_spec_keeps_its_name_in_repr(self):
        # The repr is what election exports record as ``extra.latency_spec``.
        assert repr(GeoLatencySpec(region_count=3)).startswith(
            "GeoLatencySpec(region_count=3, "
        )


class TestAssignRegions:
    def test_contiguous_balanced_blocks(self):
        regions = assign_regions((1, 2, 3, 4, 5, 6, 7), 3)
        blocks = {}
        for server, region in regions.items():
            blocks.setdefault(region, []).append(server)
        assert sorted(len(block) for block in blocks.values()) == [2, 2, 3]
        for block in blocks.values():
            block = sorted(block)
            assert block == list(range(block[0], block[0] + len(block)))

    def test_single_region_covers_everyone(self):
        regions = assign_regions((1, 2, 3), 1)
        assert set(regions.values()) == {"region-0"}


class TestFaultBinding:
    def test_composite_rejects_parts_that_are_not_injectors(self):
        with pytest.raises(ConfigurationError, match="fault injectors"):
            CompositeFault(injectors=(UniformLatency(100.0, 200.0),))


class TestPicklability:
    @pytest.mark.parametrize(
        "condition", ALL_CONDITIONS, ids=lambda c: type(c).__name__
    )
    def test_every_condition_round_trips_and_hashes(self, condition):
        clone = pickle.loads(pickle.dumps(condition))
        assert clone == condition
        assert hash(clone) == hash(condition)

    def test_binding_after_round_trip_is_identical(self):
        spec = GeoLatencySpec(region_count=2)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.resolve(SERVERS) == spec.resolve(SERVERS)
