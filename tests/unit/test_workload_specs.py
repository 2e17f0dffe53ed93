"""Unit tests for the workload spec registry (the sixth spec registry)."""

import pickle
from dataclasses import replace

import pytest

from repro.common.errors import ConfigurationError
from repro.workload import specs
from repro.workload.specs import KeyspaceSpec, WorkloadSpec

BUILTINS = (
    "closed-loop",
    "open-poisson",
    "open-uniform",
    "open-burst",
)


class TestRegistry:
    def test_builtins_are_registered_in_order(self):
        assert specs.names() == BUILTINS

    def test_get_returns_the_registered_spec(self):
        spec = specs.get("closed-loop")
        assert spec.name == "closed-loop"
        assert spec.mode == "closed"

    def test_unknown_name_lists_the_alternatives(self):
        with pytest.raises(ConfigurationError, match="closed-loop"):
            specs.get("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            specs.register(WorkloadSpec(name="closed-loop"))

    def test_items_enumerates_name_spec_pairs(self):
        pairs = specs.items()
        assert tuple(name for name, _ in pairs) == BUILTINS
        assert all(isinstance(spec, WorkloadSpec) for _, spec in pairs)

    def test_legacy_interval_rebinds_the_gap(self):
        spec = specs.legacy_interval(125.0)
        assert (spec.mode, spec.arrival) == ("open", "uniform")
        assert spec.interval_ms == 125.0
        assert spec.max_retries == 0
        assert spec.keyspace == KeyspaceSpec()
        # The registered prototype is untouched.
        assert specs.get("open-uniform").interval_ms == 50.0

    def test_every_builtin_survives_pickling(self):
        for _, spec in specs.items():
            assert pickle.loads(pickle.dumps(spec)) == spec
            hash(spec)


class TestWorkloadSpecValidation:
    def test_modes_are_closed_and_open(self):
        assert specs.MODES == ("closed", "open")
        with pytest.raises(ConfigurationError, match="unknown workload mode"):
            WorkloadSpec(name="w", mode="legacy-interval")

    def test_a_nameless_spec_cannot_be_registered(self):
        with pytest.raises(ConfigurationError, match="workload name '' must be"):
            specs.register(WorkloadSpec(name=""))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload mode"):
            WorkloadSpec(name="w", mode="half-open")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mode": "closed", "clients": 0},
            {"mode": "closed", "think_time_ms": 0.0},
            {"mode": "open", "arrival": "pareto"},
            {"mode": "open", "arrival": "poisson", "rate_per_s": 0.0},
            {"mode": "open", "arrival": "uniform", "interval_ms": -1.0},
            {"mode": "open", "arrival": "burst", "burst_size": 0},
            {"mode": "open", "arrival": "burst", "burst_interval_ms": 0.0},
            {"mode": "open", "arrival": "uniform", "interval_ms": 0.0},
            {"max_retries": -1},
        ],
    )
    def test_invalid_shapes_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="w", **overrides)

    @pytest.mark.parametrize(
        "overrides, unread",
        [
            ({"mode": "open", "arrival": "uniform", "rate_per_s": 10.0}, "rate_per_s"),
            ({"mode": "open", "arrival": "burst", "rate_per_s": 10.0}, "rate_per_s"),
            ({"mode": "open", "arrival": "poisson", "clients": 8}, "clients"),
            ({"mode": "open", "arrival": "uniform", "think_time_ms": 50.0}, "think_time_ms"),
            ({"mode": "open", "arrival": "poisson", "interval_ms": 30.0}, "interval_ms"),
            ({"mode": "open", "arrival": "uniform", "burst_size": 4}, "burst_size"),
            (
                {"mode": "open", "arrival": "poisson", "burst_interval_ms": 100.0},
                "burst_interval_ms",
            ),
            ({"mode": "closed", "arrival": "uniform"}, "arrival"),
            ({"mode": "closed", "rate_per_s": 10.0}, "rate_per_s"),
            ({"mode": "closed", "interval_ms": 30.0}, "interval_ms"),
            ({"keyspace": {"mode": "uniform", "hot_share": 0.5}}, "hot_share"),
            ({"keyspace": {"hot_fraction": 0.25}}, "hot_fraction"),
        ],
    )
    def test_a_field_nothing_reads_is_refused(self, overrides, unread):
        """A nested keyspace dict is built inside the block."""
        with pytest.raises(ConfigurationError, match=f"^{unread}=.* is not read by"):
            WorkloadSpec(
                name="w",
                **{
                    name: KeyspaceSpec(**value) if name == "keyspace" else value
                    for name, value in overrides.items()
                },
            )

    def test_every_builtin_and_the_fixed_interval_spec_build(self):
        for _, spec in specs.items():
            assert replace(spec) == spec
        assert specs.legacy_interval(30.0).interval_ms == 30.0
        with pytest.raises(ConfigurationError, match="rate_per_s"):
            replace(specs.get("open-uniform"), rate_per_s=10.0)

    def test_specs_are_frozen(self):
        spec = specs.get("open-poisson")
        with pytest.raises(AttributeError):
            spec.rate_per_s = 99.0


class TestKeyspaceSpec:
    def test_defaults_are_the_fixed_interval_keyspace(self):
        assert KeyspaceSpec().keys == 16
        assert KeyspaceSpec().mode == "round-robin"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mode": "zipf"},
            {"keys": 0},
            {"mode": "hotspot", "keys": 1},
            {"mode": "hotspot", "hot_fraction": 0.0},
            {"mode": "hotspot", "hot_fraction": 1.0},
            {"mode": "hotspot", "hot_share": 0.0},
            {"mode": "hotspot", "hot_share": 1.5},
        ],
    )
    def test_invalid_keyspaces_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            KeyspaceSpec(**overrides)

    def test_hotspot_shape_accepted(self):
        spec = KeyspaceSpec(mode="hotspot", keys=32, hot_fraction=0.25)
        assert replace(spec, hot_share=1.0).hot_share == 1.0
