"""Cross-registry spec conformance: pickle, hash, ``dataclasses.replace``.

Every value registered with any of the six dispatch registries (protocols,
experiments, network conditions, chaos plans, simulation engines, workloads)
must cross the parallel sweep engine's multiprocessing boundary intact.  This
suite states that contract directly -- one parametrized case per registered
spec -- so registering a new spec anywhere subjects it to the same checks
automatically.  The lint S1 rule enforces the same properties statically;
this is the runtime half, and it reads the registries through the same
:func:`repro.lint.rules_registry.load_registries` S1 does.
"""

import dataclasses
import pickle

import pytest

from repro.common.frozen import FrozenDict
from repro.experiments import registry as experiment_registry
from repro.lint.rules_registry import load_registries

#: ``test_lint_registry_rules.py`` pins that this enumerates six registries.
ALL_SPECS = [
    pytest.param(spec, id=f"{registry_name}:{name}")
    for registry_name, pairs in load_registries().items()
    for name, spec in pairs
]


@pytest.mark.parametrize("spec", ALL_SPECS)
class TestSpecConformance:
    def test_is_frozen_dataclass(self, spec):
        assert dataclasses.is_dataclass(spec)
        assert type(spec).__dataclass_params__.frozen
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.name = "mutated"

    def test_hashes_and_equality_are_stable(self, spec):
        assert hash(spec) == hash(spec)
        assert spec in {spec}

    def test_pickles_bit_for_bit(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)

    def test_replace_round_trips(self, spec):
        clone = dataclasses.replace(spec)
        assert clone == spec
        assert hash(clone) == hash(spec)

    def test_replace_with_change_diverges_and_restores(self, spec):
        renamed = dataclasses.replace(spec, name=spec.name + "-x")
        assert renamed != spec
        restored = dataclasses.replace(renamed, name=spec.name)
        assert restored == spec


class TestExperimentSpecMappings:
    """The FrozenDict fields behind S1's hashability requirement."""

    @pytest.mark.parametrize("name", experiment_registry.names())
    def test_parameter_mappings_are_immutable(self, name):
        spec = experiment_registry.get(name)
        for field in ("params", "quick_params"):
            mapping = getattr(spec, field)
            assert hash(mapping) == hash(mapping)
            with pytest.raises(TypeError):
                mapping["injected"] = 1

    def test_resolved_params_still_returns_a_plain_dict(self):
        spec = experiment_registry.get("fig9")
        resolved = spec.resolved_params()
        assert isinstance(resolved, dict)
        assert resolved == dict(spec.params)

    def test_equal_specs_hash_equal_across_field_order(self):
        first = FrozenDict({"a": 1, "b": 2})
        second = FrozenDict({"b": 2, "a": 1})
        assert first == second
        assert hash(first) == hash(second)

    def test_frozen_dict_refuses_attribute_set_and_delete(self):
        mapping = FrozenDict({"a": 1})
        for mutate in (
            lambda: setattr(mapping, "_data", {}),
            lambda: delattr(mapping, "_data"),
            lambda: delattr(mapping, "_hash"),
        ):
            with pytest.raises(AttributeError, match="FrozenDict is immutable"):
                mutate()
        assert mapping == {"a": 1} and hash(mapping) == hash(FrozenDict(a=1))
