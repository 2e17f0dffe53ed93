"""Cross-registry spec conformance: pickle, hash, ``dataclasses.replace``.

Every value registered with any of the five dispatch registries (protocols,
experiments, network conditions, chaos plans, simulation engines) must cross
the parallel sweep engine's multiprocessing boundary intact.  This suite states that contract
directly -- one parametrized case per registered spec -- so registering a new
spec anywhere subjects it to the same checks automatically.  The lint S1
rule enforces the same properties statically; this is the runtime half.
"""

import dataclasses
import pickle

import pytest

from repro.chaos import plans as chaos_plans
from repro.cluster import catalog as net_catalog
from repro.experiments import registry as experiment_registry
from repro.experiments.spec import ExperimentSpec
from repro.protocols import registry as protocol_registry
from repro.sim import engines as engine_registry


def _all_registered():
    import repro.experiments  # noqa: F401 - importing registers the specs

    cases = []
    for registry_name, pairs in (
        ("protocols", protocol_registry.registered_specs()),
        ("experiments", experiment_registry.registered_specs()),
        ("net-conditions", net_catalog.registered_specs()),
        ("chaos-plans", chaos_plans.registered_specs()),
        ("engines", engine_registry.registered_specs()),
    ):
        cases.extend(
            pytest.param(spec, id=f"{registry_name}:{name}")
            for name, spec in pairs
        )
    return cases


ALL_SPECS = _all_registered()


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

    @pytest.mark.parametrize(
        "name", [spec.name for spec in experiment_registry.specs()]
    )
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
        first = ExperimentSpec(
            name="fx-order",
            title="fixture",
            run=_fixture_run,
            reporter=_fixture_report,
            params={"a": 1, "b": 2},
        )
        second = ExperimentSpec(
            name="fx-order",
            title="fixture",
            run=_fixture_run,
            reporter=_fixture_report,
            params={"b": 2, "a": 1},
        )
        assert first == second
        assert hash(first) == hash(second)


def _fixture_run(*, runs, seed, workers=None, progress=None):
    return None


def _fixture_report(result) -> str:
    return "fixture"
