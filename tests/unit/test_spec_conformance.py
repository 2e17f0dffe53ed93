"""Cross-registry spec conformance: the reproducibility contract for specs.

Every value registered with any of the six dispatch registries (protocols,
experiments, network conditions, chaos plans, simulation engines, workloads),
every plan a chaos entry builds with its events, and every scenario an
experiment's quick grid builds must cross the parallel sweep engine's
multiprocessing boundary intact.  :func:`assert_conforms` states that
contract once -- a frozen dataclass whose defaults are immutable, whose
callables are module-level and whose fields hash, and which itself hashes,
pickles bit-for-bit and survives ``dataclasses.replace`` -- and one
parametrized case per value applies it, so registering a new spec anywhere
subjects it to the same checks automatically.  The ``classic`` oracle's engine
spec is held to them too: oracle sweeps ship it to their workers.  This suite is the contract's
only home: ``repro.lint`` reads source and never imports the registries.  The
fixture specs below hold the helper to each way a spec can break it.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.common.frozen import FrozenDict
from repro.experiments import registry as experiment_registry

from helpers import load_registries
from oracle import CLASSIC


def _is_local_callable(value: object) -> bool:
    """Whether *value* cannot pickle by reference (a lambda, closure or
    bound method)."""
    if inspect.isfunction(value):
        return value.__name__ == "<lambda>" or "<locals>" in value.__qualname__
    return inspect.ismethod(value)


def _hashes(value: object) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def assert_conforms(spec: object) -> None:
    """Fail unless *spec* can cross the sweep pool bit-for-bit."""
    assert dataclasses.is_dataclass(spec) and not isinstance(spec, type), (
        f"{spec!r} is not a dataclass instance"
    )
    assert type(spec).__dataclass_params__.frozen, (
        f"{type(spec).__name__} is not frozen (mutable after registration)"
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.name = "mutated"
    for field in dataclasses.fields(spec):
        assert field.default_factory not in (list, dict, set), (
            f"{field.name} defaults to a mutable {field.default_factory.__name__}"
        )
        value = getattr(spec, field.name)
        assert not _is_local_callable(value), (
            f"{field.name} holds a lambda/closure; spec callables must be "
            "module-level so they pickle by reference"
        )
        assert _hashes(value), (
            f"{field.name} holds an unhashable {type(value).__name__}"
        )
    assert _hashes(spec) and spec in {spec}, f"{spec!r} is not hashable"
    for label, clone in (
        ("pickling", pickle.loads(pickle.dumps(spec))),
        ("replace", dataclasses.replace(spec)),
    ):
        assert clone == spec and hash(clone) == hash(spec), (
            f"{spec!r} changes under {label}"
        )


REGISTRIES = load_registries()

REGISTERED = [
    *(
        pytest.param(spec, id=f"{registry_name}:{name}")
        for registry_name, pairs in REGISTRIES.items()
        for name, spec in pairs
    ),
    pytest.param(CLASSIC, id="engines:classic"),
]


def _built_plans():
    """What each chaos entry ships across the pool: the plan it builds (a
    short horizon keeps it cheap) and that plan's events."""
    for name, entry in REGISTRIES["chaos-plans"]:
        plan = entry.build(horizon_ms=30_000.0, seed=0)
        yield pytest.param(plan, id=f"chaos-plans:{name}:plan")
        for index, event in enumerate(plan.events):
            yield pytest.param(event, id=f"chaos-plans:{name}:event[{index}]")


def _quick_scenarios():
    """What a sweep ships to a worker: each experiment's quick-grid scenarios."""
    for name, spec in REGISTRIES["experiments"]:
        for label, scenario in spec.build_scenarios(**spec.quick_params).items():
            yield pytest.param(scenario, id=f"experiments:{name}:{label}")


class TestSpecConformance:
    def test_exactly_the_six_registries_are_enumerated(self):
        assert set(REGISTRIES) == {
            "protocols",
            "experiments",
            "net-conditions",
            "chaos-plans",
            "engines",
            "workloads",
        }
        assert all(pairs for pairs in REGISTRIES.values())

    @pytest.mark.parametrize(
        "spec", [*REGISTERED, *_built_plans(), *_quick_scenarios()]
    )
    def test_crosses_the_pool_intact(self, spec):
        assert_conforms(spec)

    @pytest.mark.parametrize("spec", REGISTERED)
    def test_replace_with_change_diverges_and_restores(self, spec):
        renamed = dataclasses.replace(spec, name=spec.name + "-x")
        assert renamed != spec
        restored = dataclasses.replace(renamed, name=spec.name)
        assert restored == spec


# Module-level so they pickle by reference: a fixture that cannot pickle for
# an unrelated reason would hide the violation under test.
@dataclasses.dataclass(frozen=True)
class _PureSpec:
    name: str
    sizes: tuple = (3, 5)


@dataclasses.dataclass
class _UnfrozenSpec:
    name: str


@dataclasses.dataclass(frozen=True)
class _MutableDefaultSpec:
    name: str
    params: object = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class _CallableSpec:
    name: str
    run: object = None


class TestConformanceHelper:
    def test_a_pure_spec_conforms(self):
        assert_conforms(_PureSpec("pure"))

    def test_a_plain_dict_is_rejected(self):
        with pytest.raises(AssertionError, match="is not a dataclass instance"):
            assert_conforms({"name": "raw"})

    def test_an_unfrozen_spec_is_rejected(self):
        with pytest.raises(AssertionError, match="_UnfrozenSpec is not frozen"):
            assert_conforms(_UnfrozenSpec("soft"))

    def test_a_mutable_default_is_rejected(self):
        # This instance hashes and pickles; the next one built with the
        # default would not.
        spec = _MutableDefaultSpec("muddy", params=FrozenDict(k=1))
        with pytest.raises(AssertionError, match="params defaults to a mutable dict"):
            assert_conforms(spec)

    def test_an_unhashable_field_is_rejected(self):
        with pytest.raises(AssertionError, match="sizes holds an unhashable list"):
            assert_conforms(_PureSpec("lumpy", sizes=[3, 5]))

    def test_a_lambda_field_is_rejected(self):
        with pytest.raises(AssertionError, match="run holds a lambda/closure"):
            assert_conforms(_CallableSpec("sneaky", run=lambda: None))


class TestExperimentSpecMappings:
    """The FrozenDict fields behind the hashability requirement."""

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
