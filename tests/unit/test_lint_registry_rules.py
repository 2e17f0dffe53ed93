"""Fixture tests for the registry rules (S1 spec purity, S2 completeness).

The fixture specs are defined at module level so they pickle by reference --
the point of S1 is that registered values must survive the multiprocessing
boundary, and a fixture that cannot pickle for unrelated reasons would
drown the violation under test.
"""

import dataclasses

from repro.lint.model import DEFAULT_CONFIG
from repro.lint.rules_registry import (
    check_experiment_registry,
    check_registered_specs,
    iter_spec_problems,
    load_registries,
)


# --------------------------------------------------------------------------- #
# S1 fixtures
# --------------------------------------------------------------------------- #
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
    params: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class _CallableSpec:
    name: str
    run: object = None


def _messages(findings):
    return [finding.message for finding in findings]


class TestS1SpecPurity:
    def test_pure_spec_has_no_problems(self):
        assert iter_spec_problems("fx", "pure", _PureSpec("pure")) == []

    def test_non_dataclass_is_flagged(self):
        findings = iter_spec_problems("fx", "raw", {"name": "raw"})
        assert len(findings) == 1
        assert "not a dataclass instance" in findings[0].message

    def test_unfrozen_spec_is_flagged(self):
        findings = iter_spec_problems("fx", "soft", _UnfrozenSpec("soft"))
        assert any("not frozen" in m for m in _messages(findings))

    def test_mutable_default_and_unhashable_field_are_flagged(self):
        findings = iter_spec_problems(
            "fx", "muddy", _MutableDefaultSpec("muddy", params={"k": 1})
        )
        messages = _messages(findings)
        assert any("mutable dict" in m for m in messages)
        assert any("unhashable dict" in m for m in messages)
        assert any("not hashable" in m for m in messages)

    def test_lambda_field_is_flagged_at_the_lambda(self):
        spec = _CallableSpec("sneaky", run=lambda: None)
        findings = iter_spec_problems("fx", "sneaky", spec)
        assert any("lambda/closure" in m for m in _messages(findings))
        # The finding anchors to this test file (where the lambda lives),
        # not to the dataclass definition.
        lambda_finding = next(
            f for f in findings if "lambda/closure" in f.message
        )
        assert lambda_finding.path.endswith("test_lint_registry_rules.py")

    def test_all_six_live_registries_are_pure(self):
        registries = load_registries()
        assert set(registries) == {
            "protocols",
            "experiments",
            "net-conditions",
            "chaos-plans",
            "engines",
            "workloads",
        }
        assert all(pairs for pairs in registries.values())
        assert check_registered_specs(DEFAULT_CONFIG) == []


# --------------------------------------------------------------------------- #
# S2
# --------------------------------------------------------------------------- #
def _s2(modules):
    return check_experiment_registry(DEFAULT_CONFIG, modules=modules)


class TestS2RegistryCompleteness:
    def test_one_registered_experiment_per_module_passes(self):
        from repro.experiments import registry

        assert _s2({"fx_one": {"EXPERIMENT": registry.get("fig3"), "other": 1}}) == []

    def test_a_module_registering_nothing_is_flagged(self):
        # An unregistered declaration does not count: the registry is the
        # dispatch layer, so only what it holds exists.
        from repro.experiments import registry

        spec = dataclasses.replace(registry.get("fig3"), name="fx-loose")
        (finding,) = _s2({"fx_none": {"SPEC": spec}})
        assert finding.rule_id == "S2"
        assert "registers 0 experiments (none)" in finding.message
        assert finding.path.endswith("fx_none.py")

    def test_two_experiments_from_one_module_are_flagged(self):
        from repro.experiments import registry

        namespace = {"A": registry.get("fig3"), "B": registry.get("fig4")}
        messages = _messages(_s2({"fx_two": namespace}))
        assert any("registers 2 experiments (fig3, fig4)" in m for m in messages)

    def test_live_experiment_registry_is_complete(self):
        assert check_experiment_registry(DEFAULT_CONFIG) == []
