"""Unit tests for :class:`repro.common.registry.Registry` and its six users."""

from dataclasses import dataclass

import pytest

from repro import protocols
from repro.chaos.plans import build_plan
from repro.cluster.catalog import network_specs
from repro.common.errors import ConfigurationError
from repro.common.registry import Registry
from repro.experiments import registry as experiments
from repro.sim import engines
from repro.workload import specs as workloads

from helpers import load_registries


@dataclass(frozen=True)
class _Spec:
    name: str
    payload: int = 0


def _registry() -> Registry[_Spec]:
    return Registry("widget", (_Spec("zeta"), _Spec("alpha"), _Spec("mid")))


class TestRegistry:
    def test_names_and_items_keep_registration_order(self):
        registry = _registry()
        assert registry.names() == ("zeta", "alpha", "mid")
        assert registry.items() == (
            ("zeta", _Spec("zeta")),
            ("alpha", _Spec("alpha")),
            ("mid", _Spec("mid")),
        )

    def test_register_returns_the_spec_and_get_finds_it(self):
        registry = _registry()
        spec = _Spec("late", payload=7)
        assert registry.register(spec) is spec
        assert registry.get("late") is spec
        assert registry.names()[-1] == "late"

    def test_membership(self):
        registry = _registry()
        assert "alpha" in registry
        assert "omega" not in registry

    def test_a_duplicate_name_is_rejected(self):
        registry = _registry()
        with pytest.raises(
            ConfigurationError, match="widget 'alpha' is already registered"
        ):
            registry.register(_Spec("alpha", payload=1))
        assert registry.get("alpha").payload == 0

    def test_replace_overwrites_in_place(self):
        registry = _registry()
        replacement = _Spec("alpha", payload=1)
        assert registry.register(replacement, replace=True) is replacement
        assert registry.get("alpha") is replacement
        assert registry.names() == ("zeta", "alpha", "mid")

    @pytest.mark.parametrize("bad", ["", "two words", "a,b", "tab\tbed", "line\n"])
    def test_names_the_cli_cannot_carry_are_rejected(self, bad):
        registry = _registry()
        with pytest.raises(ConfigurationError, match="widget name .* must be non-empty"):
            registry.register(_Spec(bad))
        with pytest.raises(ConfigurationError, match="must be non-empty"):
            Registry("widget", (_Spec(bad),))
        assert bad not in registry

    def test_an_unknown_name_lists_the_registered_ones_in_order(self):
        with pytest.raises(ConfigurationError) as raised:
            _registry().get("omega")
        assert str(raised.value) == (
            "unknown widget 'omega'; registered: zeta, alpha, mid"
        )


#: Per registry, as ``load_registries`` keys it: the kind its errors name and
#: the lookup a user reaches it through.
LOOKUPS = {
    "protocols": ("protocol", protocols.get),
    "experiments": ("experiment", experiments.get),
    "net-conditions": ("scenario condition", network_specs),
    "chaos-plans": ("chaos plan", build_plan),
    "engines": ("engine", engines.get),
    "workloads": ("workload", workloads.get),
}


class TestTheSixRegistries:
    def test_every_registry_has_a_lookup_case(self):
        assert set(LOOKUPS) == set(load_registries())

    @pytest.mark.parametrize("registry", LOOKUPS)
    def test_an_unknown_name_names_the_kind_and_every_registered_name(self, registry):
        kind, lookup = LOOKUPS[registry]
        names = [name for name, _ in load_registries()[registry]]
        with pytest.raises(ConfigurationError) as raised:
            lookup("no-such-name")
        assert str(raised.value) == (
            f"unknown {kind} 'no-such-name'; registered: {', '.join(names)}"
        )
