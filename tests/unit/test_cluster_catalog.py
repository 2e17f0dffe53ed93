"""Unit tests for the named scenario catalog.

The acceptance bar for the catalog is operational: every condition must build
a runnable scenario whose network runs on the condition's own model objects,
pickle round-trip (the process pool ships scenarios to workers), and produce
bit-for-bit identical sweep results at any worker count.
"""

import pickle

import pytest

from repro.cluster.catalog import CATALOG, NetworkCondition, network_specs
from repro.cluster.scenarios import ElectionScenario
from repro.experiments.runner import run_sweep
from repro.net.faults import NoFault, bind
from repro.net.latency import GeoGroupLatency, UniformLatency


def _scenario(name: str, protocol: str, size: int, **fields) -> ElectionScenario:
    return ElectionScenario(protocol, size, **network_specs(name), **fields)


def _one_scenario_per_condition(protocol: str, size: int) -> dict[str, ElectionScenario]:
    return {name: _scenario(name, protocol, size) for name in CATALOG.names()}


class TestCatalogContents:
    def test_catalog_has_the_documented_breadth(self):
        assert {
            "paper-default",
            "geo-two-region",
            "heavy-tail",
            "lossy-unicast",
            "dup-heavy-udp",
            "chaos-composite",
        } <= set(CATALOG.names())

    def test_names_and_keys_agree(self):
        for name, condition in CATALOG.items():
            assert condition.name == name
            assert condition.description

    def test_paper_default_matches_the_testbed(self):
        scenario = _scenario("paper-default", "raft", 5)
        assert scenario.latency_model() == UniformLatency(100.0, 200.0)
        assert isinstance(scenario.fault_injector(), NoFault)


class TestNetworkSpecs:
    def test_layers_the_condition_under_any_other_field(self):
        scenario = _scenario("geo-two-region", "escape", 8, workload_interval_ms=50.0)
        assert scenario.protocol == "escape"
        assert scenario.cluster_size == 8
        assert scenario.workload_interval_ms == 50.0
        model = scenario.latency_model()
        assert isinstance(model, GeoGroupLatency)
        assert len(set(model.regions.values())) == 2

    def test_no_condition_means_no_keywords(self):
        assert network_specs(None) == {}

    @pytest.mark.parametrize("name", CATALOG.names())
    def test_no_condition_reads_as_the_papers_broadcast_loss(self, name):
        """``loss_rate`` is Δ of a bare broadcast omission only, as in Figure 11."""
        assert _scenario(name, "raft", 5).loss_rate == 0.0

    @pytest.mark.parametrize("size", [3, 5, 9])
    @pytest.mark.parametrize("name", CATALOG.names())
    def test_the_network_runs_on_the_conditions_own_objects(self, name, size):
        """The value a user configures is the value that runs."""
        condition = CATALOG.get(name)
        scenario = _scenario(name, "escape", size)
        assert scenario.latency is condition.latency
        assert scenario.fault is condition.fault
        cluster, _harness = scenario.build(seed=0)
        assert cluster.config.size == size
        latency = cluster.network._latency  # the network exposes only its fault
        if isinstance(latency, GeoGroupLatency):
            assert latency == bind(condition.latency, cluster.config.server_ids)
        else:
            assert latency is condition.latency
        # No catalog fault depends on the membership; a composite is rebuilt
        # around the same parts.
        assert cluster.network.fault == condition.fault
        assert type(cluster.network.fault) is type(condition.fault)


class TestPicklability:
    @pytest.mark.parametrize("name", CATALOG.names())
    def test_condition_round_trips(self, name):
        condition = CATALOG.get(name)
        clone = pickle.loads(pickle.dumps(condition))
        assert clone == condition
        assert isinstance(clone, NetworkCondition)

    @pytest.mark.parametrize("size", [3, 5, 9])
    @pytest.mark.parametrize("name", CATALOG.names())
    def test_catalog_scenario_round_trips_and_hashes(self, name, size):
        scenario = _scenario(name, "escape", size)
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario
        assert hash(clone) == hash(scenario)
        # The clone runs on the same network models (what a pool worker
        # actually uses).
        assert clone.latency_model() == scenario.latency_model()
        assert clone.fault_injector() == scenario.fault_injector()


class TestParallelDeterminism:
    def test_every_catalog_scenario_is_pool_deterministic(self):
        """Acceptance: workers=2 must reproduce workers=1 bit-for-bit."""
        scenarios = _one_scenario_per_condition("escape", 3)
        sequential = run_sweep(scenarios, runs=2, seed=5, workers=1)
        parallel = run_sweep(scenarios, runs=2, seed=5, workers=2)
        assert list(sequential) == list(parallel)
        for name in scenarios:
            assert sequential[name].measurements == parallel[name].measurements
