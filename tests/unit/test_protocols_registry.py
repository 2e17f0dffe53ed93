"""The protocol registry: API contract plus a conformance suite.

Every registered protocol must build a cluster through the single dispatch
point, elect a leader in the sim harness (when it claims liveness), satisfy
the election-safety invariant, and round-trip through the multiprocessing
sweep runner with bit-identical results.  ``raft-fixed`` deliberately claims
*no* liveness: identical deterministic timeouts collide forever, which is the
Figure 10 argument -- a dedicated test pins the predicted livelock.
"""

import pickle

import pytest

from repro import protocols
from repro.cluster.builder import build_cluster
from repro.cluster.catalog import network_specs
from repro.cluster.scenarios import ElectionScenario
from repro.common.errors import ClusterError, ConfigurationError
from repro.escape.node import EscapeNode
from repro.experiments.runner import run_sweep
from repro.protocols import registry as protocol_registry
from repro.raft.node import RaftNode
from repro.raft.timers import FixedTimeoutPolicy
from repro.zraft.node import ZRaftNode

from helpers import registrations

LIVE_PROTOCOLS = [
    name for name, spec in protocols.items() if spec.guarantees_liveness
]


class TestRegistryApi:
    def test_builtins_are_registered(self):
        assert {"raft", "zraft", "escape"} <= set(protocols.names())
        assert {"raft-fixed", "raft-stagger", "escape-noppf"} <= set(
            protocols.names()
        )

    def test_get_unknown_name_lists_registered_names(self):
        with pytest.raises(ConfigurationError) as excinfo:
            protocols.get("nope")
        message = str(excinfo.value)
        assert "nope" in message
        for name in protocols.names():
            assert name in message

    def test_duplicate_registration_rejected_unless_replace(self):
        spec = protocols.get("raft")
        with pytest.raises(ConfigurationError, match="already registered"):
            protocols.register(spec)
        assert protocols.register(spec, replace=True) is spec

    def test_register_round_trip(self):
        custom = protocols.ProtocolSpec(
            name="test-custom",
            node_class=RaftNode,
            title="Custom",
            description="a test-only variant",
        )
        with registrations(protocol_registry):
            assert protocols.register(custom) is custom
            assert protocols.is_registered("test-custom")
            assert protocols.get("test-custom") is custom
        assert not protocols.is_registered("test-custom")

    def test_validated_accepts_registered_and_rejects_unknown(self):
        assert protocols.validated("raft", "escape") == ("raft", "escape")
        with pytest.raises(ConfigurationError):
            protocols.validated("raft", "not-a-protocol")

    def test_titles_and_fallback(self):
        assert protocols.title("zraft") == "Z-Raft"
        assert protocols.title("unregistered-name") == "unregistered-name"

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            protocols.register(
                protocols.ProtocolSpec(
                    name="has space", node_class=RaftNode, title="x"
                )
            )
        with pytest.raises(ConfigurationError, match="RaftNode subclass"):
            protocols.ProtocolSpec(name="x", node_class=dict, title="x")

    @pytest.mark.parametrize("node_class", [EscapeNode, ZRaftNode])
    def test_a_policy_is_refused_where_no_node_reads_it(self, node_class):
        # Their timeouts come from the configuration (Eq. 1), never a policy.
        with pytest.raises(ConfigurationError, match="_hook_election_timeout_ms"):
            protocols.ProtocolSpec(
                name="x",
                node_class=node_class,
                title="x",
                default_timeout_policy=protocol_registry._fixed_midpoint_policy,
            )

    def test_specs_pickle_by_reference(self):
        for _, spec in protocols.items():
            assert pickle.loads(pickle.dumps(spec)) == spec


class TestCustomSpecEndToEnd:
    def test_custom_spec_round_trips_through_the_sweep_pool(self):
        """Worker processes mirror the parent's registrations.

        On ``fork`` platforms workers inherit the registry anyway; the pool
        initializer makes the same sweep work under ``spawn``, where workers
        re-import :mod:`repro.protocols` and would otherwise only know the
        built-ins.
        """
        with registrations(protocol_registry):
            protocols.register(
                protocols.ProtocolSpec(
                    name="test-pool-raft",
                    node_class=RaftNode,
                    title="Pool Raft",
                )
            )
            scenarios = {
                "custom": ElectionScenario(protocol="test-pool-raft", cluster_size=3)
            }
            sequential = run_sweep(scenarios, runs=2, seed=3, workers=1)
            parallel = run_sweep(scenarios, runs=2, seed=3, workers=2)
            assert (
                sequential["custom"].measurements == parallel["custom"].measurements
            )

    def test_registered_custom_spec_builds_and_elects(self):
        with registrations(protocol_registry):
            protocols.register(
                protocols.ProtocolSpec(
                    name="test-slow-raft",
                    node_class=RaftNode,
                    title="Slow Raft",
                    description="plain Raft under another name",
                )
            )
            scenario = ElectionScenario(protocol="test-slow-raft", cluster_size=3)
            measurement = scenario.run(seed=2)
            assert measurement.converged
            assert measurement.protocol == "test-slow-raft"

    def test_scenario_rejects_unregistered_protocol_at_construction(self):
        with pytest.raises(ConfigurationError, match="registered"):
            ElectionScenario(protocol="test-slow-raft", cluster_size=3)


class TestConformance:
    @pytest.mark.parametrize("name", protocols.names())
    def test_builds_the_spec_node_class(self, name):
        spec = protocols.get(name)
        cluster = build_cluster(name, size=3)
        assert cluster.protocol == name
        assert all(type(node) is spec.node_class for node in cluster.nodes.values())

    @pytest.mark.parametrize("name", LIVE_PROTOCOLS)
    def test_elects_a_leader_and_preserves_safety(self, name):
        measurement = ElectionScenario(protocol=name, cluster_size=3).run(seed=4)
        # scenario.run already asserts at-most-one-leader-per-term.
        assert measurement.converged
        assert measurement.winner_id is not None

    @pytest.mark.parametrize("name", LIVE_PROTOCOLS)
    def test_sweep_round_trip_is_bit_identical_across_workers(self, name):
        scenarios = {name: ElectionScenario(protocol=name, cluster_size=3)}
        sequential = run_sweep(scenarios, runs=2, seed=11, workers=1)
        parallel = run_sweep(scenarios, runs=2, seed=11, workers=2)
        assert sequential[name].measurements == parallel[name].measurements

    @pytest.mark.parametrize("name", ["raft-stagger", "escape-noppf"])
    def test_variants_run_under_catalog_conditions(self, name):
        scenario = ElectionScenario(name, 4, **network_specs("geo-two-region"))
        assert scenario.run(seed=3).converged

    def test_raft_fixed_livelocks_as_the_paper_predicts(self):
        """Identical deterministic timeouts collide forever (Fig. 10)."""
        spec = protocols.get("raft-fixed")
        assert not spec.guarantees_liveness
        scenario = ElectionScenario(protocol="raft-fixed", cluster_size=3)
        cluster, harness = scenario.build(seed=4)
        cluster.start_all()
        with pytest.raises(ClusterError, match="no leader"):
            harness.stabilize(max_time_ms=20_000.0)
        # Safety is never at risk -- the cluster just never converges.
        harness.assert_at_most_one_leader_per_term()
        terms = {node.current_term for node in cluster.nodes.values()}
        assert max(terms) > 1  # campaigns kept firing, none won

    def test_default_policies_reach_the_nodes(self):
        fixed = build_cluster("raft-fixed", size=4)
        assert all(
            isinstance(node.timeout_policy, FixedTimeoutPolicy)
            for node in fixed.nodes.values()
        )
        timeouts = {
            node.timeout_policy.timeout_ms for node in fixed.nodes.values()
        }
        assert timeouts == {2250.0}  # midpoint of the 1500-3000 ms range

        stagger = build_cluster("raft-stagger", size=4)
        ladder = {
            node_id: node.timeout_policy.timeout_ms
            for node_id, node in stagger.nodes.items()
        }
        # Eq. 1 with paper defaults (base 1500, k 500): highest id is fastest.
        assert ladder == {1: 3000.0, 2: 2500.0, 3: 2000.0, 4: 1500.0}

    def test_escape_noppf_never_starts_a_patrol(self):
        scenario = ElectionScenario(protocol="escape-noppf", cluster_size=3)
        cluster, harness = scenario.build(seed=6)
        cluster.start_all()
        harness.stabilize()
        leader = cluster.leader()
        assert leader is not None and leader.patrol is None
        assert all(
            node.configuration.conf_clock == 0 for node in cluster.nodes.values()
        )


class TestGoldenPairedResults:
    def test_paper_default_results_match_pre_registry_values(self):
        """The registry refactor must not move a single bit.

        Golden values captured from the string-dispatch implementation:
        the first ``run_many`` episode per protocol under the
        ``paper-default`` catalog condition at five servers.
        """
        golden = {
            "raft": (3594564750, 1934.9910609358967, 4),
            "zraft": (3594564750, 2321.8354988627807, 4),
            "escape": (3594564750, 1829.077887171983, 1),
        }
        for protocol, (seed, total_ms, winner) in golden.items():
            scenario = ElectionScenario(protocol, 5, **network_specs("paper-default"))
            measurement = scenario.run_many(1, 0, label="golden")[0]
            assert measurement.seed == seed
            assert measurement.total_ms == total_ms
            assert measurement.winner_id == winner


class TestTimeoutScript:
    @pytest.mark.parametrize("name", protocols.names())
    def test_the_script_reaches_every_node(self, name):
        cluster = build_cluster(name, size=3, timeout_script=(1_234.0,))
        assert all(
            node.timeout_script == (1_234.0,) for node in cluster.nodes.values()
        )
