"""The protocol registry: API contract plus a conformance suite.

Every registered protocol must build a cluster through the single dispatch
point, elect a leader in the sim harness (when it claims liveness), satisfy
the election-safety invariant, and round-trip through the multiprocessing
sweep runner with bit-identical results.  ``raft-fixed`` deliberately claims
*no* liveness: identical deterministic timeouts collide forever, which is the
Figure 10 argument -- a dedicated test pins the predicted livelock.
"""

import pickle
import re
from pathlib import Path

import pytest

from repro import protocols
from repro.cluster.builder import build_cluster
from repro.cluster.catalog import network_specs
from repro.cluster.scenarios import ElectionScenario
from repro.common.errors import ConfigurationError
from repro.experiments.runner import run_sweep
from repro.protocols import registry as protocol_registry
from repro.raft.node import RaftNode

from helpers import LIVE_PROTOCOLS, registrations

README = Path(__file__).resolve().parents[2] / "README.md"


class TestRegistryApi:
    def test_builtins_are_registered(self):
        assert set(protocols.names()) == {
            "raft", "zraft", "escape", "raft-fixed", "raft-stagger"
        }

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

    @pytest.mark.parametrize("name", LIVE_PROTOCOLS)
    def test_variants_run_under_catalog_conditions(self, name):
        scenario = ElectionScenario(name, 4, **network_specs("geo-two-region"))
        assert scenario.run(seed=3).converged

    def test_raft_fixed_livelocks_as_the_paper_predicts(self):
        """Identical deterministic timeouts collide forever (Fig. 10).

        The bootstrap campaign gives the cluster its first leader; once that
        leader fails, the survivors' equal waits expire together after every
        heartbeat they last heard, and no failover ever completes.
        """
        spec = protocols.get("raft-fixed")
        assert not spec.guarantees_liveness
        scenario = ElectionScenario(protocol="raft-fixed", cluster_size=3)
        for seed in range(20):
            cluster, harness = scenario.build(seed=seed)
            cluster.start_all()
            harness.stabilize()
            harness.run_for(scenario.pre_crash_ms)
            measurement = harness.crash_leader_and_measure(max_election_ms=20_000.0)
            assert not measurement.converged
            assert measurement.split_vote
            # Safety is never at risk -- the cluster just never converges.
            harness.assert_at_most_one_leader_per_term()
            terms = {node.current_term for node in cluster.nodes.values()}
            assert max(terms) > 1  # campaigns kept firing, none won
            cluster.close()

    @staticmethod
    def armed_waits(protocol):
        """Each node's first election-timer delay, per server id."""
        cluster = build_cluster(protocol, size=4)
        waits = {}

        def recording(node_id, rearm):
            def rearm_and_record(handle, delay_ms, callback, label):
                waits[node_id] = delay_ms
                return rearm(handle, delay_ms, callback, label)

            return rearm_and_record

        for node_id, node in cluster.nodes.items():
            node.env.rearm_timer = recording(node_id, node.env.rearm_timer)
        cluster.start_all()
        cluster.close()
        return waits

    def test_the_fixed_baselines_arm_their_own_timeouts(self):
        # raft-fixed: the midpoint of the 1500-3000 ms range.
        assert set(self.armed_waits("raft-fixed").values()) == {2250.0}
        # Eq. 1 with paper defaults (base 1500, k 500): highest id is fastest.
        assert self.armed_waits("raft-stagger") == {
            1: 3000.0, 2: 2500.0, 3: 2000.0, 4: 1500.0
        }


class TestGoldenPairedResults:
    def test_paper_default_results_match_pre_registry_values(self):
        """The registry refactor must not move a single bit.

        Golden values captured from the string-dispatch implementation:
        the first ``run_many`` episode per protocol under the
        ``paper-default`` catalog condition at five servers.  Raft's was
        re-pinned once (1904.5156644603985 ms before) when the harness began
        bootstrapping the first leader, which moves Raft's random stream;
        Z-Raft's and ESCAPE's did not move.
        """
        golden = {
            "raft": (3594564750, 1875.9497762712472, 4),
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


class TestReadmeExample:
    def test_the_adding_a_protocol_example_runs(self, capsys):
        section = README.read_text(encoding="utf-8").split("### Adding a protocol\n", 1)[1]
        (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
        with registrations(protocol_registry):
            exec(compile(code, "README.md", "exec"), {"__name__": "readme_example"})
            assert protocols.get("raft-eager").node_class.protocol_name == "raft-eager"
        assert not protocols.is_registered("raft-eager")
        assert float(capsys.readouterr().out) > 0.0
