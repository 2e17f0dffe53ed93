"""Property-based end-to-end safety tests.

Hypothesis drives whole simulated clusters through randomized conditions
(protocol, size, latency spread, message loss, crash timing) and checks the
invariants that must hold regardless of parameters:

* election safety -- at most one leader is elected per term;
* log matching -- committed prefixes agree across running nodes;
* ESCAPE-specific -- without faults, ESCAPE never splits votes and converges.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import ElectionScenario
from repro.net.faults import BroadcastOmissionFault

scenario_parameters = st.fixed_dictionaries(
    {
        "protocol": st.sampled_from(["raft", "escape", "zraft"]),
        "cluster_size": st.integers(min_value=3, max_value=9),
        "loss_rate": st.sampled_from([0.0, 0.0, 0.2, 0.4]),
        "seed": st.integers(min_value=0, max_value=2**31 - 1),
    }
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestClusterSafetyProperties:
    @given(scenario_parameters)
    # A leader may trail a campaign at a higher term (S7 leads at term 16
    # while S8 campaigns at term 17); one leader per term still holds.
    @example({"protocol": "zraft", "cluster_size": 9, "loss_rate": 0.4, "seed": 623})
    @SETTINGS
    def test_at_most_one_leader_per_term_under_any_conditions(self, params):
        params = dict(params)
        seed = params.pop("seed")
        loss_rate = params.pop("loss_rate")
        scenario = ElectionScenario(
            fault=BroadcastOmissionFault(loss_rate) if loss_rate else None,
            workload_interval_ms=200.0 if loss_rate else 0.0,
            **params,
        )
        cluster, harness = scenario.build(seed)
        cluster.start_all()
        harness.stabilize()
        harness.run_for(500.0)
        harness.crash_leader_and_measure(seed=seed, max_election_ms=60_000.0)
        harness.assert_at_most_one_leader_per_term()
        assert harness.committed_prefixes_consistent()

    @given(
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @SETTINGS
    def test_escape_without_faults_always_converges_without_split_votes(
        self, cluster_size, seed
    ):
        scenario = ElectionScenario(protocol="escape", cluster_size=cluster_size)
        measurement = scenario.run(seed)
        assert measurement.converged
        assert not measurement.split_vote
        assert measurement.total_ms < 10_000.0
