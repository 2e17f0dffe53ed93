"""Unit tests for the reusable scenarios: the shared base and the election episode."""

import dataclasses
import gc
import pickle
from functools import partial

import pytest

from repro.chaos.plans import build_plan
from repro.chaos.scenario import ChaosScenario
from repro.cluster.scenarios import ElectionScenario, Scenario
from repro.common.config import ScaParameters
from repro.common.errors import ConfigurationError
from repro.common.rng import SeedSequence, paired_seeds
from repro.net.faults import (
    BroadcastOmissionFault,
    CompositeFault,
    MessageDuplicationFault,
    NoFault,
    PacketLossFault,
)
from repro.net.latency import GeoGroupLatency, GeoLatencySpec, UniformLatency
from repro.workload.scenario import ThroughputScenario

from oracle import CLASSIC

_PLAN = build_plan("repeated-leader-kill", horizon_ms=10_000.0, seed=0)

#: One constructor per scenario type, taking the shared condition's keywords.
SCENARIO_TYPES = {
    "election": ElectionScenario,
    "chaos": partial(ChaosScenario, plan=_PLAN),
    "throughput": partial(ThroughputScenario, plan=_PLAN),
}


class TestOneConditionBase:
    """The shared condition is declared once and every episode kind runs on it."""

    SHARED = {spec.name for spec in dataclasses.fields(Scenario)}

    def test_the_shared_fields_are_the_documented_condition(self):
        assert self.SHARED == {
            "protocol", "cluster_size", "raft_timeout_range", "sca",
            "heartbeat_interval_ms", "latency", "fault", "trace", "telemetry",
            "engine",
        }  # fmt: skip

    @pytest.mark.parametrize(
        "scenario_type", [ElectionScenario, ChaosScenario, ThroughputScenario]
    )
    def test_no_subclass_redeclares_a_field(self, scenario_type):
        declared: dict[str, type] = {}
        for cls in reversed(scenario_type.__mro__[:-1]):
            for name in vars(cls).get("__annotations__", {}):
                assert name not in declared, (
                    f"{cls.__name__}.{name} re-declares {declared[name].__name__}'s"
                )
                declared[name] = cls
        assert set(declared) == {
            spec.name for spec in dataclasses.fields(scenario_type)
        }

    @pytest.mark.parametrize("kind", SCENARIO_TYPES)
    def test_every_type_exposes_the_run_template_and_variants(self, kind):
        scenario = SCENARIO_TYPES[kind]("escape", 3)
        assert scenario.engine == "flat"
        for variant in (
            dataclasses.replace(scenario, protocol="raft"),
            scenario.with_engine(CLASSIC),
            scenario.with_telemetry(),
        ):
            assert type(variant) is type(scenario) and variant != scenario
        measurement = scenario.run(seed=3)
        traced, records = scenario.with_telemetry().run_traced(seed=3)
        assert records and "telemetry" in traced.extra
        del traced.extra["telemetry"]
        assert traced == measurement  # neither tracing nor telemetry perturbs
        assert scenario.run_many(2, base_seed=1, label="x") == [
            scenario.run(seed) for seed in paired_seeds(2, 1, "x")
        ]

    @pytest.mark.parametrize(
        "bad_fields, message",
        [
            (lambda: {"raft_timeout_range": (3000.0, 1500.0)}, "timeout range"),
            (lambda: {"latency": UniformLatency(200.0, 100.0)}, "latency range"),
            (lambda: {"fault": BroadcastOmissionFault(1.5)}, "loss_rate"),
            (lambda: {"fault": BroadcastOmissionFault(-0.5)}, "loss_rate"),
            (lambda: {"heartbeat_interval_ms": -5.0}, "heartbeat_interval_ms"),
            (lambda: {"sca": ScaParameters(100.0, 10.0)}, "heartbeat_interval_ms"),
            (lambda: {"cluster_size": 0}, "cluster size"),
            (lambda: {"latency": GeoLatencySpec(region_count=4)}, "region_count"),
            (lambda: {"latency": UniformLatency(float("nan"), 200.0)}, "low_ms"),
        ],
        ids=[
            "timeout-range", "latency-range", "loss-above-1", "loss-below-0",
            "heartbeat", "heartbeat-above-sca-base", "cluster-size", "geo-regions",
            "nan",
        ],
    )  # fmt: skip
    @pytest.mark.parametrize("kind", SCENARIO_TYPES)
    def test_every_range_is_checked_at_construction(self, kind, bad_fields, message):
        """Fail-fast: in the build phase, not as a SweepError from episode one.

        A network condition is checked by its own model as it is built, so
        each bad condition is built inside the ``raises`` block."""
        with pytest.raises(ConfigurationError, match=message):
            fields = {"protocol": "raft", "cluster_size": 3, **bad_fields()}
            SCENARIO_TYPES[kind](**fields)

    def test_negative_contention_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="contention_phases"):
            ElectionScenario(protocol="raft", cluster_size=5, contention_phases=-1)

    def test_election_view_of_a_throughput_scenario_copies_every_shared_field(self):
        scenario = ThroughputScenario(
            "zraft",
            7,
            plan=_PLAN,
            latency=UniformLatency(10.0, 20.0),
            fault=BroadcastOmissionFault(0.1),
            engine=CLASSIC,
            telemetry=True,
        )
        view = scenario.election_scenario()
        assert type(view) is ElectionScenario
        for name in self.SHARED:
            assert getattr(view, name) == getattr(scenario, name), name


class TestScenarioConfiguration:
    def test_protocol_config_reflects_scenario_fields(self):
        scenario = ElectionScenario(
            protocol="raft",
            cluster_size=5,
            raft_timeout_range=(1500.0, 6000.0),
            heartbeat_interval_ms=100.0,
            sca=ScaParameters(1500.0, 250.0),
        )
        config = scenario.protocol_config()
        assert config.raft_timeouts.timeout_max_ms == 6000.0
        assert config.heartbeat_interval_ms == 100.0
        assert config.sca.k_ms == 250.0

    def test_latency_model_uses_range(self):
        scenario = ElectionScenario(
            protocol="raft", cluster_size=5, latency=UniformLatency(10.0, 20.0)
        )
        assert scenario.latency_model() is scenario.latency
        default = ElectionScenario(protocol="raft", cluster_size=5).latency_model()
        assert default == UniformLatency(100.0, 200.0)

    def test_fault_injector_depends_on_loss_rate(self):
        assert isinstance(
            ElectionScenario(protocol="raft", cluster_size=5).fault_injector(), NoFault
        )
        scenario = ElectionScenario(
            protocol="raft", cluster_size=5, fault=BroadcastOmissionFault(0.3)
        )
        assert scenario.fault_injector() is scenario.fault

    @pytest.mark.parametrize(
        "fault, loss_rate",
        [
            (None, 0.0),
            (NoFault(), 0.0),
            (BroadcastOmissionFault(0.2), 0.2),
            (BroadcastOmissionFault(0.4, affect_unicast=True), 0.4),
            (PacketLossFault(0.1), 0.0),
            (MessageDuplicationFault(0.3), 0.0),
            (
                CompositeFault(
                    injectors=(BroadcastOmissionFault(0.2), PacketLossFault(0.05))
                ),
                0.0,
            ),
        ],
        ids=[
            "none", "no-fault", "omission", "omission-unicast", "packet-loss",
            "duplication", "composite",
        ],
    )  # fmt: skip
    def test_loss_rate_is_the_broadcast_omission_rate(self, fault, loss_rate):
        """Δ of Section VI-D, derived from the fault: what Figure 11 groups by."""
        scenario = ElectionScenario(protocol="raft", cluster_size=5, fault=fault)
        assert scenario.loss_rate == loss_rate

    @pytest.mark.parametrize(
        "timeout_range", [(500.0, 800.0), (1500.0, 3000.0), (4000.0, 9000.0)]
    )
    def test_a_contention_script_falls_back_to_the_configured_range(self, timeout_range):
        scenario = ElectionScenario(
            protocol="raft",
            cluster_size=5,
            raft_timeout_range=timeout_range,
            contention_phases=2,
        )
        script = scenario._timeout_script(seed=4)
        low, high = timeout_range
        assert len(script) == 2 and script[0] == script[1]
        assert low <= script[0] <= high
        cluster, _ = scenario.build(seed=4)
        # After the script, each node draws from the scenario's own range.
        assert all(
            node.timeout_script == script
            and (node._timeout_low, node._timeout_span) == (low, high - low)
            for node in cluster.nodes.values()
        )

    def test_no_contention_scripts_no_timeout(self):
        scenario = ElectionScenario(protocol="raft", cluster_size=5)
        assert scenario._timeout_script(seed=4) == ()

    def test_a_policy_protocol_keeps_its_own_timeouts_after_the_script(self):
        # raft-stagger's nodes wait their Eq. 1 ladder value, not a Raft draw,
        # once the contention script is spent.
        seed = 4
        scenario = ElectionScenario("raft-stagger", 4, contention_phases=1)
        cluster, harness = scenario.build(seed)
        waits = {server_id: [] for server_id in cluster.nodes}

        def recording(rearm, armed):
            def rearm_and_record(handle, delay_ms, callback, label):
                if label == "election-timeout":
                    armed.append(delay_ms)
                return rearm(handle, delay_ms, callback, label)

            return rearm_and_record

        for server_id, node in cluster.nodes.items():
            node.env.rearm_timer = recording(node.env.rearm_timer, waits[server_id])
        cluster.start_all()
        (collision,) = {armed[0] for armed in waits.values()}
        harness.run_for(collision + 1.0)
        ladder = {1: 3000.0, 2: 2500.0, 3: 2000.0, 4: 1500.0}
        assert {server_id: armed[1] for server_id, armed in waits.items()} == ladder
        for server_id, node in cluster.nodes.items():
            fresh = SeedSequence(seed).stream("node", server_id)
            assert node.env.rng.getstate() == fresh.getstate()  # no draw
        cluster.close()


class TestScenarioSpecs:
    def test_latency_spec_takes_precedence_over_range(self):
        scenario = ElectionScenario(
            protocol="raft", cluster_size=6, latency=GeoLatencySpec(region_count=2)
        )
        model = scenario.latency_model()
        assert isinstance(model, GeoGroupLatency)
        assert set(model.regions) == set(range(1, 7))

    def test_a_fault_model_is_the_injector_that_runs(self):
        scenario = ElectionScenario(
            protocol="raft", cluster_size=5, fault=MessageDuplicationFault(0.4)
        )
        assert scenario.fault_injector() is scenario.fault

    def test_spec_carrying_scenario_pickles(self):
        scenario = ElectionScenario(
            protocol="escape",
            cluster_size=9,
            latency=GeoLatencySpec(region_count=3),
            fault=MessageDuplicationFault(0.2),
        )
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario
        assert clone.latency_model() == scenario.latency_model()

    def test_spec_scenario_runs_deterministically(self):
        scenario = ElectionScenario(
            protocol="escape",
            cluster_size=6,
            latency=GeoLatencySpec(region_count=2),
        )
        first = scenario.run(seed=11)
        second = scenario.run(seed=11)
        assert first.total_ms == second.total_ms
        assert first.converged

    def test_measurement_extra_records_the_specs(self):
        scenario = ElectionScenario(
            protocol="escape",
            cluster_size=4,
            latency=GeoLatencySpec(region_count=2),
            fault=MessageDuplicationFault(0.2),
        )
        measurement = scenario.run(seed=5)
        assert measurement.extra["latency_spec"] == repr(
            GeoLatencySpec(region_count=2)
        )
        assert measurement.extra["fault_spec"] == "MessageDuplicationFault(rate=0.2)"


class TestScenarioRuns:
    def test_run_is_deterministic_for_a_seed(self):
        scenario = ElectionScenario(protocol="escape", cluster_size=5)
        first = scenario.run(seed=123)
        second = scenario.run(seed=123)
        assert first.total_ms == second.total_ms
        assert first.winner_id == second.winner_id
        assert first.detection_ms == second.detection_ms

    def test_different_seeds_give_different_outcomes(self):
        scenario = ElectionScenario(protocol="raft", cluster_size=5)
        totals = {scenario.run(seed=seed).total_ms for seed in range(4)}
        assert len(totals) > 1

    def test_run_many_produces_requested_number_of_measurements(self):
        scenario = ElectionScenario(protocol="escape", cluster_size=4)
        measurements = scenario.run_many(runs=3, base_seed=9)
        assert len(measurements) == 3
        assert all(m.converged for m in measurements)

    def test_run_many_uses_the_shared_seed_derivation(self):
        """run_many delegates to paired_seeds -- golden values pinned.

        The constants are ``paired_seeds(runs, base_seed, "run")``; a drift
        here would silently unpair ``run_many`` from ``run_sweep`` again
        (the historical inline ``stream("run", index)`` bug).
        """
        scenario = ElectionScenario(protocol="escape", cluster_size=4)
        measurements = scenario.run_many(runs=3, base_seed=9)
        assert [m.seed for m in measurements] == paired_seeds(3, 9, "run")
        assert [m.seed for m in measurements] == [
            3173716481,
            299647418,
            3957931404,
        ]

    def test_run_many_label_matches_a_sweep_of_the_same_label(self):
        scenario = ElectionScenario(protocol="escape", cluster_size=4)
        measurements = scenario.run_many(runs=2, base_seed=42, label="wan")
        assert [m.seed for m in measurements] == paired_seeds(2, 42, "wan")
        assert [m.seed for m in measurements] == [2764160534, 1673579558]

    def test_measurement_extra_records_scenario_parameters(self):
        scenario = ElectionScenario(
            protocol="escape",
            cluster_size=4,
            fault=BroadcastOmissionFault(0.2),
            workload_interval_ms=100.0,
        )
        measurement = scenario.run(seed=5)
        assert measurement.extra["loss_rate"] == 0.2
        assert measurement.extra["contention_phases"] == 0
        assert measurement.extra["workload_proposed"] > 0

    def test_lossy_clients_resolve_every_op(self):
        scenario = ElectionScenario(
            protocol="raft",
            cluster_size=10,
            fault=BroadcastOmissionFault(0.2),
            workload_interval_ms=50.0,
        )
        counters = scenario.with_telemetry().run(seed=0).extra["telemetry"][
            "counters"
        ]
        assert counters["workload.committed"] > 0
        assert (
            counters["workload.committed"] + counters["workload.lost"]
            == counters["workload.proposed"]
        )

    def test_contention_scenario_forces_split_votes_in_raft(self):
        scenario = ElectionScenario(protocol="raft", cluster_size=5, contention_phases=2)
        measurements = scenario.run_many(runs=3, base_seed=1)
        assert any(m.split_vote for m in measurements)

    def test_contention_scenario_does_not_split_escape(self):
        scenario = ElectionScenario(protocol="escape", cluster_size=5, contention_phases=2)
        measurements = scenario.run_many(runs=3, base_seed=1)
        assert all(not m.split_vote for m in measurements)
        assert all(m.converged for m in measurements)

    def test_paired_protocol_comparison_uses_same_seed(self):
        raft = ElectionScenario(protocol="raft", cluster_size=5)
        escape = dataclasses.replace(raft, protocol="escape")
        assert raft.run(seed=77).crash_time_ms != 0
        assert escape.run(seed=77).converged


_TEARDOWN_PLAN = build_plan("repeated-leader-kill", horizon_ms=30_000.0, seed=0)

TEARDOWN_SCENARIOS = {
    "election-raft": ElectionScenario("raft", 32),
    "election-escape": ElectionScenario("escape", 32),
    "chaos": ChaosScenario("escape", 32, plan=_TEARDOWN_PLAN),
    "throughput": ThroughputScenario(
        "escape", 32, plan=_TEARDOWN_PLAN, workload="open-poisson"
    ),
}


@pytest.mark.parametrize("kind", TEARDOWN_SCENARIOS)
class TestFinishedClustersDieByRefcount:
    """``run`` and ``run_traced`` close the cluster once everything has been
    read from it, so a finished episode is freed by reference count instead
    of waiting, ~2,000 cyclic objects at a time, for the collector."""

    def test_a_finished_episode_leaves_the_collector_nothing(self, kind):
        scenario = TEARDOWN_SCENARIOS[kind]
        gc.collect()
        gc.disable()
        try:
            scenario.run(seed=3)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable < 100  # ~1,600-4,300 before clusters were closed

    def test_everything_is_read_before_the_cluster_is_closed(self, kind):
        scenario = TEARDOWN_SCENARIOS[kind].with_telemetry()
        traced = dataclasses.replace(scenario, trace=True)
        # The reference is the same episode with the cluster left open.
        open_measurement, open_cluster = traced._run_measured(3)
        scheduler = open_cluster.world.scheduler
        assert scheduler.pending_count > 0

        measurement, records = scenario.run_traced(seed=3)
        assert records == open_cluster.world.tracer.records and len(records) > 100
        assert measurement == open_measurement
        gauges = measurement.extra["telemetry"]["gauges"]
        assert gauges["sim.events.pending"] == scheduler.pending_count
        assert gauges["sim.heap.size"] == scheduler.heap_size
        assert scenario.run(seed=3) == measurement

        # Closing is silent and leaves the cluster's books readable.
        stats_before = dataclasses.replace(open_cluster.network.stats)
        open_cluster.close()
        assert open_cluster.world.tracer.records == records
        assert open_cluster.network.stats == stats_before
        assert scheduler.pending_count == 0
