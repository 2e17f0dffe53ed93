"""Unit tests for the experiment modules' structure and reporting.

These tests run the sweeps with tiny run counts and cluster sizes: they verify
the plumbing (labels, series shapes, report rendering, CLI wiring), while the
integration suite checks the paper-level claims on realistic settings.
"""

import pytest

from repro.experiments import (
    ablation_k_sweep,
    ablation_ppf,
    exp_availability,
    exp_wan,
    fig03_randomization,
    fig04_randomization_average,
    fig09_scale,
    fig10_competing_candidates,
    fig11_message_loss,
)
from repro.experiments import registry
from repro.experiments.__main__ import build_parser
from repro.experiments.base import flatten_sets, paired_seeds
from repro.experiments.runner import run_sweep
from repro.cluster.scenarios import ElectionScenario


class TestBaseHelpers:
    def test_run_sweep_collects_per_label_sets(self):
        scenarios = {
            "a": ElectionScenario(protocol="escape", cluster_size=3),
            "b": ElectionScenario(protocol="raft", cluster_size=3),
        }
        results = run_sweep(scenarios, runs=2, seed=1)
        assert set(results) == {"a", "b"}
        assert all(len(measurement_set) == 2 for measurement_set in results.values())

    def test_seeds_are_stable_per_label(self):
        assert paired_seeds(3, seed=5, label="x") == paired_seeds(3, seed=5, label="x")
        assert paired_seeds(3, seed=5, label="x") != paired_seeds(3, seed=5, label="y")

    def test_progress_callback_is_invoked(self):
        calls = []
        run_sweep(
            {"only": ElectionScenario(protocol="escape", cluster_size=3)},
            runs=2,
            seed=0,
            progress=lambda label, done, total: calls.append((label, done, total)),
        )
        assert calls == [("only", 1, 2), ("only", 2, 2)]

    def test_flatten_sets_merges_measurements(self):
        scenarios = {"a": ElectionScenario(protocol="escape", cluster_size=3)}
        results = run_sweep(scenarios, runs=2, seed=0)
        merged = flatten_sets(results.values())
        assert len(merged) == 2


class TestFig03:
    def test_sweep_covers_requested_ranges(self):
        ranges = ((500.0, 700.0), (500.0, 1_200.0))
        result = fig03_randomization.run(
            runs=2,
            seed=0,
            timeout_ranges=ranges,
            cluster_size=3,
        )
        assert result.timeout_ranges == ranges
        assert set(result.by_range) == {"500-700", "500-1200"}
        cdf = result.cdf_for(ranges[0])
        assert cdf and cdf[-1][1] == pytest.approx(1.0)

    def test_report_contains_one_row_per_range(self):
        result = fig03_randomization.run(
            runs=2, seed=0, timeout_ranges=((500.0, 900.0),), cluster_size=3
        )
        report = fig03_randomization.report(result)
        assert "500-900" in report
        assert "split votes" in report


class TestFig04:
    def test_averages_derived_from_fig03(self):
        fig3 = fig03_randomization.run(
            runs=2, seed=0, timeout_ranges=((500.0, 800.0), (500.0, 1_500.0)), cluster_size=3
        )
        result = fig04_randomization_average.from_fig03(fig3)
        assert len(result.average_total_ms) == 2
        assert all(total > 0 for total in result.average_total_ms)
        for detection, election, total in zip(
            result.average_detection_ms, result.average_election_ms, result.average_total_ms
        ):
            assert total == pytest.approx(detection + election)
        assert len(result.as_series()) == 2
        assert "Figure 4" in fig04_randomization_average.report(result)


class TestFig09:
    def test_result_exposes_cdf_average_and_reduction(self):
        result = fig09_scale.run(runs=2, seed=0, sizes=(3, 4))
        assert result.sizes == (3, 4)
        assert result.average_for("raft", 3) > 0
        assert result.average_for("escape", 4) > 0
        assert isinstance(result.reduction_for(3), float)
        assert result.cdf_for("escape", 3)
        report = fig09_scale.report(result)
        assert "Figure 9" in report and "reduction" in report


class TestFig10:
    def test_cells_cover_sizes_and_phases(self):
        result = fig10_competing_candidates.run(runs=1, seed=0, sizes=(4,), phases=(0, 1))
        assert set(result.by_label) == {
            "raft@4/0cc",
            "escape@4/0cc",
            "raft@4/1cc",
            "escape@4/1cc",
        }
        detection, election = result.detection_election_for("escape", 4, 1)
        assert detection > 0 and election >= 0
        assert "Figure 10" in fig10_competing_candidates.report(result)


class TestFig11:
    def test_cells_cover_protocols_sizes_and_losses(self):
        result = fig11_message_loss.run(
            runs=1, seed=0, sizes=(4,), loss_rates=(0.0, 0.2)
        )
        assert len(result.by_label) == 6  # 3 protocols x 1 size x 2 loss rates
        assert result.average_for("zraft", 4, 0.2) > 0
        assert isinstance(result.reduction_vs_raft("escape", 4, 0.0), float)
        assert "Figure 11" in fig11_message_loss.report(result)


class TestAblations:
    def test_ppf_ablation_structure(self):
        result = ablation_ppf.run(runs=1, seed=0, cluster_size=4, loss_rates=(0.0,))
        assert result.average_for("escape", 0.0) > 0
        assert isinstance(result.ppf_benefit_percent(0.0), float)
        assert "PPF" in ablation_ppf.report(result)

    def test_k_sweep_structure(self):
        result = ablation_k_sweep.run(runs=1, seed=0, cluster_size=4, k_values=(100.0, 500.0))
        assert result.average_for(100.0) > 0
        assert result.mean_campaigns_for(500.0) >= 1.0
        assert "k" in ablation_k_sweep.report(result)


class TestWan:
    def test_cells_cover_protocols_and_conditions(self):
        result = exp_wan.run(
            runs=1,
            seed=0,
            conditions=("paper-default", "geo-two-region"),
            cluster_size=4,
        )
        assert set(result.by_label) == {
            f"{protocol}+{condition}"
            for protocol in ("raft", "zraft", "escape")
            for condition in ("paper-default", "geo-two-region")
        }
        assert result.average_for("escape", "geo-two-region") > 0
        assert isinstance(
            result.reduction_vs_raft("zraft", "paper-default"), float
        )
        report = exp_wan.report(result)
        assert "WAN failover" in report and "geo-two-region" in report

    def test_narrowed_protocols_are_respected_end_to_end(self):
        result = exp_wan.run(
            runs=1,
            seed=0,
            conditions=("paper-default",),
            protocols=("raft", "escape"),
            cluster_size=3,
        )
        assert result.protocols == ("raft", "escape")
        assert set(result.by_label) == {
            "raft+paper-default",
            "escape+paper-default",
        }
        report = exp_wan.report(result)
        assert "Z-Raft" not in report
        assert "ESCAPE vs Raft" in report

    def test_unknown_condition_fails_fast(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="no-such"):
            exp_wan.build_scenarios(conditions=("no-such",))

    def test_parallel_equals_sequential(self):
        """The wan sweep is bit-for-bit identical at any worker count."""
        kwargs = dict(
            runs=2,
            seed=7,
            conditions=("geo-two-region", "chaos-composite"),
            cluster_size=3,
        )
        sequential = exp_wan.run(workers=1, **kwargs)
        parallel = exp_wan.run(workers=2, **kwargs)
        assert set(sequential.by_label) == set(parallel.by_label)
        for label, measurement_set in sequential.by_label.items():
            assert (
                parallel.by_label[label].measurements
                == measurement_set.measurements
            )


class TestAvailability:
    def test_cells_cover_protocols_and_share_one_plan(self):
        result = exp_availability.run(
            runs=1,
            seed=0,
            plan="repeated-leader-kill",
            protocols=("raft", "escape"),
            cluster_size=3,
            horizon_ms=20_000.0,
        )
        assert set(result.by_protocol) == {"raft", "escape"}
        assert result.plan.name == "repeated-leader-kill"
        for protocol in ("raft", "escape"):
            availability_set = result.set_for(protocol)
            assert len(availability_set) == 1
            (measurement,) = availability_set.measurements
            assert measurement.plan == "repeated-leader-kill"
            assert 0.0 <= measurement.unavailability <= 1.0
        assert isinstance(result.downtime_saved_vs_raft("escape"), float)
        report = exp_availability.report(result)
        assert "Steady-state availability" in report
        assert "ESCAPE" in report

    def test_catalog_condition_layers_under_the_plan(self):
        result = exp_availability.run(
            runs=1,
            seed=0,
            plan="partition-flap",
            protocols=("raft",),
            cluster_size=4,
            horizon_ms=15_000.0,
            condition="geo-two-region",
        )
        assert result.condition == "geo-two-region"
        assert "condition=geo-two-region" in exp_availability.report(result)

    def test_liveness_free_protocols_are_rejected(self):
        from repro.common.errors import ConfigurationError
        from repro.chaos.plans import build_plan

        plan = build_plan("repeated-leader-kill", horizon_ms=10_000.0)
        with pytest.raises(ConfigurationError, match="livelock"):
            exp_availability.build_scenarios(plan, protocols=("raft-fixed",))

    def test_parallel_equals_sequential_for_every_liveness_protocol(self):
        """The acceptance bar: bit-identical sweeps at any worker count."""
        from repro import protocols as protocol_registry

        liveness = tuple(
            spec.name
            for spec in protocol_registry.specs()
            if spec.guarantees_liveness
        )
        kwargs = dict(
            runs=2,
            seed=7,
            plan="chaos-storm",
            protocols=liveness,
            cluster_size=5,
            horizon_ms=15_000.0,
        )
        sequential = exp_availability.run(workers=1, **kwargs)
        parallel = exp_availability.run(workers=4, **kwargs)
        assert set(sequential.by_protocol) == set(parallel.by_protocol)
        for protocol in liveness:
            assert (
                parallel.set_for(protocol).measurements
                == sequential.set_for(protocol).measurements
            )


class TestCli:
    def test_parser_knows_every_experiment(self):
        parser = build_parser()
        args = parser.parse_args(["fig9", "--runs", "3", "--quick"])
        assert args.experiment == "fig9"
        assert args.runs == 3
        assert args.quick

    def test_registry_and_parser_agree(self):
        parser = build_parser()
        for name in registry.names():
            assert parser.parse_args([name]).experiment == name

    def test_scenario_option_accepts_catalog_names(self):
        from repro.cluster.catalog import condition_names

        parser = build_parser()
        args = parser.parse_args(["wan", "--scenario", "chaos-composite"])
        assert args.scenario == "chaos-composite"
        with pytest.raises(SystemExit):
            parser.parse_args(["wan", "--scenario", "not-a-condition"])
        assert "chaos-composite" in condition_names()

    def test_scenario_capable_experiments_exist(self):
        scenario_capable = registry.supporting("scenario")
        assert set(scenario_capable) <= set(registry.names())
        assert "wan" in scenario_capable
        assert "avail" in scenario_capable

    def test_plan_option_accepts_chaos_catalog_names(self):
        from repro.chaos.plans import plan_names

        parser = build_parser()
        args = parser.parse_args(["avail", "--plan", "partition-flap"])
        assert args.plan == "partition-flap"
        with pytest.raises(SystemExit):
            parser.parse_args(["avail", "--plan", "not-a-plan"])
        assert "partition-flap" in plan_names()

    def test_plan_capable_experiments_exist(self):
        assert registry.supporting("plan") == ("avail", "throughput")

    def test_protocols_option_accepts_registered_names(self):
        parser = build_parser()
        args = parser.parse_args(["wan", "--protocols", "raft-stagger,escape-noppf"])
        assert args.protocols == ("raft-stagger", "escape-noppf")
        with pytest.raises(SystemExit):
            parser.parse_args(["wan", "--protocols", "raft,paxos"])

    def test_protocols_option_rejects_liveness_free_protocols(self):
        # raft-fixed livelocks by design; a sweep over it can only abort.
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["wan", "--protocols", "raft-fixed,escape"])

    def test_protocol_capable_experiments_exist(self):
        assert {
            "fig9",
            "fig9-xl",
            "fig10",
            "fig11",
            "wan",
            "avail",
            "throughput",
            "ablation-ppf",
        } == set(registry.supporting("protocols"))

    def test_default_protocols_come_from_the_registry(self):
        from repro import protocols as protocol_registry

        assert fig09_scale.PROTOCOLS == protocol_registry.RAFT_VS_ESCAPE
        assert fig11_message_loss.PROTOCOLS == protocol_registry.PAPER_PROTOCOLS
        assert exp_wan.PROTOCOLS == protocol_registry.PAPER_PROTOCOLS
        assert exp_availability.PROTOCOLS == protocol_registry.PAPER_PROTOCOLS
        assert "escape-noppf" in ablation_ppf.PROTOCOLS

    def test_checkpoint_capable_experiments_exist(self):
        assert registry.supporting("checkpoint") == ("fig9-xl", "throughput")

    def test_checkpoint_option_takes_a_directory(self):
        parser = build_parser()
        args = parser.parse_args(["fig9-xl", "--checkpoint", "ckpts"])
        assert args.checkpoint == "ckpts"
        assert parser.parse_args(["fig9-xl"]).checkpoint is None

    def test_checkpoint_rejected_for_unsupporting_experiments(self, capsys):
        from repro.common.errors import ConfigurationError
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig3", "--checkpoint", "ckpts"])
        assert "--checkpoint is not supported by: fig3" in capsys.readouterr().err
        with pytest.raises(ConfigurationError, match="--checkpoint"):
            registry.run_experiment("fig3", runs=1, checkpoint="x")

    def test_trace_capable_experiments_exist(self):
        assert registry.supporting("trace") == ("fig3", "fig9", "throughput")

    def test_trace_out_option_takes_a_directory(self):
        # dest is "trace" so the registry's capability loop sees the option
        # under its capability name.
        parser = build_parser()
        assert parser.parse_args(["fig3", "--trace-out", "traces"]).trace == "traces"
        assert parser.parse_args(["fig3"]).trace is None

    def test_trace_rejected_for_unsupporting_experiments(self):
        from repro.common.errors import ConfigurationError

        with pytest.raises(
            ConfigurationError, match="--trace is not supported by: fig4"
        ):
            registry.run_experiment("fig4", runs=1, trace="traces")

    def test_progress_options_parse(self):
        parser = build_parser()
        args = parser.parse_args(["fig3", "--heartbeat", "hb.json", "--ticker"])
        assert args.heartbeat == "hb.json"
        assert args.ticker is True
        defaults = parser.parse_args(["fig3"])
        assert defaults.heartbeat is None and defaults.ticker is False
