"""Unit tests for the experiment declarations' structure and the CLI wiring.

One contract suite runs over every registered experiment (each is a
:class:`~repro.experiments.sweep.SweepExperiment`) at quick sizes: the grid is
the axis product in build order, ``cell`` addresses it by coordinates, the
derived capabilities equal the pinned EXPERIMENTS.md table, overrides reach
the grid, a grid that is not one (a point twice, an empty axis) is refused
while it is built, ``save_run`` -> ``load_run`` is the identity, and
``--protocols`` / ``--trace-out`` work wherever the declaration makes them
available.  The integration suite checks the
paper-level claims on realistic settings.
"""

import csv
import functools
import itertools
import json
from pathlib import Path

import pytest

from repro import protocols as protocol_registry
from repro.cluster.scenarios import ElectionScenario
from repro.common.errors import ConfigurationError
from repro.common.rng import paired_seeds
from repro.experiments import (
    ablation_ppf,
    exp_availability,
    exp_wan,
    fig09_scale,
    fig11_message_loss,
    registry,
    run_experiment,
)
from repro.experiments.__main__ import build_parser
from repro.experiments.export import load_run, save_run
from repro.experiments.runner import run_sweep
from repro.obs.trace import TRACE_MANIFEST_SCHEMA

REPO_ROOT = Path(__file__).resolve().parents[2]


#: Every protocol a sweep may run (the acceptance bar for worker parity).
LIVENESS_PROTOCOLS = tuple(
    name for name, spec in protocol_registry.items() if spec.guarantees_liveness
)


@functools.lru_cache(maxsize=None)
def quick_run(name):
    """One shared quick run per sweep (two runs so every mean is defined)."""
    return run_experiment(name, runs=2, seed=3, quick=True)


def grid_points(result):
    """Every cell's coordinates, in build order."""
    return [
        dict(zip(result.axes, point))
        for point in itertools.product(*result.axes.values())
    ]


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


@pytest.mark.parametrize("name", registry.names())
class TestSweepContract:
    def test_cells_are_the_axis_product_in_build_order(self, name):
        spec, result = registry.get(name), quick_run(name).result
        quick = spec.resolved_params(quick=True)
        for axis in spec.axes:
            if axis.coord:
                assert result.axes[axis.coord] == quick.get(axis.name, axis.values)
            else:
                assert result.context[axis.name] == quick[axis.name]
        assert list(result.by_label) == [
            spec.label(**coords) for coords in grid_points(result)
        ]
        assert all(len(cell) == 2 for cell in result.by_label.values())

    def test_cell_addresses_the_grid_by_coordinates(self, name):
        spec, result = registry.get(name), quick_run(name).result
        for coords in grid_points(result):
            assert result.cell(**coords) is result.by_label[spec.label(**coords)]

    def test_derived_capabilities_equal_the_pinned_table(self, name):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        table = text[text.index("registry-table:begin") : text.index("registry-table:end")]
        (row,) = [
            line.split(" | ")
            for line in table.splitlines()
            if line.startswith(f"| `{name}` |")
        ]
        assert row[3] == (", ".join(registry.get(name).capabilities) or "-")

    def test_an_axis_override_reaches_the_grid(self, name):
        spec = registry.get(name)
        default = spec.build_scenarios()
        fixed = {
            "cluster_size": 3,
            "horizon_ms": 10_000.0,
            "vote_loss_rate": 0.5,
            "replicas": 3,
        }
        for axis in spec.axes:
            if axis.coord:
                narrowed = spec.build_scenarios(**{axis.name: axis.values[:1]})
                assert len(narrowed) * len(axis.values) == len(default)
            else:
                changed = spec.build_scenarios(**{axis.name: fixed[axis.name]})
                assert list(changed) == list(default) and changed != default

    def test_an_unknown_override_is_rejected_with_the_declared_names(self, name):
        with pytest.raises(ConfigurationError, match="no parameter") as info:
            run_experiment(name, runs=1, no_such_axis=1)
        for declared in registry.get(name).params:
            assert declared in str(info.value)

    def test_a_point_given_twice_is_refused_naming_the_label(self, name):
        spec = registry.get(name)
        for axis in spec.axes:
            if not axis.coord:
                continue
            twice = (axis.values[0], *axis.values)
            if axis.name == "protocols":
                match = "protocols contains duplicate value"
            else:
                match = f"experiment {name!r}: label '.*' names two cells, {{.*}} and {{.*}}"
            with pytest.raises(ConfigurationError, match=match):
                spec.build_scenarios(**{axis.name: twice})

    def test_an_empty_axis_is_refused_naming_the_axis(self, name):
        spec = registry.get(name)
        for axis in spec.axes:
            if axis.coord:
                with pytest.raises(
                    ConfigurationError, match=f"axis {axis.name!r} is empty"
                ):
                    spec.build_scenarios(**{axis.name: ()})

    def test_the_export_round_trips(self, name, tmp_path):
        run = quick_run(name)
        cells = run.result.by_label
        paths = save_run(run, tmp_path)
        assert paths["report"].read_text(encoding="utf-8") == run.report + "\n"
        with paths["csv"].open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        metadata, loaded = load_run(name, tmp_path)
        assert metadata["seed"] == 3 and "notes" not in metadata
        if metadata["export_kind"] == "rows":
            assert loaded == [cell.to_row(label) for label, cell in cells.items()]
            assert [row["label"] for row in rows] == list(cells)
        else:
            assert metadata["export_kind"] == "episodes"
            assert list(loaded) == sorted(cells)
            for label, cell in cells.items():
                assert type(loaded[label]) is type(cell)
                assert loaded[label].measurements == cell.measurements
            assert [row["label"] for row in rows] == [
                label for label, cell in cells.items() for _ in cell
            ]


class TestSweepCapabilities:
    @pytest.mark.parametrize("name", registry.supporting("protocols"))
    def test_protocols_narrow_the_sweep_end_to_end(self, name):
        run = run_experiment(name, runs=1, seed=0, quick=True, protocols=["escape"])
        assert run.parameters["protocols"] == ("escape",)
        assert run.result.axes["protocol"] == ("escape",)
        assert len(run.result.by_label) * len(quick_run(name).result.axes["protocol"]) == len(
            quick_run(name).result.by_label
        )
        assert "ESCAPE" in run.report
        assert "Raft" not in run.report.split("\n", 1)[1]

    @pytest.mark.parametrize("name", registry.supporting("trace"))
    def test_trace_out_leaves_a_schema_valid_manifest(self, name, tmp_path):
        narrowed = (
            {"protocols": ("escape",)}
            if "protocols" in registry.get(name).capabilities
            else {}
        )
        run = run_experiment(
            name, runs=1, seed=0, quick=True, trace=str(tmp_path), **narrowed
        )
        assert run.parameters["trace"] == str(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema"] == TRACE_MANIFEST_SCHEMA
        assert set(manifest["labels"]) == set(run.result.by_label)
        for entry in manifest["labels"].values():
            assert (tmp_path / entry["file"]).exists()
            assert entry["records"] > 0
        # Every scenario type records telemetry, so every label has a snapshot.
        telemetry = json.loads((tmp_path / manifest["telemetry"]).read_text())
        assert set(telemetry["labels"]) == set(manifest["labels"])
        assert all(state["counters"] for state in telemetry["labels"].values())

    @pytest.mark.parametrize(
        "name, workers, overrides",
        [
            (
                "wan",
                2,
                dict(conditions=("geo-two-region", "chaos-composite"), cluster_size=3),
            ),
            (
                "avail",
                4,
                dict(
                    plan="chaos-storm",
                    protocols=LIVENESS_PROTOCOLS,
                    horizon_ms=15_000.0,
                ),
            ),
            # The analytic models cross the pool boundary like any scenario.
            ("adapter-redis", 2, dict(confusion_levels=(0.3, 0.6))),
        ],
    )
    def test_parallel_equals_sequential(self, name, workers, overrides, tmp_path):
        """The sweep is bit-for-bit identical at any worker count."""
        sequential = run_experiment(name, runs=2, seed=7, workers=1, **overrides)
        parallel = run_experiment(name, runs=2, seed=7, workers=workers, **overrides)
        assert list(sequential.result.by_label) == list(parallel.result.by_label)
        for label, cell in sequential.result.by_label.items():
            assert parallel.result.by_label[label].measurements == cell.measurements
        assert parallel.report == sequential.report
        # ... and so is the archive, bar the metadata that names the run.
        first = save_run(sequential, tmp_path / "sequential")
        second = save_run(parallel, tmp_path / "parallel")
        assert first["csv"].read_bytes() == second["csv"].read_bytes()
        assert first["report"].read_bytes() == second["report"].read_bytes()
        cells = [json.loads(paths["json"].read_text())["cells"] for paths in (first, second)]
        assert cells[0] == cells[1]

    def test_the_build_phase_times_the_grid_and_fails_before_any_worker(self):
        assert quick_run("fig9-xl").profile["build"] > 0.0
        started = []
        with pytest.raises(ConfigurationError, match="no-such"):
            run_experiment(
                "wan",
                runs=1,
                workers=2,
                conditions=("no-such",),
                progress=lambda *call: started.append(call),
            )
        assert not started

    def test_a_scenario_narrows_wan_and_layers_under_a_plan(self):
        assert list(registry.get("wan").build_scenarios(scenario="dup-heavy-udp")) == [
            f"{protocol}+dup-heavy-udp" for protocol in exp_wan.PROTOCOLS
        ]
        run = run_experiment(
            "avail",
            runs=1,
            plan="partition-flap",
            protocols=("raft",),
            cluster_size=4,
            horizon_ms=15_000.0,
            scenario="geo-two-region",
        )
        assert run.result.context["condition"] == "geo-two-region"
        assert run.result.context["plan"].name == "partition-flap"
        (measurement,) = run.result.cell(protocol="raft").measurements
        assert measurement.plan == "partition-flap"
        assert "condition=geo-two-region" in run.report

    def test_two_points_under_one_label_are_refused_with_both_coordinates(self):
        """Unrefused, one cell runs, 10.4 % never does and the 10 % row prints twice."""
        started = []
        with pytest.raises(ConfigurationError, match="names two cells") as info:
            run_experiment(
                "fig11",
                runs=1,
                sizes=(10,),
                loss_rates=(0.1, 0.104),
                protocols=("escape",),
                progress=lambda *call: started.append(call),
            )
        message = str(info.value)
        assert "'escape@10/loss10'" in message
        assert "'loss_rate': 0.1," in message and "'loss_rate': 0.104," in message
        assert not started

    def test_an_empty_axis_is_refused_before_the_sweep(self):
        """Unrefused, nothing is swept and ``Table.render`` dies on an IndexError."""
        with pytest.raises(ConfigurationError, match="axis 'sizes' is empty"):
            run_experiment("fig9", runs=1, quick=True, sizes=())
        with pytest.raises(ConfigurationError, match="axis 'protocols' is empty"):
            run_experiment("fig9", runs=1, quick=True, protocols=())

    def test_liveness_free_protocols_are_rejected_while_the_grid_is_built(self):
        for name in registry.supporting("protocols"):
            with pytest.raises(ConfigurationError, match="livelock"):
                registry.get(name).build_scenarios(protocols=("raft-fixed",))

    def test_a_protocol_named_twice_is_rejected_while_the_grid_is_built(self):
        # It would render every column twice over one shared cell.
        for name in registry.supporting("protocols"):
            with pytest.raises(ConfigurationError, match="duplicate value 'raft'"):
                run_experiment(name, runs=1, quick=True, protocols=("raft", "raft"))

    @pytest.mark.parametrize("runs", [0, -1])
    def test_a_run_count_below_one_is_rejected_before_the_build_phase(self, runs):
        for name in ("fig3", "adapter-redis"):
            with pytest.raises(ConfigurationError, match="runs must be >= 1"):
                run_experiment(name, runs=runs, quick=True)


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
        from repro.cluster.catalog import CATALOG

        parser = build_parser()
        args = parser.parse_args(["wan", "--scenario", "chaos-composite"])
        assert args.scenario == "chaos-composite"
        with pytest.raises(SystemExit):
            parser.parse_args(["wan", "--scenario", "not-a-condition"])
        assert "chaos-composite" in CATALOG

    def test_scenario_capable_experiments_exist(self):
        scenario_capable = registry.supporting("scenario")
        assert set(scenario_capable) <= set(registry.names())
        assert "wan" in scenario_capable
        assert "avail" in scenario_capable

    def test_plan_option_accepts_chaos_catalog_names(self):
        from repro.chaos.plans import CHAOS_CATALOG

        parser = build_parser()
        args = parser.parse_args(["avail", "--plan", "partition-flap"])
        assert args.plan == "partition-flap"
        with pytest.raises(SystemExit):
            parser.parse_args(["avail", "--plan", "not-a-plan"])
        assert "partition-flap" in CHAOS_CATALOG

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

    def test_protocols_option_rejects_a_name_given_twice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["fig9", "--protocols", "raft,raft"])
        assert exit_info.value.code == 2
        assert "duplicate value 'raft'" in capsys.readouterr().err

    def test_engine_option_offers_flat_only(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["fig3", "--engine", "flat"]).engine == "flat"
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(["fig3", "--quick", "--engine", "classic"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'classic'" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_runs_option_rejects_counts_below_one(self, runs, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["fig3", "--quick", "--runs", runs])
        assert exit_info.value.code == 2
        assert "--runs must be >= 1" in capsys.readouterr().err

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
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["fig3", "--checkpoint", "ckpts"])
        assert "--checkpoint is not supported by: fig3" in capsys.readouterr().err
        with pytest.raises(ConfigurationError, match="--checkpoint"):
            registry.run_experiment("fig3", runs=1, checkpoint="x")

    def test_trace_capable_experiments_exist(self):
        # Every simulated sweep: all three scenario types inherit run_traced
        # from the one Scenario base.  adapter-redis sweeps analytic models,
        # which have no cluster to trace.
        assert set(registry.names()) - set(registry.supporting("trace")) == {
            "adapter-redis"
        }

    def test_trace_out_option_takes_a_directory(self):
        # dest is "trace" so the registry's capability loop sees the option
        # under its capability name.
        parser = build_parser()
        assert parser.parse_args(["fig3", "--trace-out", "traces"]).trace == "traces"
        assert parser.parse_args(["fig3"]).trace is None

    def test_trace_rejected_for_unsupporting_experiments(self, capsys):
        """The message names the flag that exists (--trace-out), not the capability."""
        from repro.experiments.__main__ import main

        expected = "--trace-out is not supported by: adapter-redis"
        with pytest.raises(ConfigurationError, match=expected):
            registry.run_experiment("adapter-redis", runs=1, trace="traces")
        with pytest.raises(SystemExit):
            main(["adapter-redis", "--trace-out", "traces"])
        assert expected in capsys.readouterr().err

    def test_every_capability_is_parsed_under_the_flag_its_message_names(self):
        parser = build_parser()
        flags = {
            flag: action.dest
            for action in parser._actions
            for flag in action.option_strings
        }
        for capability, flag in registry.CAPABILITIES.items():
            assert flags[flag] == capability
            message = registry.unsupported_option_message(capability, ["adapter-redis"])
            assert message.startswith(f"{flag} is not supported by: adapter-redis")

    def test_progress_options_parse(self):
        parser = build_parser()
        args = parser.parse_args(["fig3", "--heartbeat", "hb.json", "--ticker"])
        assert args.heartbeat == "hb.json"
        assert args.ticker is True
        defaults = parser.parse_args(["fig3"])
        assert defaults.heartbeat is None and defaults.ticker is False
