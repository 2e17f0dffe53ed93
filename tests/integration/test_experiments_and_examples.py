"""Integration tests: the experiment CLI and the example scripts run end-to-end."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.common.rng import paired_seeds
from repro.experiments import registry, run_experiment
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.export import load_run

from oracle import CLASSIC

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = REPO_ROOT / "examples"
GOLDEN_REPORTS = REPO_ROOT / "tests" / "golden" / "experiment_reports"

#: The CLI settings the golden reports were captured with (pre-registry code).
GOLDEN_RUNS = {
    "fig3": 2,
    "fig4": 2,
    "fig9": 1,
    "fig9-xl": 1,
    "fig10": 1,
    "fig11": 1,
    "wan": 1,
    "avail": 1,
    "throughput": 2,
    "ablation-ppf": 1,
    "ablation-k": 2,
    # Re-pinned when adapter-redis became a grid (seeds now derive per label
    # like every sweep's); 50 keeps the collision rates informative now that
    # --runs 2 means 2.
    "adapter-redis": 50,
}


class TestExperimentsCli:
    def test_fig3_quick_run_prints_a_report(self, capsys):
        assert experiments_main(["fig3", "--runs", "2", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Figure 3" in output
        assert "completed in" in output

    def test_fig10_quick_run_prints_a_report(self, capsys):
        assert experiments_main(["fig10", "--runs", "1", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Figure 10" in output

    def test_ablation_k_run(self, capsys):
        assert experiments_main(["ablation-k", "--runs", "1", "--quick"]) == 0
        assert "sensitivity to k" in capsys.readouterr().out

    def test_wan_quick_run_prints_a_report(self, capsys):
        assert experiments_main(["wan", "--runs", "1", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "WAN failover" in output
        assert "geo-two-region" in output

    def test_wan_scenario_override_runs_one_condition(self, capsys):
        assert (
            experiments_main(
                ["wan", "--runs", "1", "--quick", "--scenario", "dup-heavy-udp"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "dup-heavy-udp" in output
        assert "geo-two-region" not in output

    def test_scenario_rejected_for_unaware_experiments(self, capsys):
        with pytest.raises(SystemExit):
            experiments_main(["fig3", "--scenario", "paper-default"])
        assert "--scenario is not supported" in capsys.readouterr().err

    def test_avail_quick_run_prints_availability_table(self, capsys):
        assert experiments_main(["avail", "--runs", "2", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Steady-state availability" in output
        assert "repeated-leader-kill" in output
        assert "availability" in output

    def test_avail_plan_and_protocols_override(self, capsys):
        assert (
            experiments_main(
                [
                    "avail",
                    "--runs",
                    "1",
                    "--quick",
                    "--plan",
                    "partition-flap",
                    "--protocols",
                    "raft,escape",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "partition-flap" in output
        assert "Z-Raft" not in output

    def test_plan_rejected_for_unaware_experiments(self, capsys):
        with pytest.raises(SystemExit):
            experiments_main(["wan", "--plan", "chaos-storm"])
        assert "--plan is not supported" in capsys.readouterr().err

    def test_list_prints_the_registry_table_and_exits(self, capsys):
        assert experiments_main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "Registered experiments" in output
        for name in registry.names():
            assert name in output

    def test_an_experiment_name_is_required_without_list(self, capsys):
        with pytest.raises(SystemExit):
            experiments_main([])
        assert "required unless --list" in capsys.readouterr().err

    def test_omitted_runs_resolve_to_the_spec_default(self, capsys):
        # adapter-redis registers default_runs=200; the CLI must not pin its
        # own global default over the registry's.
        assert experiments_main(["adapter-redis"]) == 0
        output = capsys.readouterr().out
        assert "runs=default" in output
        assert "(200 runs per cell)" in output

    def test_output_dir_round_trips_through_the_generic_export(
        self, tmp_path, capsys
    ):
        assert (
            experiments_main(
                [
                    "fig3",
                    "--runs",
                    "2",
                    "--seed",
                    "3",
                    "--quick",
                    "--output",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert "saved:" in capsys.readouterr().out
        metadata, loaded = load_run("fig3", tmp_path)
        assert metadata["runs"] == 2 and metadata["seed"] == 3
        # The loaded sets must match a programmatic run with the same settings.
        run = run_experiment("fig3", runs=2, seed=3, quick=True)
        original = run.result.by_label
        assert set(loaded) == set(original)
        for label, measurement_set in original.items():
            assert loaded[label].measurements == measurement_set.measurements
        assert (tmp_path / "fig3.report.txt").read_text() == run.report + "\n"


class TestGoldenReports:
    """The registry-driven CLI reproduces the pre-registry reports exactly.

    The files under ``tests/golden/experiment_reports/`` were captured from
    the hand-written ``_run_*`` CLI wrappers the registry replaced (runs as
    in ``GOLDEN_RUNS``, seed 3, quick mode).  Every CLI invocation must
    still produce byte-identical report tables.  A change that moves the
    random stream re-pins the reports it moves once, from these commands
    (the harness's bootstrap campaign moved all but ``avail`` and
    ``adapter-redis``), after ``tests/stat_gate.py`` passes its panel.
    """

    def test_every_builtin_experiment_has_a_golden_report(self):
        assert set(GOLDEN_RUNS) == set(registry.names())
        for name in GOLDEN_RUNS:
            assert (GOLDEN_REPORTS / f"{name}.txt").exists()

    @pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
    def test_cli_report_is_byte_identical_to_pre_registry_code(
        self, name, capsys
    ):
        assert (
            experiments_main(
                [name, "--runs", str(GOLDEN_RUNS[name]), "--seed", "3", "--quick"]
            )
            == 0
        )
        golden = (GOLDEN_REPORTS / f"{name}.txt").read_text().rstrip("\n")
        assert golden in capsys.readouterr().out


def _sequential_reference(name, swept, **overrides):
    """*swept* with its cells replaced by aggregating the plain per-label loop.

    The scenario table comes from the declaration's own ``build_scenarios``,
    the seeds from the shared per-label derivation: what the sweep engine
    must reproduce, computed without it.
    """
    spec = registry.get(name)
    by_label = {
        label: spec.container.from_measurements(
            [
                scenario.run(seed)
                for seed in paired_seeds(swept.runs, swept.seed, label)
            ],
            label,
        )
        for label, scenario in spec.build_scenarios(swept.seed, **overrides).items()
    }
    return replace(swept.result, by_label=by_label)


def _assert_equal_to_the_reference(name, swept, **overrides):
    """Same cells, same rendered report, same exported rows, to the byte."""
    spec = registry.get(name)
    reference = _sequential_reference(name, swept, **overrides)
    assert swept.result.by_label == reference.by_label
    assert swept.report == spec.reporter(reference)
    assert [cell.to_row(label) for label, cell in swept.result.by_label.items()] == [
        cell.to_row(label) for label, cell in reference.by_label.items()
    ]


class TestFig9XlPathEquality:
    """The swept aggregates equal aggregating the sequential episode loop.

    At paper-scale run counts the aggregates stay in their exact regime, so
    the two must agree to the byte: same rendered report, same exported
    rows, observably equal aggregates.
    """

    def test_sweep_reproduces_the_sequential_reference(self):
        swept = run_experiment("fig9-xl", runs=3, seed=11, sizes=(8, 16), workers=2)
        _assert_equal_to_the_reference("fig9-xl", swept, sizes=(8, 16))

    def test_cli_checkpoint_run_resumes_to_the_same_report(self, tmp_path, capsys):
        args = ["fig9-xl", "--runs", "3", "--seed", "4", "--quick"]
        checkpointed = args + ["--checkpoint", str(tmp_path)]
        assert experiments_main(checkpointed) == 0
        first = capsys.readouterr().out
        # Every chunk is on disk now; the re-run replays the checkpoint,
        # under another worker count.
        assert experiments_main(checkpointed + ["--workers", "2"]) == 0
        second = capsys.readouterr().out
        assert experiments_main(args) == 0
        plain = capsys.readouterr().out

        def table(out: str) -> str:
            return out[out.index("Figure 9 XL") : out.rindex("-- completed")]

        assert table(first) == table(second) == table(plain)


class TestThroughputPathEquality:
    """The throughput experiment is schedule-independent to the byte.

    Same report and aggregates whatever the worker count or simulation
    engine, equal to the sequential episode loop -- the acceptance pin for
    the workload subsystem's determinism contract.
    """

    ARGS = dict(runs=2, seed=3, horizon_ms=30_000.0, workloads=("closed-loop",))

    def test_worker_counts_agree(self):
        serial = run_experiment("throughput", workers=1, **self.ARGS)
        fanned = run_experiment("throughput", workers=4, **self.ARGS)
        assert serial.result.by_label == fanned.result.by_label
        assert serial.report == fanned.report

    def test_sweep_reproduces_the_sequential_reference(self):
        swept = run_experiment("throughput", workers=2, **self.ARGS)
        _assert_equal_to_the_reference(
            "throughput", swept, horizon_ms=30_000.0, workloads=("closed-loop",)
        )

    def test_engines_agree(self):
        flat = run_experiment("throughput", **self.ARGS)
        classic = run_experiment("throughput", engine=CLASSIC, **self.ARGS)
        assert classic.result.by_label == flat.result.by_label

    def test_cli_checkpoint_run_resumes_to_the_same_report(self, tmp_path, capsys):
        args = ["throughput", "--runs", "1", "--seed", "4", "--quick"]
        checkpointed = args + ["--checkpoint", str(tmp_path)]
        assert experiments_main(checkpointed) == 0
        first = capsys.readouterr().out
        assert experiments_main(checkpointed) == 0
        second = capsys.readouterr().out
        assert experiments_main(args) == 0
        plain = capsys.readouterr().out

        def table(out: str) -> str:
            return out[out.index("Throughput under") : out.rindex("-- completed")]

        assert table(first) == table(second) == table(plain)


class TestExamples:
    def test_quickstart_runs_and_reports_failover(self):
        result = subprocess.run(
            [sys.executable, str(EXAMPLES / "quickstart.py"), "7"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "new leader" in result.stdout
        assert "election safety check passed" in result.stdout

    def test_compare_protocols_small_run(self):
        result = subprocess.run(
            [
                sys.executable,
                str(EXAMPLES / "compare_protocols.py"),
                "--runs",
                "2",
                "--sizes",
                "5",
            ],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert result.returncode == 0, result.stderr
        assert "ESCAPE" in result.stdout

    def test_message_loss_study_small_run(self):
        result = subprocess.run(
            [
                sys.executable,
                str(EXAMPLES / "message_loss_study.py"),
                "--runs",
                "2",
                "--size",
                "5",
            ],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert result.returncode == 0, result.stderr
        assert "Figure 11" in result.stdout

    def test_geo_distributed_example_small_run(self):
        result = subprocess.run(
            [
                sys.executable,
                str(EXAMPLES / "geo_distributed_failover.py"),
                "--runs",
                "3",
                "--chaos-horizon-ms",
                "45000",
            ],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert result.returncode == 0, result.stderr
        assert "Geo-distributed failover" in result.stdout
        # The chaos phase runs the partition-flap plan end-to-end on the
        # same WAN topology and reports steady-state availability.
        assert "partition-flap chaos" in result.stdout
        assert "availability" in result.stdout
