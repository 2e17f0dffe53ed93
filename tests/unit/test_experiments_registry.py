"""Conformance suite for the experiment registry.

Every registered declaration (a :class:`SweepExperiment` or a plain
:class:`ExperimentSpec`) is exercised generically: a quick run through
:func:`run_experiment` returns a picklable envelope whose report matches the
declaration's reporter, the exporter round-trips through the generic export
path, and the registry-derived rejection messages cover unknown names,
unsupported sweep-wide options and unsweepable protocols.  Registering
another experiment automatically subjects it to this suite.
"""

import dataclasses
import pickle
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments import (
    ExperimentRun,
    ExperimentSpec,
    SweepExperiment,
    registry,
    run_experiment,
)
from repro.experiments.export import load_run, save_run
from repro.experiments.spec import CAPABILITIES, EXPORT_KINDS, ExporterBinding

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Tiny run counts so the whole registry smokes in seconds.
QUICK_RUNS = {"fig3": 2, "fig4": 2, "ablation-k": 2, "adapter-redis": 2}


class TestSpecConformance:
    @pytest.mark.parametrize("name", registry.names())
    def test_spec_fields_are_complete(self, name):
        spec = registry.get(name)
        assert spec.name == name
        assert spec.title and spec.paper_ref and spec.description
        assert callable(spec.reporter)
        assert spec.default_runs >= 1
        assert set(spec.quick_params) <= set(spec.params)
        assert set(spec.capabilities) <= set(CAPABILITIES)
        # Every built-in experiment must be persistable via --output.
        assert spec.exporter is not None
        assert spec.exporter.kind in EXPORT_KINDS

    @pytest.mark.parametrize("name", registry.names())
    def test_spec_pickles_by_reference(self, name):
        spec = registry.get(name)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.params == spec.params
        if isinstance(spec, SweepExperiment):
            assert clone.label is spec.label and clone.scenario is spec.scenario
        else:
            assert clone.run is spec.run and clone.reporter is spec.reporter

    def test_the_registry_stores_the_declarations_themselves(self):
        """Every sweep is a SweepExperiment; only adapter-redis is a plain spec."""
        plain = [
            name
            for name, spec in registry.items()
            if not isinstance(spec, SweepExperiment)
        ]
        assert plain == ["adapter-redis"]

    def test_invalid_specs_are_rejected(self):
        good = registry.get("adapter-redis")
        with pytest.raises(ConfigurationError, match="whitespace"):
            registry.register(
                ExperimentSpec(
                    name="bad name", title="t", run=good.run, reporter=good.reporter
                )
            )
        with pytest.raises(ConfigurationError, match="quick_params"):
            ExperimentSpec(
                name="ok",
                title="t",
                run=good.run,
                reporter=good.reporter,
                quick_params={"no_such_param": 1},
            )
        with pytest.raises(ConfigurationError, match="exporter kind"):
            ExporterBinding(kind="no-such-kind", extract=lambda result: result)
        # Names become export file names; path syntax must be rejected.
        with pytest.raises(ConfigurationError, match="path"):
            ExperimentSpec(
                name="a/b", title="t", run=good.run, reporter=good.reporter
            )
        with pytest.raises(ConfigurationError, match="path"):
            ExperimentSpec(
                name="..escape", title="t", run=good.run, reporter=good.reporter
            )
        sweep = registry.get("fig3")
        with pytest.raises(ConfigurationError, match="path"):
            dataclasses.replace(sweep, name="a/b")
        with pytest.raises(ConfigurationError, match="to_row"):
            dataclasses.replace(sweep, container=dict)


class TestRunExperiment:
    @pytest.mark.parametrize("name", registry.names())
    def test_quick_run_returns_conformant_envelope(self, name):
        spec = registry.get(name)
        run = run_experiment(name, runs=QUICK_RUNS.get(name, 1), seed=3, quick=True)
        assert isinstance(run, ExperimentRun)
        assert run.name == name and run.title == spec.title
        assert run.seed == 3 and run.quick
        assert run.report == spec.reporter(run.result)
        assert run.elapsed_s >= 0.0
        # Quick-mode overrides land in the resolved parameter record.
        for key, value in spec.quick_params.items():
            assert run.parameters[key] == value
        # The envelope is plain data: it must survive pickling unchanged.
        clone = pickle.loads(pickle.dumps(run))
        assert clone.report == run.report
        assert clone.parameters == run.parameters
        assert clone.notes == run.notes
        # The exporter binding understands the result it was registered for.
        payload = spec.exporter.extract(run.result)
        assert payload

    def test_unknown_experiment_rejected_with_registered_list(self):
        with pytest.raises(ConfigurationError, match="unknown experiment") as info:
            run_experiment("no-such-experiment")
        assert "fig3" in str(info.value)

    def test_unsupported_scenario_rejected(self):
        with pytest.raises(
            ConfigurationError, match="--scenario is not supported by: fig3"
        ):
            run_experiment("fig3", scenario="paper-default")

    def test_unsupported_plan_rejected(self):
        with pytest.raises(
            ConfigurationError, match="--plan is not supported by: wan"
        ):
            run_experiment("wan", plan="chaos-storm")

    def test_unsupported_protocols_rejected(self):
        with pytest.raises(
            ConfigurationError, match="--protocols is not supported by: fig3"
        ):
            run_experiment("fig3", protocols=("raft",))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            run_experiment("fig9", protocols=("paxos",))

    def test_liveness_free_protocol_rejected(self):
        with pytest.raises(ConfigurationError, match="livelock"):
            run_experiment("fig9", protocols=("raft-fixed", "escape"))

    def test_unknown_parameter_override_rejected(self):
        with pytest.raises(ConfigurationError, match="no parameter"):
            run_experiment("fig3", cluster_sizes=(3,))

    def test_min_runs_floor_and_ignored_workers_are_noted(self):
        run = run_experiment("adapter-redis", runs=2, seed=0, workers=4)
        assert run.runs == 50
        assert run.workers is None
        assert any("raised" in note for note in run.notes)
        assert any("--workers ignored" in note for note in run.notes)

    def test_capability_value_supersedes_param_in_recorded_metadata(self):
        """A wan run narrowed to one scenario must not claim the full grid."""
        run = run_experiment(
            "wan", runs=1, seed=0, quick=True, scenario="paper-default"
        )
        assert run.parameters["scenario"] == "paper-default"
        assert "conditions" not in run.parameters
        assert set(run.result.by_label) == {
            f"{protocol}+paper-default" for protocol in ("raft", "zraft", "escape")
        }
        # Capability values are recorded only when they were passed.
        assert "protocols" not in run.parameters and "plan" not in run.parameters

    def test_profile_phases_land_in_the_envelope(self):
        run = run_experiment("fig3", runs=1, seed=0, quick=True)
        assert set(run.profile) == {"build", "sweep", "report"}
        assert all(seconds >= 0.0 for seconds in run.profile.values())
        # elapsed_s keeps its historical meaning: the sweep phase itself.
        assert run.elapsed_s == run.profile["sweep"]
        assert run.metadata()["profile"] == {
            phase: round(seconds, 3) for phase, seconds in run.profile.items()
        }

    def test_trace_archiving_is_its_own_profile_phase(self, tmp_path):
        """elapsed_s is the sweep; the traced re-runs are timed apart from it."""
        traced = run_experiment("fig3", runs=1, seed=0, quick=True, trace=str(tmp_path))
        assert list(traced.profile) == ["build", "sweep", "trace", "report"]
        assert traced.elapsed_s == traced.profile["sweep"]
        assert "trace" not in run_experiment("fig3", runs=1, seed=0, quick=True).profile

    def test_engine_selection_is_stamped_on_the_grid_and_recorded(self, monkeypatch):
        from repro.experiments import runner

        swept = []
        real = runner.run_sweep

        def spy(scenarios, **kwargs):
            swept.append({scenario.engine for scenario in scenarios.values()})
            return real(scenarios, **kwargs)

        monkeypatch.setattr(runner, "run_sweep", spy)
        for engine, expected in ((None, "flat"), ("flat", "flat"), ("classic", "classic")):
            run = run_experiment("fig3", runs=1, seed=0, quick=True, engine=engine)
            assert run.engine == run.metadata()["engine"] == expected
            assert swept.pop() == {expected}

    def test_unknown_engine_rejected_with_registered_list(self):
        with pytest.raises(ConfigurationError, match="unknown engine") as info:
            run_experiment("fig3", runs=1, seed=0, quick=True, engine="warp")
        assert "classic" in str(info.value) and "flat" in str(info.value)

    def test_results_are_engine_invariant(self):
        classic = run_experiment("fig3", runs=2, seed=5, quick=True, engine="classic")
        flat = run_experiment("fig3", runs=2, seed=5, quick=True, engine="flat")
        assert flat.report == classic.report

    def test_quick_overrides_are_declared_not_hardcoded(self):
        assert registry.get("fig9").resolved_params(quick=True)["sizes"] == (8, 16, 32)
        assert registry.get("wan").resolved_params(quick=True)["cluster_size"] == 6
        assert registry.get("fig3").resolved_params(quick=True) == dict(
            registry.get("fig3").params
        )


class TestGenericExport:
    def test_rows_kind_round_trips(self, tmp_path):
        run = run_experiment("adapter-redis", runs=50, seed=5)
        save_run(run, tmp_path)
        metadata, loaded = load_run("adapter-redis", tmp_path)
        assert metadata["export_kind"] == "rows"
        assert loaded == registry.get("adapter-redis").exporter.extract(run.result)

    def test_loading_a_missing_run_fails_fast(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no such results file"):
            load_run("fig3", tmp_path)


class TestRegistryTables:
    def test_text_table_lists_every_experiment(self):
        table = registry.registry_table()
        for name in registry.names():
            assert name in table

    def test_markdown_table_lists_every_experiment(self):
        table = registry.registry_table_markdown()
        for name, spec in registry.items():
            assert f"`{name}`" in table
            assert spec.title in table

    def test_experiments_md_registry_table_is_up_to_date(self):
        """EXPERIMENTS.md embeds the generated table; it must not drift."""
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        lines = text.splitlines()
        begin = next(
            index for index, line in enumerate(lines) if "registry-table:begin" in line
        )
        end = next(
            index for index, line in enumerate(lines) if "registry-table:end" in line
        )
        embedded = "\n".join(lines[begin + 1 : end])
        assert embedded == registry.registry_table_markdown(), (
            "EXPERIMENTS.md registry table is stale; regenerate it with "
            "PYTHONPATH=src python -c 'from repro.experiments import registry; "
            "print(registry.registry_table_markdown())'"
        )


def _dummy_run(**kwargs):
    return kwargs


def _dummy_report(result):
    return "dummy report"


class TestRegisterSemantics:
    def test_duplicate_registration_needs_replace(self):
        spec = ExperimentSpec(
            name="dummy-experiment",
            title="Dummy",
            paper_ref="--",
            description="registration semantics fixture",
            run=_dummy_run,
            reporter=_dummy_report,
        )
        registry.register(spec)
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                registry.register(spec)
            replacement = ExperimentSpec(
                name="dummy-experiment",
                title="Dummy v2",
                paper_ref="--",
                description="registration semantics fixture",
                run=_dummy_run,
                reporter=_dummy_report,
            )
            assert registry.register(replacement, replace=True).title == "Dummy v2"
            assert registry.get("dummy-experiment") is replacement
        finally:
            registry.unregister("dummy-experiment")
        assert "dummy-experiment" not in registry.names()

    def test_registered_dummy_is_runnable_through_the_one_entry_point(self):
        registry.register(
            ExperimentSpec(
                name="dummy-experiment",
                title="Dummy",
                paper_ref="--",
                description="one-entry-point fixture",
                run=_dummy_run,
                reporter=_dummy_report,
                default_runs=7,
                params={"knob": "default"},
                supports_workers=False,
            )
        )
        try:
            run = run_experiment("dummy-experiment", knob="turned")
            assert run.runs == 7
            assert run.result == {"runs": 7, "seed": 0, "knob": "turned"}
            assert run.report == "dummy report"
        finally:
            registry.unregister("dummy-experiment")
