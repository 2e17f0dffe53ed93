"""Conformance suite for the experiment registry.

Every registered declaration (a :class:`SweepExperiment`, the one kind there
is) is exercised generically: a quick run through :func:`run_experiment`
returns a picklable envelope whose report matches the declaration's reporter,
and the registry-derived rejection messages cover unknown names, unsupported
sweep-wide options and unsweepable protocols.  Registering another experiment
automatically subjects it to this suite (and to the grid / archive contract
in ``test_experiments_structure.py``).
"""

import dataclasses
import pickle
from pathlib import Path

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments import (
    ExperimentRun,
    SweepExperiment,
    registry,
    run_experiment,
)
from repro.experiments.spec import CAPABILITIES

from helpers import registrations

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

    @pytest.mark.parametrize("name", registry.names())
    def test_spec_pickles_by_reference(self, name):
        spec = registry.get(name)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.params == spec.params
        assert clone.label is spec.label and clone.scenario is spec.scenario

    def test_the_registry_stores_the_declarations_themselves(self):
        """One kind: the registry table reads no other, adapter-redis included."""
        assert len(registry.names()) == 12
        assert all(isinstance(spec, SweepExperiment) for _, spec in registry.items())
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        table = text[text.index("registry-table:begin") : text.index("registry-table:end")]
        (row,) = [
            line.split(" | ")
            for line in table.splitlines()
            if line.startswith("| `adapter-redis` |")
        ]
        assert row[3:5] == ["-", "200"]

    def test_invalid_specs_are_rejected(self):
        sweep = registry.get("fig3")
        with pytest.raises(ConfigurationError, match="whitespace"):
            registry.register(dataclasses.replace(sweep, name="bad name"))
        # Names become export file names; path syntax must be rejected.
        for name in ("a/b", "..escape"):
            with pytest.raises(ConfigurationError, match="path"):
                dataclasses.replace(sweep, name=name)
        # Neither a collecting RecordSet nor a to_row(label): unarchivable.
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


class TestRegisterSemantics:
    def test_duplicate_registration_needs_replace(self):
        spec = dataclasses.replace(registry.get("fig3"), name="dummy-experiment")
        with registrations(registry):
            registry.register(spec)
            with pytest.raises(ConfigurationError, match="already registered"):
                registry.register(spec)
            replacement = dataclasses.replace(spec, title="Dummy v2")
            assert registry.register(replacement, replace=True).title == "Dummy v2"
            assert registry.get("dummy-experiment") is replacement
        assert "dummy-experiment" not in registry.names()

    def test_registered_dummy_is_runnable_through_the_one_entry_point(self):
        with registrations(registry):
            registry.register(
                dataclasses.replace(
                    registry.get("fig3"), name="dummy-experiment", default_runs=2
                )
            )
            run = run_experiment("dummy-experiment", quick=True, cluster_size=3)
            assert run.runs == 2
            assert run.result.context == {"cluster_size": 3}
            assert run.report.startswith("Figure 3")
