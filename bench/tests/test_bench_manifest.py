"""``BENCHMARK.json`` against the acceptance contract and the metric tables."""

import json
import re

from layers import END_TO_END, PER_LAYER
from manifest import build_manifest
from workloads import ROOT, build_workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _committed() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_committed_file_is_what_the_tables_build():
    assert _committed() == build_manifest()


def test_top_level_keys_and_limits():
    manifest = _committed()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert 1 <= len(manifest["paths"]) <= 16
    for path in manifest["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
    assert len(manifest["command"]) <= 32
    assert all(len(part) <= 200 for part in manifest["command"])
    # The command names no file outside ``paths``.
    assert manifest["command"][1].startswith(manifest["paths"][0] + "/")


def test_the_whole_run_schedule_fits_the_budget():
    manifest = _committed()
    runs = 4 + 22 * len(manifest["workloads"])
    # A run is its timed window plus set-up probes, checks and (traced) probes.
    assert runs * (manifest["run_seconds"] + 10) <= 3420


def test_workloads_have_a_one_line_why():
    workloads = _committed()["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [w["name"] for w in workloads] == list(build_workloads())
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert workload["why"] and len(workload["why"]) <= 200
        assert "\n" not in workload["why"]


def test_end_to_end_metrics_are_bounded_and_include_setup():
    metrics = _committed()["end_to_end"]
    assert 1 <= len(metrics) <= 16
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    setup = next(metric for metric in metrics if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in metrics)


def test_per_layer_metrics_are_well_formed():
    metrics = _committed()["per_layer"]
    assert 1 <= len(metrics) <= 128
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")


def test_every_name_is_used_once():
    manifest = _committed()
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert len(names) == len(set(names))


def test_every_layer_metric_predicts_what_it_moves_and_where():
    end_to_end = {metric.name for metric in END_TO_END}
    workloads = set(build_workloads())
    for metric in PER_LAYER:
        assert metric.moves in end_to_end, metric.name
        assert metric.where and set(metric.where) <= workloads, metric.name
        assert metric.clock in ("host", "sim", "count"), metric.name
        assert metric.meaning, metric.name
    for metric in END_TO_END:
        assert metric.clock == "host" and metric.meaning


def test_every_workload_is_a_control_for_some_layer_metric():
    # For each optimisation one workload exercises its mechanism and one
    # bypasses it: no per-layer prediction may name every workload except the
    # metrics that genuinely apply everywhere (checks, overheads, the model).
    workloads = set(build_workloads())
    for name in workloads:
        assert any(name not in metric.where for metric in PER_LAYER)
        assert any(name in metric.where for metric in PER_LAYER)
