"""The benchmark end to end, on the tiny ``--smoke`` workloads."""

import json
import shutil
import subprocess
import sys
import time

from layers import END_TO_END, PER_LAYER
from workloads import BENCH_DIR, ROOT, build_workloads

RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def _run(*args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [*RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


def _result(completed) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_smoke_run_of_every_workload_is_correct_and_quick():
    started = time.perf_counter()
    completed = _run("--smoke", "--seed", "3")
    elapsed = time.perf_counter() - started
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert elapsed < 20.0
    for name in build_workloads():
        assert f"== {name} (seed 3): " in completed.stdout
    assert ", 0 failed ==" in completed.stdout
    for metric in END_TO_END:
        assert metric.name in completed.stdout
    merged = json.loads((BENCH_DIR / "out" / "metrics-3.json").read_text())
    assert set(merged) >= set(build_workloads())


def test_single_workload_prints_the_contract_line():
    completed = _run(
        "--workload", "escape-failover-s128", "--seed", "1", "--seconds", "1",
        "--trace", "0", "--smoke",
    )
    assert completed.returncode == 0, completed.stderr
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {metric.name for metric in END_TO_END}
    for metric in END_TO_END:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit and entry["value"] > 0


def test_traced_run_reports_every_layer_metric_and_writes_a_trace():
    completed = _run(
        "--workload", "serve-openloop-s16", "--seed", "1", "--seconds", "1",
        "--trace", "1", "--smoke",
    )
    assert completed.returncode == 0, completed.stderr
    result = _result(completed)
    assert result["correct"] is True
    assert set(result["metrics"]) == {metric.name for metric in PER_LAYER}
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert values["workload.issued_per_episode"] > 0
    assert values["chaos.outages_per_episode"] >= 1
    assert values["sim.events_per_episode"] > 0
    assert values["cluster.failover.ms_per_episode"] == 0  # layer not entered
    trace = json.loads((BENCH_DIR / "out" / "trace-serve-openloop-s16.json").read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert {"episode", "cluster.build", "workload.window", "workload.finalize"} <= names


def test_same_seed_repeats_every_seed_pure_metric():
    args = ("--workload", "raft-failover-s128", "--seed", "5", "--seconds", "1",
            "--trace", "1", "--smoke")
    first = _result(_run(*args))["metrics"]
    second = _result(_run(*args))["metrics"]
    pure = [m.name for m in PER_LAYER if m.clock in ("sim", "count")]
    assert pure
    assert {name: first[name] for name in pure} == {name: second[name] for name in pure}
    other = _result(_run(*args[:3], "6", *args[4:]))["metrics"]
    assert other["sim.outage_ms_mean"] != first["sim.outage_ms_mean"]


def test_without_the_simulator_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "raft-failover-s128",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "{" not in completed.stdout
