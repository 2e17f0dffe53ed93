"""A cold election or serving start loads only the modules it runs.

One fresh interpreter imports :mod:`repro.cluster.scenarios`, builds the
s=128 Raft and ESCAPE scenarios (the module budget is counted here) and runs
one telemetry-off, workload-free s=8 episode of each; the modules it has
loaded by then are the election's cold path.  The same interpreter then runs
an episode with a client workload and telemetry, which must pull those
branches in -- and measure exactly what the same scenario measures here,
where everything is already loaded.

A second fresh interpreter does the same for serving: it builds the
benchmark's s=16 ``ThroughputScenario`` (budget counted here), runs one
telemetry-off s=8 window, and then the same window with telemetry.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.chaos.plans import build_plan
from repro.cluster.scenarios import ElectionScenario
from repro.workload.scenario import ThroughputScenario

#: Packages and modules an election without telemetry or a workload never runs.
OFF_PATH = (
    "repro.obs",
    "repro.workload",
    "repro.chaos",
    "repro.experiments",
    "repro.analysis",
    "repro.adapters",
    "repro.lint",
    "repro.metrics.stats",
    "repro.metrics.streaming",
    "repro.metrics.tables",
    "repro.cluster.catalog",
)

SEED = 11

CHILD = """
import json, pickle, sys
from repro.cluster.scenarios import ElectionScenario

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "repro")

seed = int(sys.argv[1])
for protocol in ("raft", "escape"):
    ElectionScenario(protocol, 128)
built = loaded()
for protocol in ("raft", "escape"):
    ElectionScenario(protocol, 8).run(seed)
cold = loaded()
served = ElectionScenario(
    "escape", 8, workload_interval_ms=50.0, telemetry=True
).run(seed)
print(json.dumps({
    "built": built,
    "cold": cold,
    "served": loaded(),
    "measurement": pickle.dumps(served).hex(),
}))
"""


#: What a serving window without telemetry never runs: telemetry and the
#: streaming statistics the ``throughput`` experiment aggregates with.
SERVING_OFF_PATH = (
    "repro.obs",
    "repro.metrics.streaming",
    "repro.metrics.stats",
    "repro.workload.aggregate",
)

SERVING_CHILD = """
import json, pickle, sys
from dataclasses import replace
from repro.chaos.plans import build_plan
from repro.workload.scenario import ThroughputScenario

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "repro")

seed = int(sys.argv[1])
scenario = ThroughputScenario(
    "escape",
    16,
    plan=build_plan("repeated-leader-kill", 60000.0, seed=0),
    workload="open-poisson",
)
built = loaded()
window = replace(scenario, cluster_size=8)
window.run(seed)
cold = loaded()
served = window.with_telemetry().run(seed)
print(json.dumps({
    "built": built,
    "cold": cold,
    "served": loaded(),
    "measurement": pickle.dumps(served).hex(),
}))
"""


def _off_path(modules: list[str], prefixes: tuple[str, ...] = OFF_PATH) -> list[str]:
    return [
        name
        for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)
    ]


def _run_child(source: str) -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, inherited)))}
    result = subprocess.run(
        [sys.executable, "-c", source, str(SEED)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


@pytest.fixture(scope="module")
def child() -> dict:
    return _run_child(CHILD)


@pytest.fixture(scope="module")
def serving_child() -> dict:
    return _run_child(SERVING_CHILD)


class TestColdElectionPath:
    def test_an_election_loads_nothing_it_does_not_run(self, child):
        print(
            f"cold election path: {len(child['built'])} repro modules built, "
            f"{len(child['cold'])} after one episode per protocol"
        )
        assert _off_path(child["cold"]) == []

    def test_building_the_scenarios_stays_within_its_module_budget(self, child):
        assert len(child["built"]) <= 53

    def test_a_workload_with_telemetry_loads_its_branches(self, child):
        assert {"repro.workload.driver", "repro.obs.harvest"} <= set(child["served"])

    def test_the_deferred_imports_measure_what_a_warm_process_measures(self, child):
        here = ElectionScenario(
            "escape", 8, workload_interval_ms=50.0, telemetry=True
        ).run(SEED)
        there = pickle.loads(bytes.fromhex(child["measurement"]))
        assert here.extra["workload_proposed"] > 0
        assert "telemetry" in here.extra
        assert there == here


class TestColdServingPath:
    def test_a_serving_window_loads_nothing_it_does_not_run(self, serving_child):
        print(
            f"cold serving path: {len(serving_child['built'])} repro modules built, "
            f"{len(serving_child['cold'])} after one window"
        )
        assert _off_path(serving_child["cold"], SERVING_OFF_PATH) == []

    def test_building_the_scenario_stays_within_its_module_budget(self, serving_child):
        assert len(serving_child["built"]) <= 64

    def test_telemetry_loads_its_branch(self, serving_child):
        assert "repro.obs.harvest" in serving_child["served"]

    def test_the_deferred_imports_measure_what_a_warm_process_measures(
        self, serving_child
    ):
        here = ThroughputScenario(
            "escape",
            8,
            plan=build_plan("repeated-leader-kill", 60000.0, seed=0),
            workload="open-poisson",
            telemetry=True,
        ).run(SEED)
        there = pickle.loads(bytes.fromhex(serving_child["measurement"]))
        assert here.committed > 0
        assert "telemetry" in here.extra
        assert there == here
