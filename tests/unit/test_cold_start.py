"""A cold election start loads only the modules an election runs.

One fresh interpreter imports :mod:`repro.cluster.scenarios`, builds the
s=128 Raft and ESCAPE scenarios (the module budget is counted here) and runs
one telemetry-off, workload-free s=8 episode of each; the modules it has
loaded by then are the election's cold path.  The same interpreter then runs
an episode with a client workload and telemetry, which must pull those
branches in -- and measure exactly what the same scenario measures here,
where everything is already loaded.
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
from repro.cluster.scenarios import ElectionScenario

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
    "repro.sim.scheduler",
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


def _off_path(modules: list[str]) -> list[str]:
    return [
        name
        for name in modules
        if any(name == prefix or name.startswith(prefix + ".") for prefix in OFF_PATH)
    ]


@pytest.fixture(scope="module")
def child() -> dict:
    src = str(Path(repro.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, inherited)))}
    result = subprocess.run(
        [sys.executable, "-c", CHILD, str(SEED)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


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
