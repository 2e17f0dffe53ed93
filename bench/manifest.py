"""Builds ``BENCHMARK.json`` from the metric and workload tables.

``python3 bench/manifest.py`` rewrites the file at the repository root; the
tests require the committed file to equal ``build_manifest()``.
"""

from __future__ import annotations

import json

from layers import END_TO_END, PER_LAYER
from workloads import ROOT, build_workloads

RUN_SECONDS = 24


def build_manifest() -> dict[str, object]:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": workload.name, "why": workload.why}
            for workload in build_workloads().values()
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER
        ],
    }


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(json.dumps(build_manifest(), indent=2) + "\n")
