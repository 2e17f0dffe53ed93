"""Cold set-up of one in-process workload: what ``setup_s`` times.

Run as a fresh interpreter by the benchmark; exits once the workload's first
episode could begin (imports done, registries filled, scenario built).
"""

from __future__ import annotations

import sys

from workloads import build_workloads, require_source_tree

if __name__ == "__main__":
    require_source_tree()
    build_workloads(smoke="--smoke" in sys.argv[2:])[sys.argv[1]].prepare()
