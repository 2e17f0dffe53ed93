#!/usr/bin/env python3
"""Compare Raft, Z-Raft and ESCAPE leader-failover time at several scales.

A laptop-sized version of the paper's Figure 9 / Figure 11 comparisons: for
each protocol and cluster size the script runs a number of independent
leader-crash episodes and prints the average out-of-service time, the p95, and
how often Raft suffered split votes.

Any protocol registered in ``repro.protocols`` can join the comparison
(``--protocols raft,raft-stagger,zraft,escape``).

Run with::

    python examples/compare_protocols.py [--runs N] [--sizes 8,16,32] [--loss 0.2]
"""

from __future__ import annotations

import argparse

from repro import protocols as protocol_registry
from repro.cluster import ElectionScenario
from repro.metrics.records import MeasurementSet
from repro.metrics.tables import render_table
from repro.net.faults import BroadcastOmissionFault


def compare(
    sizes: list[int], runs: int, loss: float, seed: int, protocols: tuple[str, ...]
) -> str:
    rows = []
    for size in sizes:
        cells: dict[str, MeasurementSet] = {}
        for protocol in protocols:
            scenario = ElectionScenario(
                protocol=protocol,
                cluster_size=size,
                fault=BroadcastOmissionFault(loss) if loss != 0.0 else None,
                workload_interval_ms=250.0 if loss > 0 else 0.0,
            )
            cells[protocol] = MeasurementSet(
                scenario.run_many(runs, base_seed=seed), label=protocol
            )
        summaries = {
            protocol: cells[protocol].total_summary() for protocol in protocols
        }
        row: list[object] = [size]
        row += [
            f"{summaries[protocol].mean:.0f} / {summaries[protocol].p95:.0f}"
            for protocol in protocols
        ]
        row += [
            f"{100 * cells[protocol].split_vote_fraction():.0f}%"
            for protocol in protocols
        ]
        if {"raft", "escape"} <= set(protocols):
            reduction = (
                100.0
                * (summaries["raft"].mean - summaries["escape"].mean)
                / summaries["raft"].mean
            )
            row.append(f"{reduction:.1f}%")
        rows.append(row)
    headers = ["servers"]
    headers += [
        f"{protocol_registry.title(protocol)} mean/p95 (ms)"
        for protocol in protocols
    ]
    headers += [
        f"{protocol_registry.title(protocol)} splits" for protocol in protocols
    ]
    if {"raft", "escape"} <= set(protocols):
        headers.append("ESCAPE vs Raft")
    return render_table(
        headers=headers,
        rows=rows,
        title=f"Leader failover comparison ({runs} runs per cell, loss={loss:.0%})",
    )


def _protocol_list(value: str) -> tuple[str, ...]:
    names = [part.strip() for part in value.split(",") if part.strip()]
    for name in names:
        if not protocol_registry.is_registered(name):
            raise argparse.ArgumentTypeError(
                f"unknown protocol {name!r}; registered: "
                f"{', '.join(protocol_registry.names())}"
            )
        if not protocol_registry.get(name).guarantees_liveness:
            raise argparse.ArgumentTypeError(
                f"protocol {name!r} livelocks by design and never elects a "
                "leader; it cannot run in this comparison"
            )
    return tuple(names)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--sizes", type=str, default="8,16,32")
    parser.add_argument("--loss", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--protocols",
        type=_protocol_list,
        default=protocol_registry.PAPER_PROTOCOLS,
        help=f"comma-separated registry names ({', '.join(protocol_registry.names())})",
    )
    args = parser.parse_args()
    sizes = [int(part) for part in args.sizes.split(",") if part]
    print(compare(sizes, args.runs, args.loss, args.seed, args.protocols))


if __name__ == "__main__":
    main()
