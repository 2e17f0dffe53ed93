#!/usr/bin/env python3
"""Message-loss study: a laptop-sized version of the paper's Figure 11.

For each broadcast loss rate Δ the script measures the average leader-election
time of Raft, Z-Raft and ESCAPE in a 10-server cluster with an active client
workload (so lost heartbeats actually leave followers behind), and prints the
reduction each prioritized protocol achieves over Raft.

Run with::

    python examples/message_loss_study.py [--runs N] [--size 10]
"""

from __future__ import annotations

import argparse

from repro.experiments import fig11_message_loss, run_experiment
from repro.metrics.stats import reduction_percent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--size", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # One registry entry point runs any experiment programmatically; the
    # envelope carries the GridResult, the rendered report and run metadata.
    run = run_experiment(
        "fig11",
        runs=args.runs,
        seed=args.seed,
        sizes=(args.size,),
        loss_rates=fig11_message_loss.PAPER_LOSS_RATES,
    )
    result = run.result
    print(run.report)
    print(f"\n({run.runs} runs in {run.elapsed_s:.1f} s, seed {run.seed})")

    print("\nTakeaway:")
    worst = max(fig11_message_loss.PAPER_LOSS_RATES)
    raft, zraft, escape = (
        result.cell(protocol=protocol, size=args.size, loss_rate=worst).mean_total_ms()
        for protocol in ("raft", "zraft", "escape")
    )
    escape_gain = reduction_percent(raft, escape)
    zraft_gain = reduction_percent(raft, zraft)
    print(
        f"  at Δ={worst:.0%}, ESCAPE cuts the election time by {escape_gain:.1f}% vs Raft "
        f"(Z-Raft: {zraft_gain:.1f}%), because the probing patrol keeps the shortest "
        "timeout on a server that is still up to date."
    )


if __name__ == "__main__":
    main()
