#!/usr/bin/env python3
"""Geo-distributed failover: split votes across regions and how ESCAPE avoids them.

Section II-B of the paper observes that geo-distributed deployments -- fast
links inside a region, slow links between regions -- are especially prone to
split votes, because a candidate quickly gathers its local region's votes and
then starves candidates in other regions.  This example builds a 9-server
cluster spread over three regions with a two-tier latency model, repeatedly
crashes the leader, and compares Raft's and ESCAPE's failover behaviour.

It then runs the ``partition-flap`` chaos plan end-to-end on the same WAN
topology: the current leader is repeatedly cut off behind a partition and
healed again, while a client workload keeps proposing, and the steady-state
availability of each protocol is reported (see :mod:`repro.chaos`).

Run with::

    python examples/geo_distributed_failover.py [--runs N]
"""

from __future__ import annotations

import argparse

from repro.chaos import ChaosScenario, build_plan
from repro.cluster import ElectionHarness, ElectionObserver, build_cluster
from repro.common.config import ProtocolConfig
from repro.metrics.records import MeasurementSet
from repro.metrics.tables import render_table
from repro.net.latency import GeoGroupLatency, GeoLatencySpec

#: Three regions, three servers each.
REGIONS = {
    1: "us-east",
    2: "us-east",
    3: "us-east",
    4: "eu-west",
    5: "eu-west",
    6: "eu-west",
    7: "ap-south",
    8: "ap-south",
    9: "ap-south",
}


def run_protocol(protocol: str, runs: int, seed: int) -> MeasurementSet:
    measurements = MeasurementSet(label=protocol)
    for index in range(runs):
        run_seed = seed * 10_000 + index
        latency = GeoGroupLatency(
            regions=REGIONS, intra_ms=(5.0, 15.0), inter_ms=(120.0, 220.0)
        )
        observer = ElectionObserver()
        cluster = build_cluster(
            protocol=protocol,
            size=len(REGIONS),
            seed=run_seed,
            latency=latency,
            protocol_config=ProtocolConfig.paper_defaults(),
            listeners=(observer,),
            trace=False,
        )
        harness = ElectionHarness(cluster, observer)
        cluster.start_all()
        harness.stabilize()
        harness.run_for(1_000.0)
        measurements.add(harness.crash_leader_and_measure(seed=run_seed))
        harness.assert_at_most_one_leader_per_term()
    return measurements


def run_partition_flap_chaos(
    protocol: str, seed: int, horizon_ms: float
) -> "tuple[float, int, int]":
    """Run the partition-flap chaos plan on the 3-region WAN topology.

    Returns ``(availability, outages, dropped proposals)`` for one episode.
    """
    plan = build_plan("partition-flap", horizon_ms=horizon_ms, seed=seed)
    scenario = ChaosScenario(
        protocol=protocol,
        cluster_size=len(REGIONS),
        plan=plan,
        latency=GeoLatencySpec(
            region_count=3, intra_ms=(5.0, 15.0), inter_ms=(120.0, 220.0)
        ),
        workload_interval_ms=250.0,
    )
    measurement = scenario.run(seed)
    return (
        measurement.availability,
        measurement.outage_count,
        measurement.proposals_dropped,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=25)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--chaos-horizon-ms",
        type=float,
        default=60_000.0,
        help="simulated window for the partition-flap chaos phase",
    )
    args = parser.parse_args()

    rows = []
    for protocol in ("raft", "escape"):
        measurements = run_protocol(protocol, args.runs, args.seed)
        summary = measurements.total_summary()
        rows.append(
            [
                protocol,
                f"{summary.mean:.0f}",
                f"{summary.p95:.0f}",
                f"{summary.maximum:.0f}",
                f"{100 * measurements.split_vote_fraction():.0f}%",
            ]
        )
    print(
        render_table(
            headers=["protocol", "mean (ms)", "p95 (ms)", "max (ms)", "split votes"],
            rows=rows,
            title=(
                "Geo-distributed failover: 9 servers in 3 regions, "
                f"{args.runs} leader crashes per protocol"
            ),
        )
    )

    print()
    chaos_rows = []
    for protocol in ("raft", "escape"):
        availability, outages, dropped = run_partition_flap_chaos(
            protocol, args.seed, args.chaos_horizon_ms
        )
        chaos_rows.append(
            [protocol, f"{100 * availability:.2f}%", outages, dropped]
        )
    print(
        render_table(
            headers=["protocol", "availability", "outages", "dropped proposals"],
            rows=chaos_rows,
            title=(
                "partition-flap chaos on the same WAN: leader isolated and "
                f"healed repeatedly over {args.chaos_horizon_ms / 1000.0:.0f} s"
            ),
        )
    )


if __name__ == "__main__":
    main()
