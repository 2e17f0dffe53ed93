"""The benchmark's metric tables: the single source ``BENCHMARK.json`` is built from.

Every metric says which clock it reads:

* ``host``  -- wall time or memory of the machine running the simulator; noisy.
  End-to-end times are read against a reference loop (``measure.py``).
* ``sim``   -- simulated milliseconds; a pure function of the episode seeds.
* ``count`` -- work counted at a layer boundary; a pure function of the seeds.

``sim`` and ``count`` metrics must repeat exactly for the same ``--seed``; a
change meant only to speed the simulator up must leave them bit-identical.

Each per-layer metric also records, *before* anything is measured, which
end-to-end metric it should move and on which workloads (``where``), so a
performance claim can be checked against the prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

RAFT = "raft-failover-s128"
ESCAPE = "escape-failover-s128"
SERVE = "serve-openloop-s16"
CLI = "cli-fig11-loss"
ALL = (RAFT, ESCAPE, SERVE, CLI)


@dataclass(frozen=True)
class EndToEndMetric:
    name: str
    unit: str
    better: str
    bound: float
    clock: str
    meaning: str


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    clock: str
    moves: str
    where: tuple[str, ...]
    meaning: str


END_TO_END: tuple[EndToEndMetric, ...] = (
    EndToEndMetric(
        "episodes_per_s", "1/s", "higher", 0.25, "host",
        "episodes completed / their host time at the workload's stated cluster size, "
        "read against the reference loop; for cli-fig11-loss the time is the whole "
        "subprocess, import to export on disk",
    ),
    EndToEndMetric(
        "peak_rss_mb", "MiB", "lower", 0.15, "host",
        "high-water resident set of the largest process in the workload's tree",
    ),
    EndToEndMetric(
        "setup_s", "s", "lower", 0.25, "host",
        "median of 7 cold interpreter starts up to the point the first episode "
        "can begin: imports, spec registries, plan and scenario construction; "
        "read against the reference loop",
    ),
)


_m = LayerMetric
_EPS = "episodes_per_s"

PER_LAYER: tuple[LayerMetric, ...] = (
    # -- cluster: the harness phases of one episode ------------------------- #
    _m("cluster.build.ms_per_episode", "ms", "lower", "host", _EPS, (ESCAPE, CLI),
       "scenario.build(): world, network, nodes, listeners"),
    _m("cluster.build.share", "ratio", "lower", "host", _EPS, (ESCAPE, CLI),
       "build time / episode time; the ceiling of any build optimisation"),
    _m("cluster.start.ms_per_episode", "ms", "lower", "host", _EPS, (ESCAPE,),
       "SimulatedCluster.start_all()"),
    _m("cluster.stabilize.ms_per_episode", "ms", "lower", "host", _EPS, (RAFT,),
       "ElectionHarness.stabilize(): the first election"),
    _m("cluster.steady.ms_per_episode", "ms", "lower", "host", _EPS, (ESCAPE,),
       "run_for(pre_crash + jitter): heartbeats under a stable leader"),
    _m("cluster.failover.ms_per_episode", "ms", "lower", "host", _EPS, (RAFT,),
       "crash_leader_and_measure(): the measured election"),
    _m("cluster.check.ms_per_episode", "ms", "lower", "host", _EPS, ALL,
       "election-safety and committed-prefix checks after the episode"),
    _m("cluster.episode.p50_ms", "ms", "lower", "host", _EPS, ALL,
       "median host time of one untraced episode (n in the detail file)"),
    _m("cluster.episode.p95_ms", "ms", "lower", "host", _EPS, ALL,
       "95th percentile host time of one untraced episode"),
    _m("cluster.escape_build_over_raft_build", "ratio", "lower", "host", _EPS, (ESCAPE,),
       "probe: ESCAPE build time / Raft build time at s=128"),
    _m("cluster.traced_over_untraced", "ratio", "lower", "host", _EPS, ALL,
       "tracing overhead: traced episode time / untraced time, same seeds"),
    # -- sim: the event core ------------------------------------------------ #
    _m("sim.outage_ms_mean", "ms", "lower", "sim", _EPS, ALL,
       "simulated time without a leader / leader failures (the paper's metric)"),
    _m("sim.events_per_episode", "count", "lower", "count", _EPS, (RAFT, SERVE),
       "events executed per episode"),
    _m("sim.events.stabilize", "count", "lower", "count", _EPS, (RAFT,),
       "events executed per episode while electing the first leader"),
    _m("sim.events.steady", "count", "lower", "count", _EPS, (ESCAPE, SERVE),
       "events per episode in the steady phase (serving: the whole window)"),
    _m("sim.events.failover", "count", "lower", "count", _EPS, (RAFT,),
       "events executed per episode in the measured election"),
    _m("sim.cancelled_share", "ratio", "lower", "count", _EPS, (RAFT, SERVE),
       "events cancelled / events scheduled: heap work that never ran"),
    _m("sim.host_ns_per_event", "ns", "lower", "host", _EPS, (RAFT, SERVE),
       "run-phase host time / events executed"),
    _m("sim.probe.ns_per_event", "ns", "lower", "host", _EPS, (RAFT, SERVE),
       "probe: call_after + run_until_idle of a no-op on a bare flat scheduler"),
    _m("sim.probe.ns_per_timer_reset", "ns", "lower", "host", _EPS, (RAFT, SERVE),
       "probe: cancel_entry + schedule_timer_entry (an election-timer reset)"),
    # -- net: the message fabric -------------------------------------------- #
    _m("net.sent_per_episode", "count", "lower", "count", _EPS, (RAFT,),
       "messages sent per episode"),
    _m("net.sent.RequestVote_per_episode", "count", "lower", "count", _EPS, (RAFT,),
       "RequestVote requests sent per episode"),
    _m("net.sent.AppendEntries_per_episode", "count", "lower", "count", _EPS, (ESCAPE, SERVE),
       "AppendEntries requests sent per episode"),
    _m("net.broadcasts_per_episode", "count", "lower", "count", _EPS, (RAFT,),
       "broadcast calls per episode"),
    _m("net.dropped_share", "ratio", "lower", "count", _EPS, (CLI,),
       "messages dropped / messages sent"),
    _m("net.probe.ns_per_unicast", "ns", "lower", "host", _EPS, (RAFT,),
       "probe: send + deliver one message on a 128-member flat network"),
    _m("net.probe.ns_per_broadcast_dst", "ns", "lower", "host", _EPS, (RAFT,),
       "probe: broadcast to 127 peers, per destination, no fault"),
    _m("net.probe.ns_per_broadcast_dst_loss20", "ns", "lower", "host", _EPS, (CLI,),
       "probe: the same under BroadcastOmissionFault(0.2)"),
    # -- raft: vote and append handlers ------------------------------------- #
    _m("raft.campaigns_per_failover", "count", "lower", "count", _EPS, (RAFT,),
       "campaigns started per leader failure"),
    _m("raft.split_vote_share", "ratio", "lower", "count", _EPS, (RAFT,),
       "failovers in which some term elected no leader"),
    _m("raft.request_votes_per_win", "count", "lower", "count", _EPS, (RAFT,),
       "RequestVote requests sent in the measured election per elected leader"),
    _m("raft.probe.ns_per_request_vote", "ns", "lower", "host", _EPS, (RAFT,),
       "probe: RaftNode.on_message(RequestVote), one grant and one refusal per term"),
    _m("raft.probe.ns_per_heartbeat", "ns", "lower", "host", _EPS, (ESCAPE, SERVE),
       "probe: RaftNode.on_message(empty AppendEntries)"),
    _m("raft.probe.ns_per_append_1", "ns", "lower", "host", _EPS, (SERVE,),
       "probe: RaftNode.on_message(AppendEntries with one entry): append, commit, apply"),
    # -- escape: SCA and the probing patrol --------------------------------- #
    _m("escape.probe.sca_assign_us_s128", "us", "lower", "host", _EPS, (ESCAPE,),
       "probe: assign_initial_configurations for 128 servers"),
    _m("escape.probe.ppf_round_us_s128", "us", "lower", "host", _EPS, (ESCAPE,),
       "probe: ProbingPatrol.advance_round with 127 followers"),
    _m("escape.steady_us_per_heartbeat", "us", "lower", "host", _EPS, (ESCAPE,),
       "steady-phase host time / leader broadcast rounds (ESCAPE workloads only)"),
    # -- workload / chaos / storage / statemachine: the serving path -------- #
    _m("workload.window.ms_per_episode", "ms", "lower", "host", _EPS, (SERVE,),
       "run_for(horizon) with the workload and chaos drivers running"),
    _m("workload.finalize.ms_per_episode", "ms", "lower", "host", _EPS, (SERVE,),
       "resolving pending ops and the KV ground-truth replay"),
    _m("workload.issued_per_episode", "count", "higher", "count", _EPS, (SERVE,),
       "client ops issued per episode (any outcome)"),
    _m("workload.committed_share", "ratio", "higher", "count", _EPS, (SERVE,),
       "ops committed / ops issued; the rest were due while no leader existed or lost"),
    _m("workload.sim_commit_ms_p50", "ms", "lower", "sim", _EPS, (SERVE,),
       "median simulated propose-to-apply latency"),
    _m("workload.sim_commit_ms_p99", "ms", "lower", "sim", _EPS, (SERVE,),
       "99th percentile simulated propose-to-apply latency"),
    _m("workload.sim_ops_per_s", "1/s", "higher", "sim", _EPS, (SERVE,),
       "committed ops per simulated second of window"),
    _m("workload.host_us_per_op", "us", "lower", "host", _EPS, (SERVE,),
       "window host time / ops issued"),
    _m("chaos.applied_per_episode", "count", "higher", "count", _EPS, (SERVE,),
       "chaos injections applied per episode"),
    _m("chaos.outages_per_episode", "count", "lower", "count", _EPS, (SERVE,),
       "leaderless intervals per episode"),
    _m("storage.probe.ns_per_append", "ns", "lower", "host", _EPS, (SERVE,),
       "probe: ReplicatedLog.append_command"),
    _m("storage.probe.ns_per_term_at", "ns", "lower", "host", _EPS, (SERVE,),
       "probe: ReplicatedLog.term_at"),
    _m("statemachine.probe.ns_per_put", "ns", "lower", "host", _EPS, (SERVE,),
       "probe: KeyValueStore.apply(PutCommand)"),
    # -- metrics: sweep aggregation ----------------------------------------- #
    _m("metrics.probe.aggregate_add_ns", "ns", "lower", "host", _EPS, (CLI,),
       "probe: ElectionAggregate.add"),
    _m("metrics.probe.aggregate_merge_us", "us", "lower", "host", _EPS, (CLI,),
       "probe: ElectionAggregate.merge of a 64-episode partial"),
    _m("metrics.probe.state_roundtrip_us", "us", "lower", "host", "peak_rss_mb", (CLI,),
       "probe: ElectionAggregate to_state -> JSON -> from_state"),
    # -- experiments: the CLI, the sweep pool, export ------------------------ #
    _m("experiments.cli.import_s", "s", "lower", "host", "setup_s", (CLI,),
       "median wall of a cold interpreter importing repro.experiments.__main__"),
    _m("experiments.profile.build_s", "s", "lower", "host", _EPS, (CLI,),
       "ExperimentRun.profile['build'] of the traced CLI sweep"),
    _m("experiments.profile.sweep_s", "s", "lower", "host", _EPS, (CLI,),
       "ExperimentRun.profile['sweep']: the pool's wall"),
    _m("experiments.profile.report_s", "s", "lower", "host", _EPS, (CLI,),
       "ExperimentRun.profile['report']"),
    _m("experiments.export_s", "s", "lower", "host", _EPS, (CLI,),
       "writing the sweep's CSV and lossless JSON export"),
    _m("experiments.runner.pool_efficiency", "ratio", "higher", "host", _EPS, (CLI,),
       "serial in-process episode time / (workers x sweep wall)"),
    _m("experiments.runner.overhead_us_per_episode", "us", "lower", "host", _EPS, (CLI,),
       "probe: run_sweep(workers=1) over s=3 episodes minus the same seeds in a plain loop"),
    _m("experiments.checkpoint.append_us", "us", "lower", "host", _EPS, (CLI,),
       "probe: SweepCheckpoint.record of one 15-label chunk"),
    # -- obs / common -------------------------------------------------------- #
    _m("obs.telemetry_on_over_off", "ratio", "lower", "host", _EPS, ALL,
       "probe: escape s=16 episode time with telemetry on / off"),
    _m("obs.trace_on_over_off", "ratio", "lower", "host", _EPS, ALL,
       "probe: escape s=16 episode time with the world trace on / off"),
    _m("common.probe.seed_stream_ns", "ns", "lower", "host", _EPS, ALL,
       "probe: SeedSequence.stream (one SHA-256 + Random seed)"),
    # -- the cost model ------------------------------------------------------ #
    _m("model.residual_share", "ratio", "lower", "host", _EPS, ALL,
       "1 - (counts x probe costs) / traced wall: what the probes do not explain"),
)
