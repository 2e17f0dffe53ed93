"""Micro-probes: one layer's public API timed in isolation.

Every probe returns host time per operation as the median of a few
repetitions.  Probes do not depend on the workload or the seed; they price the
operations the traced run *counts*, so ``count x probe cost`` can be set
against the measured wall (``model.residual_share``).
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable

REPS = 3


def _median_ns_per_op(body: Callable[[], tuple[int, int]]) -> float:
    """Median over ``REPS`` of ``elapsed_ns / operations`` as *body* reports them."""
    gc.collect()
    samples = []
    for _ in range(REPS):
        elapsed_ns, operations = body()
        samples.append(elapsed_ns / operations)
    return statistics.median(samples)


def _noop() -> None:
    return None


def _noop_handler(src, payload) -> None:
    return None


# --------------------------------------------------------------------------- #
# sim
# --------------------------------------------------------------------------- #
def sim_ns_per_event(batches: int = 100, batch: int = 1_000) -> float:
    from repro.sim.flatcore import FlatEventScheduler

    def body():
        scheduler = FlatEventScheduler()
        started = time.perf_counter_ns()
        # Batches keep the heap near the depth an episode sees (~1k records).
        for _ in range(batches):
            for index in range(batch):
                scheduler.call_after(float(index % 97), _noop)
            scheduler.run_until_idle()
        return time.perf_counter_ns() - started, batches * batch

    return _median_ns_per_op(body)


def sim_ns_per_timer_reset(operations: int = 100_000) -> float:
    from repro.sim.flatcore import FlatEventScheduler

    def body():
        scheduler = FlatEventScheduler()
        entry = scheduler.schedule_timer_entry(150.0, _noop)
        started = time.perf_counter_ns()
        for _ in range(operations):
            scheduler.cancel_entry(entry)
            entry = scheduler.schedule_timer_entry(150.0, _noop)
        return time.perf_counter_ns() - started, operations

    return _median_ns_per_op(body)


# --------------------------------------------------------------------------- #
# net
# --------------------------------------------------------------------------- #
def _flat_network(size: int, fault=None):
    from repro.net.latency import UniformLatency
    from repro.sim.world import SimulationWorld

    world = SimulationWorld(seed=1, trace=False, engine="flat")
    members = tuple(range(1, size + 1))
    network = world.engine.network_class()(
        world, members, latency=UniformLatency(100.0, 200.0), fault=fault
    )
    for member in members:
        network.register(member, _noop_handler)
    return world, network, members


def net_ns_per_unicast(batches: int = 50, batch: int = 1_000) -> float:
    def body():
        world, network, members = _flat_network(128)
        payload = object()
        started = time.perf_counter_ns()
        # Batches keep the heap near the depth an episode sees (~1k records).
        for _ in range(batches):
            for index in range(batch):
                network.send(1, members[1 + index % 127], payload)
            world.scheduler.run_until_idle()
        return time.perf_counter_ns() - started, batches * batch

    return _median_ns_per_op(body)


def net_ns_per_broadcast_dst(loss_rate: float = 0.0, rounds: int = 400) -> float:
    from repro.net.faults import BroadcastOmissionFault

    def body():
        fault = BroadcastOmissionFault(loss_rate) if loss_rate > 0.0 else None
        world, network, members = _flat_network(128, fault)
        payload = object()
        targets = members[1:]

        def factory(dst):
            return payload

        started = time.perf_counter_ns()
        for index in range(rounds):
            network.broadcast(1, targets, factory)
            if index % 8 == 7:
                world.scheduler.run_until_idle()
        world.scheduler.run_until_idle()
        return time.perf_counter_ns() - started, rounds * len(targets)

    return _median_ns_per_op(body)


# --------------------------------------------------------------------------- #
# raft: RaftNode.on_message on a started small cluster's follower
# --------------------------------------------------------------------------- #
def _follower(size: int = 3):
    from repro.cluster.builder import build_cluster

    cluster = build_cluster("raft", size, seed=1, trace=False, engine="flat")
    cluster.start_all()
    return cluster.node(2)


def raft_ns_per_request_vote(operations: int = 20_000) -> float:
    from repro.raft.messages import RequestVoteRequest

    def body():
        # Four candidates per term, as one voter sees a split vote: the first
        # request is granted in a new term, the rest refused (the vote is spent).
        node = _follower(size=5)
        requests = [
            (candidate, RequestVoteRequest(term=term, candidate_id=candidate))
            for term in range(1, operations // 4 + 1)
            for candidate in (1, 3, 4, 5)
        ]
        started = time.perf_counter_ns()
        for candidate, request in requests:
            node.on_message(candidate, request)
        elapsed = time.perf_counter_ns() - started
        if node.stats["votes_granted"] != operations // 4:
            raise RuntimeError("request-vote probe: expected one grant per term")
        return elapsed, len(requests)

    return _median_ns_per_op(body)


def raft_ns_per_heartbeat(operations: int = 20_000) -> float:
    from repro.raft.messages import AppendEntriesRequest

    def body():
        node = _follower()
        heartbeat = AppendEntriesRequest(term=1, leader_id=1)
        started = time.perf_counter_ns()
        for _ in range(operations):
            node.on_message(1, heartbeat)
        return time.perf_counter_ns() - started, operations

    return _median_ns_per_op(body)


def raft_ns_per_append_1(operations: int = 10_000) -> float:
    from repro.raft.messages import AppendEntriesRequest
    from repro.statemachine.kvstore import PutCommand
    from repro.storage.log import LogEntry

    def body():
        node = _follower()
        requests = [
            AppendEntriesRequest(
                term=1,
                leader_id=1,
                prev_log_index=index - 1,
                prev_log_term=1 if index > 1 else 0,
                entries=(LogEntry(1, index, PutCommand(f"key-{index % 64}", index)),),
                leader_commit=index - 1,
            )
            for index in range(1, operations + 1)
        ]
        started = time.perf_counter_ns()
        for request in requests:
            node.on_message(1, request)
        elapsed = time.perf_counter_ns() - started
        if node.log.last_index != operations or node.last_applied != operations - 1:
            raise RuntimeError("append probe: entries were not appended and applied")
        return elapsed, operations

    return _median_ns_per_op(body)


# --------------------------------------------------------------------------- #
# escape
# --------------------------------------------------------------------------- #
def escape_sca_assign_us(size: int = 128, operations: int = 200) -> float:
    from repro.common.config import ScaParameters
    from repro.escape.sca import assign_initial_configurations

    ids = tuple(range(1, size + 1))
    params = ScaParameters(1500.0, 500.0)

    def body():
        started = time.perf_counter_ns()
        for _ in range(operations):
            assign_initial_configurations(ids, params)
        return time.perf_counter_ns() - started, operations

    return _median_ns_per_op(body) / 1000.0


def escape_ppf_round_us(size: int = 128, operations: int = 200) -> float:
    from repro.common.config import ScaParameters
    from repro.escape.ppf import ProbingPatrol

    def body():
        followers = tuple(range(2, size + 1))
        patrol = ProbingPatrol(1, followers, size, ScaParameters(1500.0, 500.0))
        elapsed = 0
        for round_index in range(operations):
            now_ms = 150.0 * (round_index + 1)
            # One straggler per round, so the patrol both ranks and rearranges.
            for follower in followers:
                if follower != 2 + round_index % len(followers):
                    patrol.record_reply(follower, 0, now_ms)
            started = time.perf_counter_ns()
            patrol.advance_round(now_ms, 0)
            elapsed += time.perf_counter_ns() - started
        return elapsed, operations

    return _median_ns_per_op(body) / 1000.0


# --------------------------------------------------------------------------- #
# storage / statemachine
# --------------------------------------------------------------------------- #
def storage_ns_per_append(operations: int = 100_000) -> float:
    from repro.storage.log import ReplicatedLog

    def body():
        log = ReplicatedLog()
        started = time.perf_counter_ns()
        for index in range(operations):
            log.append_command(1, index)
        return time.perf_counter_ns() - started, operations

    return _median_ns_per_op(body)


def storage_ns_per_term_at(operations: int = 100_000) -> float:
    from repro.storage.log import ReplicatedLog

    log = ReplicatedLog()
    for index in range(1024):
        log.append_command(1, index)

    def body():
        term_at = log.term_at
        started = time.perf_counter_ns()
        for index in range(operations):
            term_at(1 + index % 1024)
        return time.perf_counter_ns() - started, operations

    return _median_ns_per_op(body)


def statemachine_ns_per_put(operations: int = 100_000) -> float:
    from repro.statemachine.kvstore import KeyValueStore, PutCommand

    commands = [PutCommand(f"key-{index % 64}", index) for index in range(operations)]

    def body():
        store = KeyValueStore()
        started = time.perf_counter_ns()
        for command in commands:
            store.apply(command)
        return time.perf_counter_ns() - started, operations

    return _median_ns_per_op(body)


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #
def _measurements(count: int):
    from repro.cluster.scenarios import ElectionScenario

    scenario = ElectionScenario("escape", 3).with_engine("flat")
    return [scenario.run(seed) for seed in range(count)]


def metrics_probes(rounds: int = 200) -> dict[str, float]:
    from repro.metrics.streaming import ElectionAggregate

    sample = _measurements(64)

    def add_body():
        aggregate = ElectionAggregate("probe")
        started = time.perf_counter_ns()
        for _ in range(rounds):
            for measurement in sample:
                aggregate.add(measurement)
        return time.perf_counter_ns() - started, rounds * len(sample)

    partial = ElectionAggregate.from_measurements(sample, label="probe")

    def merge_body():
        aggregate = ElectionAggregate("probe")
        started = time.perf_counter_ns()
        for _ in range(rounds):
            aggregate.merge(partial)
        return time.perf_counter_ns() - started, rounds

    def roundtrip_body():
        started = time.perf_counter_ns()
        for _ in range(rounds):
            ElectionAggregate.from_state(json.loads(json.dumps(partial.to_state())))
        return time.perf_counter_ns() - started, rounds

    return {
        "metrics.probe.aggregate_add_ns": _median_ns_per_op(add_body),
        "metrics.probe.aggregate_merge_us": _median_ns_per_op(merge_body) / 1000.0,
        "metrics.probe.state_roundtrip_us": _median_ns_per_op(roundtrip_body) / 1000.0,
    }


# --------------------------------------------------------------------------- #
# experiments: sweep engine overhead and checkpoint append
# --------------------------------------------------------------------------- #
class _FreeEpisode:
    """Stands in for a scenario whose episode costs nothing, so that what
    ``run_sweep`` spends per episode (seed derivation, work items, accounting)
    is measured directly instead of as a difference of two near-equal walls."""

    def __init__(self, measurement) -> None:
        self._measurement = measurement

    def run(self, seed: int):
        return self._measurement


def runner_overhead_us_per_episode(episodes: int = 2_000) -> float:
    from repro.experiments.runner import run_sweep

    scenarios = {"probe": _FreeEpisode(_measurements(1)[0])}

    def body():
        started = time.perf_counter_ns()
        run_sweep(scenarios, runs=episodes, seed=1, workers=1)
        return time.perf_counter_ns() - started, episodes

    return _median_ns_per_op(body) / 1000.0


def checkpoint_append_us(scratch: Path, operations: int = 50) -> float:
    from repro.experiments.checkpoint import SweepCheckpoint
    from repro.metrics.streaming import ElectionAggregate

    labels = [f"cell-{index}" for index in range(15)]
    sample = _measurements(8)
    partials = {
        label: ElectionAggregate.from_measurements(sample, label=label)
        for label in labels
    }
    directory = scratch / "checkpoint-probe"

    def body():
        shutil.rmtree(directory, ignore_errors=True)
        with SweepCheckpoint.open(
            directory,
            fingerprint="bench-probe",
            labels=labels,
            runs=8,
            seed=1,
            chunk_size=8,
            loader=ElectionAggregate.from_state,
        ) as checkpoint:
            started = time.perf_counter_ns()
            for chunk in range(operations):
                checkpoint.record(chunk, partials)
            elapsed = time.perf_counter_ns() - started
        return elapsed, operations

    try:
        return _median_ns_per_op(body) / 1000.0
    finally:
        shutil.rmtree(directory, ignore_errors=True)


# --------------------------------------------------------------------------- #
# cluster / obs / common
# --------------------------------------------------------------------------- #
def _interleaved_ratio(numerator: Callable[[], None], denominator: Callable[[], None],
                       reps: int) -> float:
    """Summed time of *numerator* over *denominator*, run alternately."""
    gc.collect()
    totals = [0, 0]
    for rep in range(reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for which in order:
            started = time.perf_counter_ns()
            (numerator, denominator)[which]()
            totals[which] += time.perf_counter_ns() - started
    return totals[0] / totals[1]


def escape_build_over_raft_build(size: int = 128, reps: int = 6) -> float:
    from repro.cluster.scenarios import ElectionScenario

    escape = ElectionScenario("escape", size).with_engine("flat")
    raft = ElectionScenario("raft", size).with_engine("flat")
    return _interleaved_ratio(lambda: escape.build(1), lambda: raft.build(1), reps)


def obs_ratios(reps: int = 12) -> dict[str, float]:
    from dataclasses import replace

    from repro.cluster.scenarios import ElectionScenario

    plain = ElectionScenario("escape", 16).with_engine("flat")
    telemetry = plain.with_telemetry()
    traced = replace(plain, trace=True)
    seeds = iter(range(10_000))

    def runner(scenario):
        return lambda: scenario.run(next(seeds))

    return {
        "obs.telemetry_on_over_off": _interleaved_ratio(
            runner(telemetry), runner(plain), reps
        ),
        "obs.trace_on_over_off": _interleaved_ratio(runner(traced), runner(plain), reps),
    }


def seed_stream_ns(operations: int = 20_000) -> float:
    from repro.common.rng import SeedSequence

    def body():
        seeds = SeedSequence(1)
        started = time.perf_counter_ns()
        for index in range(operations):
            seeds.stream("node", index)
        return time.perf_counter_ns() - started, operations

    return _median_ns_per_op(body)


def run_probes(scratch: Path, smoke: bool = False) -> dict[str, float]:
    """Every workload-independent probe, keyed by its per-layer metric name.

    ``smoke`` does a twentieth of the operations: the numbers are then only
    good for checking that every probe still runs.
    """

    def ops(full: int) -> int:
        return max(4, full // 20) if smoke else full

    values = {
        "sim.probe.ns_per_event": sim_ns_per_event(batches=ops(100)),
        "sim.probe.ns_per_timer_reset": sim_ns_per_timer_reset(ops(100_000)),
        "net.probe.ns_per_unicast": net_ns_per_unicast(batches=ops(50)),
        "net.probe.ns_per_broadcast_dst": net_ns_per_broadcast_dst(rounds=ops(400)),
        "net.probe.ns_per_broadcast_dst_loss20": net_ns_per_broadcast_dst(0.2, ops(400)),
        "raft.probe.ns_per_request_vote": raft_ns_per_request_vote(ops(20_000)),
        "raft.probe.ns_per_heartbeat": raft_ns_per_heartbeat(ops(20_000)),
        "raft.probe.ns_per_append_1": raft_ns_per_append_1(ops(10_000)),
        "escape.probe.sca_assign_us_s128": escape_sca_assign_us(operations=ops(200)),
        "escape.probe.ppf_round_us_s128": escape_ppf_round_us(operations=ops(200)),
        "storage.probe.ns_per_append": storage_ns_per_append(ops(100_000)),
        "storage.probe.ns_per_term_at": storage_ns_per_term_at(ops(100_000)),
        "statemachine.probe.ns_per_put": statemachine_ns_per_put(ops(100_000)),
        "experiments.runner.overhead_us_per_episode": runner_overhead_us_per_episode(
            ops(2_000)
        ),
        "experiments.checkpoint.append_us": checkpoint_append_us(scratch, ops(50)),
        "cluster.escape_build_over_raft_build": escape_build_over_raft_build(
            reps=ops(6)
        ),
        "common.probe.seed_stream_ns": seed_stream_ns(ops(20_000)),
    }
    values.update(metrics_probes(rounds=ops(200)))
    values.update(obs_ratios(reps=ops(12)))
    return values
