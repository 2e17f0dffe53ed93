"""The engine contract, run on ``flat`` and on the ``classic`` oracle.

:mod:`repro.sim.engines` says what a scheduler and a network owe everything
above them; this suite states it once and runs it on ``classic`` (the
reference in ``tests/oracle/``) *and* ``flat`` (the engine in ``src/``)
through the ``engine`` fixture.  It covers the scheduler (ordering,
cancellation, the ``run_*`` clock semantics, re-arming a node timer, ``interrupt`` / ``close``,
the event budget, non-finite deadlines), the network (delivery to plain
callables and to protocol nodes, disconnection, broadcast -- one message or a
per-target factory, the same broadcast either way --, partitions, in-flight
drop traces, the derived send counts) and the one node
environment on top of both.  What only one engine does -- ``flat`` compacts
its heap -- is at the end, and says so.

The property-level half of the contract (whole episodes, bit-identical across
engines) lives in ``tests/property/test_engine_differential.py`` and
``test_obs_parity.py``; ``test_timer_rearm.py`` checks re-arming against the
spelled-out cancel + arm pair on random programs.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import weakref

import pytest

from repro.cluster.environment import SimNodeEnvironment
from repro.common.config import ClusterConfig
from repro.common.errors import NetworkError, SimulationError
from repro.net.faults import (
    BroadcastOmissionFault,
    CompositeFault,
    MessageDuplicationFault,
    PacketLossFault,
)
from repro.net.latency import LogNormalLatency, UniformLatency
from repro.raft.messages import AppendEntriesRequest, AppendEntriesResponse
from repro.raft.node import RaftNode
from repro.sim.flatcore import COMPACT_MIN_SIZE, FlatEventScheduler
from repro.sim.world import SimulationWorld

from helpers import ConstantLatency
from oracle import CLASSIC, ENGINES


@pytest.fixture(params=ENGINES, ids=lambda spec: spec.name)
def engine(request):
    return request.param


@pytest.fixture
def scheduler(engine):
    return engine.scheduler_class()()


def make_network(engine, members=(1, 2, 3), latency=None, fault=None, seed=0):
    """A world, its engine's network, and per-member inboxes of
    ``(delivery time, src, payload)``."""
    world = SimulationWorld(seed=seed, engine=engine)
    network = world.engine.network_class()(
        world, members, latency=latency, fault=fault
    )
    inboxes = {member: [] for member in members}
    for member in members:
        network.register(
            member,
            lambda src, payload, member=member: inboxes[member].append(
                (world.now(), src, payload)
            ),
        )
    return world, network, inboxes


def received(inbox):
    """An inbox without its delivery times."""
    return [(src, payload) for _, src, payload in inbox]


@pytest.fixture(params=["message", "factory"])
def form(request) -> str:
    return request.param


def broadcast(network, src, targets, message, form):
    """``network.broadcast`` handing every target *message*, in *form*: the
    object itself, or a per-target factory that returns it."""
    network.broadcast(
        src, targets, message if form == "message" else lambda dst: message
    )


# --------------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------------- #
class TestSchedulerOrdering:
    def test_events_run_in_time_order(self, scheduler):
        order = []
        scheduler.call_after(30.0, lambda: order.append("c"))
        scheduler.call_after(10.0, lambda: order.append("a"))
        scheduler.call_after(20.0, lambda: order.append("b"))
        scheduler.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_insertion_order(self, scheduler):
        order = []
        for name in ("first", "second", "third"):
            scheduler.call_at(50.0, lambda name=name: order.append(name))
        scheduler.run_until_idle()
        assert order == ["first", "second", "third"]

    def test_clock_reflects_last_executed_event(self, scheduler):
        scheduler.call_after(40.0, lambda: None)
        scheduler.run_until_idle()
        assert scheduler.now() == 40.0

    def test_events_scheduled_during_execution_run(self, scheduler):
        seen = []

        def outer():
            seen.append("outer")
            scheduler.call_after(5.0, lambda: seen.append("inner"))

        scheduler.call_after(10.0, outer)
        scheduler.run_until_idle()
        assert seen == ["outer", "inner"]
        assert scheduler.now() == 15.0


class TestSchedulerCancellation:
    def test_cancelled_events_do_not_run(self, scheduler):
        fired = []
        handle = scheduler.call_after(10.0, lambda: fired.append(1))
        handle.cancel()
        scheduler.run_until_idle()
        assert fired == []
        assert handle.cancelled
        assert (scheduler.cancelled_count, scheduler.executed_count) == (1, 0)

    def test_cancel_is_idempotent(self, scheduler):
        handle = scheduler.call_after(10.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert (scheduler.pending_count, scheduler.cancelled_count) == (0, 1)

    def test_pending_count_ignores_cancelled(self, scheduler):
        keep = scheduler.call_after(5.0, lambda: None)
        drop = scheduler.call_after(6.0, lambda: None)
        drop.cancel()
        assert scheduler.pending_count == 1
        assert not keep.cancelled

    def test_pending_count_is_exact_under_mass_cancellation(self, scheduler):
        keep = [scheduler.call_after(float(i + 1), lambda: None) for i in range(50)]
        drop = [scheduler.call_after(float(i + 100), lambda: None) for i in range(51)]
        for handle in drop:
            handle.cancel()
        assert scheduler.pending_count == 50
        for handle in keep[:20]:
            handle.cancel()
        assert (scheduler.pending_count, scheduler.cancelled_count) == (30, 71)
        assert scheduler.scheduled_count == 101

    def test_cancelling_an_executed_event_does_not_corrupt_accounting(
        self, scheduler
    ):
        handles = [scheduler.call_after(1.0, lambda: None) for _ in range(5)]
        scheduler.run_until_idle()
        for handle in handles:
            handle.cancel()  # cancelling after execution must be a no-op
        assert (scheduler.pending_count, scheduler.heap_size) == (0, 0)
        assert scheduler.cancelled_count == 0

    def test_callback_cancelling_itself_is_harmless(self, scheduler):
        state = {}

        def fire():
            state["handle"].cancel()

        state["handle"] = scheduler.call_after(1.0, fire)
        scheduler.call_after(2.0, lambda: None)
        scheduler.run_until_idle()
        assert (scheduler.pending_count, scheduler.cancelled_count) == (0, 0)
        assert scheduler.executed_count == 2

    def test_node_timer_tokens_cancel_through_the_scheduler(self, scheduler):
        """The two entry points the node environment binds on either engine."""
        fired = []
        keep = scheduler.schedule_timer_entry(20.0, lambda: fired.append("keep"))
        drop = scheduler.schedule_timer_entry(
            10.0, lambda: fired.append("drop"), label="election"
        )
        scheduler.cancel_entry(drop)
        scheduler.cancel_entry(drop)
        scheduler.run_until_idle()
        scheduler.cancel_entry(keep)  # already fired: not a cancellation
        assert fired == ["keep"]
        assert (scheduler.cancelled_count, scheduler.executed_count) == (1, 1)
        with pytest.raises(SimulationError, match="negative"):
            scheduler.schedule_timer_entry(-1.0, lambda: None)


class TestRearmTimer:
    """``rearm_timer_entry(token, delay, callback)`` *is* ``cancel_entry(token)``
    then ``schedule_timer_entry(delay, callback)`` -- firing order, clock and the
    four counters -- however an engine carries it out (``flat`` moves a queued
    record instead of killing it)."""

    @staticmethod
    def _counters(scheduler):
        return (
            scheduler.scheduled_count,
            scheduler.cancelled_count,
            scheduler.executed_count,
            scheduler.pending_count,
        )

    def test_a_later_deadline_fires_once_at_the_new_time(self, scheduler):
        fired = []
        token = scheduler.schedule_timer_entry(100.0, lambda: fired.append("old"))
        scheduler.run_until(10.0)
        token = scheduler.rearm_timer_entry(
            token, 200.0, lambda: fired.append(scheduler.now()), "election-timeout"
        )
        assert self._counters(scheduler) == (2, 1, 0, 1)
        scheduler.run_until_idle()
        assert fired == [210.0]
        assert self._counters(scheduler) == (2, 1, 1, 0)

    def test_an_equal_deadline_queues_behind_what_was_scheduled_since(self, scheduler):
        order = []
        token = scheduler.schedule_timer_entry(100.0, lambda: order.append("timer"))
        scheduler.call_at(100.0, lambda: order.append("between"))
        scheduler.rearm_timer_entry(token, 100.0, lambda: order.append("timer"))
        scheduler.call_at(100.0, lambda: order.append("after"))
        scheduler.run_until_idle()
        assert order == ["between", "timer", "after"]
        assert self._counters(scheduler) == (4, 1, 3, 0)

    def test_an_earlier_deadline_fires_early_and_not_again(self, scheduler):
        fired = []
        token = scheduler.schedule_timer_entry(100.0, lambda: fired.append("old"))
        scheduler.rearm_timer_entry(token, 50.0, lambda: fired.append(scheduler.now()))
        assert self._counters(scheduler) == (2, 1, 0, 1)
        scheduler.run_until_idle()
        assert (fired, scheduler.now()) == ([50.0], 50.0)

    def test_repeated_rearming_keeps_one_live_timer(self, scheduler):
        fired = []
        token = None
        for beat in range(1, 51):
            scheduler.run_until(10.0 * beat)
            token = scheduler.rearm_timer_entry(
                token, 150.0, lambda: fired.append(scheduler.now())
            )
            assert scheduler.pending_count == 1
        scheduler.run_until_idle()
        assert fired == [650.0]
        assert self._counters(scheduler) == (50, 49, 1, 0)

    def test_a_fired_a_cancelled_and_no_handle_just_arm(self, scheduler):
        fired = []
        spent = scheduler.schedule_timer_entry(10.0, lambda: fired.append("first"))
        scheduler.run_until_idle()
        again = scheduler.rearm_timer_entry(spent, 10.0, lambda: fired.append("again"))
        dropped = scheduler.schedule_timer_entry(5.0, lambda: fired.append("dropped"))
        scheduler.cancel_entry(dropped)
        scheduler.rearm_timer_entry(dropped, 15.0, lambda: fired.append("revived"))
        scheduler.rearm_timer_entry(None, 20.0, lambda: fired.append("fresh"))
        assert self._counters(scheduler) == (5, 1, 1, 3)
        scheduler.run_until_idle()
        assert fired == ["first", "again", "revived", "fresh"]
        scheduler.cancel_entry(again)  # fired: not a cancellation
        assert self._counters(scheduler) == (5, 1, 4, 0)

    def test_rearm_then_cancel_fires_nothing(self, scheduler):
        fired = []
        token = scheduler.schedule_timer_entry(100.0, lambda: fired.append("old"))
        token = scheduler.rearm_timer_entry(token, 200.0, lambda: fired.append("new"))
        scheduler.cancel_entry(token)
        scheduler.cancel_entry(token)
        assert self._counters(scheduler) == (2, 2, 0, 0)
        scheduler.run_until_idle()
        assert fired == [] and scheduler.executed_count == 0
        # A cancelled token re-arms like any spent one.
        scheduler.rearm_timer_entry(token, 1.0, lambda: fired.append("later"))
        scheduler.run_until_idle()
        assert (fired, self._counters(scheduler)) == (["later"], (3, 2, 1, 0))

    def test_rearming_from_inside_the_timers_own_callback(self, scheduler):
        fired = []
        state = {}

        def fire():
            fired.append(scheduler.now())
            if len(fired) < 3:
                state["token"] = scheduler.rearm_timer_entry(state["token"], 10.0, fire)

        state["token"] = scheduler.schedule_timer_entry(10.0, fire)
        scheduler.run_until_idle()
        assert fired == [10.0, 20.0, 30.0]
        assert self._counters(scheduler) == (3, 0, 3, 0)

    def test_a_limit_between_the_queued_time_and_the_deadline(self, scheduler):
        fired = []
        token = scheduler.schedule_timer_entry(100.0, lambda: fired.append("old"))
        scheduler.run_until(50.0)
        scheduler.rearm_timer_entry(token, 200.0, lambda: fired.append(scheduler.now()))
        for run in (scheduler.run_until, scheduler.run_until_idle):
            run(150.0)  # past where the old timer sat, short of the deadline
            assert (fired, scheduler.now(), scheduler.pending_count) == ([], 150.0, 1)
        assert scheduler.run_until_interrupted(160.0) is False
        assert not scheduler.run_until_condition(lambda: bool(fired), 170.0)
        assert (scheduler.now(), scheduler.executed_count) == (170.0, 0)
        scheduler.run_until(300.0)
        assert fired == [250.0]

    def test_step_never_reports_a_move_as_an_event(self, scheduler):
        fired = []
        token = scheduler.schedule_timer_entry(100.0, lambda: fired.append("old"))
        scheduler.rearm_timer_entry(token, 250.0, lambda: fired.append("timer"))
        scheduler.call_at(120.0, lambda: fired.append("other"))
        assert scheduler.step() is True
        assert (fired, scheduler.now()) == (["other"], 120.0)
        assert scheduler.step() is True
        assert (fired, scheduler.now()) == (["other", "timer"], 250.0)
        assert scheduler.step() is False
        assert scheduler.executed_count == 2

    def test_the_event_budget_counts_only_callbacks(self, engine):
        scheduler = engine.scheduler_class()(max_events=4)
        state = {"token": scheduler.schedule_timer_entry(20.0, lambda: None)}

        def beat():
            state["token"] = scheduler.rearm_timer_entry(
                state["token"], 20.0, lambda: None
            )

        for time_ms in (5.0, 15.0, 25.0):  # the timer would surface at 20 and 35
            scheduler.call_at(time_ms, beat)
        scheduler.run_until_idle()
        assert (scheduler.now(), scheduler.executed_count) == (45.0, 4)

    def test_rejected_delays_are_the_eager_pairs(self, scheduler):
        token = scheduler.schedule_timer_entry(100.0, lambda: None)
        for delay in (-1.0, math.nan, math.inf):
            with pytest.raises(SimulationError):
                scheduler.rearm_timer_entry(token, delay, lambda: None)
        # The cancel half had already happened.
        assert (scheduler.cancelled_count, scheduler.pending_count) == (1, 0)

    def test_close_leaves_a_rearmed_timer_to_the_reference_count(self, scheduler):
        class Owner:
            def fire(self):
                raise AssertionError("closed schedulers run nothing")

        owner = Owner()
        alive = weakref.ref(owner)
        owner.token = scheduler.schedule_timer_entry(100.0, owner.fire)
        owner.token = scheduler.rearm_timer_entry(owner.token, 200.0, owner.fire)
        gc.collect()
        gc.disable()
        try:
            scheduler.close()
            assert (scheduler.pending_count, scheduler.heap_size) == (0, 0)
            del owner
            assert alive() is None  # no cycle through the record outlives close()
        finally:
            gc.enable()
        scheduler.run_until_idle()
        assert scheduler.executed_count == 0


class TestSchedulerRunModes:
    def test_run_until_executes_only_due_events(self, scheduler):
        fired = []
        scheduler.call_after(10.0, lambda: fired.append("early"))
        scheduler.call_after(100.0, lambda: fired.append("late"))
        scheduler.run_until(50.0)
        assert fired == ["early"]
        assert scheduler.now() == 50.0
        scheduler.run_until_idle()
        assert fired == ["early", "late"]

    def test_run_until_skips_cancelled_heads(self, scheduler):
        fired = []
        scheduler.call_after(10.0, lambda: fired.append("dead")).cancel()
        scheduler.call_after(20.0, lambda: fired.append("live"))
        scheduler.run_until(30.0)
        assert (fired, scheduler.now(), scheduler.executed_count) == (["live"], 30.0, 1)

    def test_run_until_idle_stops_at_its_deadline(self, scheduler):
        fired = []
        scheduler.call_after(10.0, lambda: fired.append("early"))
        scheduler.call_after(100.0, lambda: fired.append("late"))
        scheduler.run_until_idle(50.0)
        assert (fired, scheduler.now(), scheduler.pending_count) == (["early"], 50.0, 1)
        # Drained before the deadline: the clock stays at the last event.
        scheduler.run_until_idle(500.0)
        assert (fired, scheduler.now()) == (["early", "late"], 100.0)

    def test_run_until_condition_stops_when_condition_holds(self, scheduler):
        state = {"count": 0}
        for n in range(10):
            scheduler.call_after(
                10.0 * (n + 1), lambda: state.update(count=state["count"] + 1)
            )
        satisfied = scheduler.run_until_condition(
            lambda: state["count"] >= 3, max_time_ms=1_000.0
        )
        assert satisfied
        assert (state["count"], scheduler.now()) == (3, 30.0)

    def test_run_until_condition_times_out(self, scheduler):
        scheduler.call_after(500.0, lambda: None)
        satisfied = scheduler.run_until_condition(lambda: False, max_time_ms=100.0)
        assert not satisfied
        assert scheduler.now() == 100.0

    def test_run_until_condition_drains(self, scheduler):
        scheduler.call_after(50.0, lambda: None)
        assert not scheduler.run_until_condition(lambda: False, max_time_ms=100.0)
        assert scheduler.now() == 50.0

    def test_run_until_condition_true_immediately(self, scheduler):
        assert scheduler.run_until_condition(lambda: True, max_time_ms=10.0)

    def test_step_returns_false_when_empty(self, scheduler):
        assert scheduler.step() is False

    def test_step_runs_one_live_event(self, scheduler):
        fired = []
        scheduler.call_after(5.0, lambda: fired.append("dead")).cancel()
        scheduler.call_after(10.0, lambda: fired.append("a"))
        scheduler.call_after(20.0, lambda: fired.append("b"))
        assert scheduler.step() is True
        assert (fired, scheduler.now(), scheduler.pending_count) == (["a"], 10.0, 1)


class TestInterruptAndClose:
    def test_returns_right_after_the_interrupting_event(self, scheduler):
        ran: list[float] = []
        for time_ms in (10.0, 20.0, 30.0):
            scheduler.call_at(time_ms, lambda t=time_ms: ran.append(t))
        scheduler.call_at(20.0, scheduler.interrupt)
        assert scheduler.run_until_interrupted(100.0) is True
        assert (ran, scheduler.now(), scheduler.executed_count) == ([10.0, 20.0], 20.0, 3)
        # The rest is still queued; the next run starts uninterrupted.
        assert scheduler.run_until_interrupted(100.0) is False
        assert ran == [10.0, 20.0, 30.0]

    def test_deadline_and_drain_return_false(self, scheduler):
        scheduler.call_at(50.0, lambda: None)
        assert scheduler.run_until_interrupted(40.0) is False
        assert (scheduler.now(), scheduler.executed_count) == (40.0, 0)
        assert scheduler.run_until_interrupted(100.0) is False
        # Drained before the deadline: the clock stays at the last event,
        # exactly as run_until_condition leaves it.
        assert (scheduler.now(), scheduler.executed_count) == (50.0, 1)

    def test_an_interrupt_outside_a_run_is_forgotten(self, scheduler):
        scheduler.call_at(10.0, lambda: None)
        scheduler.interrupt()
        assert scheduler.run_until_interrupted(100.0) is False
        assert scheduler.executed_count == 1

    @pytest.mark.parametrize("run", ["run_until", "run_until_idle"])
    def test_an_interrupt_neither_stops_another_run_nor_leaks(self, scheduler, run):
        """``interrupt()`` is for ``run_until_interrupted`` alone: raised
        during ``run_until`` / ``run_until_idle`` it does not end that run
        early, and the next ``run_until_interrupted`` does not see it."""
        ran: list[float] = []
        for time_ms in (10.0, 20.0, 30.0):
            scheduler.call_at(time_ms, lambda t=time_ms: ran.append(t))
        scheduler.call_at(10.0, scheduler.interrupt)
        scheduler.call_at(30.0, scheduler.interrupt)  # the run's last event
        getattr(scheduler, run)(40.0)
        assert (ran, scheduler.executed_count) == ([10.0, 20.0, 30.0], 5)
        scheduler.call_at(50.0, lambda: ran.append(50.0))
        assert scheduler.run_until_interrupted(100.0) is False
        assert ran[-1] == 50.0

    def test_close_leaves_nothing_to_run_and_handles_harmless(self, scheduler):
        ran: list[int] = []
        handles = [
            scheduler.call_at(10.0 * n, lambda n=n: ran.append(n)) for n in (1, 2, 3)
        ]
        handles[0].cancel()
        scheduler.close()
        assert (scheduler.pending_count, scheduler.heap_size) == (0, 0)
        for handle in handles:
            handle.cancel()
        scheduler.run_until_idle()
        assert ran == [] and scheduler.pending_count == 0
        assert scheduler.cancelled_count == 1


class TestSchedulerSafety:
    def test_cannot_schedule_in_the_past(self, scheduler):
        scheduler.call_after(10.0, lambda: None)
        scheduler.run_until_idle()
        with pytest.raises(SimulationError):
            scheduler.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self, scheduler):
        with pytest.raises(SimulationError):
            scheduler.call_after(-1.0, lambda: None)

    def test_rejects_nan(self, scheduler):
        """Regression: a NaN deadline used to be accepted and poison heap order."""
        with pytest.raises(SimulationError, match="non-finite"):
            scheduler.call_at(math.nan, lambda: None)

    def test_rejects_infinity(self, scheduler):
        for deadline in (math.inf, -math.inf):
            with pytest.raises(SimulationError, match="non-finite"):
                scheduler.call_at(deadline, lambda: None)

    def test_accepts_a_finite_deadline(self, scheduler):
        fired = []
        scheduler.call_at(5.0, lambda: fired.append(scheduler.now()))
        scheduler.run_until_idle()
        assert fired == [5.0]

    def test_event_budget_stops_runaway_simulations(self, engine):
        scheduler = engine.scheduler_class()(max_events=50)

        def reschedule():
            scheduler.call_after(1.0, reschedule)

        scheduler.call_after(1.0, reschedule)
        with pytest.raises(SimulationError, match="budget"):
            scheduler.run_until_idle()
        assert scheduler.executed_count == 50

    def test_executed_count_tracks_events(self, scheduler):
        for _ in range(5):
            scheduler.call_after(1.0, lambda: None)
        scheduler.run_until_idle()
        assert (scheduler.executed_count, scheduler.scheduled_count) == (5, 5)


# --------------------------------------------------------------------------- #
# Network
# --------------------------------------------------------------------------- #
class TestDelivery:
    def test_message_is_delivered_after_sampled_latency(self, engine):
        world, network, inboxes = make_network(engine, latency=ConstantLatency(50.0))
        assert network.send(1, 2, "hello") is None
        world.run_for(49.0)
        assert inboxes[2] == []
        world.run_for(2.0)
        assert inboxes[2] == [(50.0, 1, "hello")]

    def test_latency_is_sampled_within_model_range(self, engine):
        world, network, inboxes = make_network(
            engine, latency=UniformLatency(100.0, 200.0)
        )
        for index in range(50):
            network.send(1, 2, index)
        world.scheduler.run_until_idle()
        assert len(inboxes[2]) == 50
        assert all(100.0 <= arrived <= 200.0 for arrived, _, _ in inboxes[2])

    def test_stats_count_sent_and_delivered(self, engine):
        world, network, _ = make_network(engine, latency=ConstantLatency(10.0))
        network.send(1, 2, "a")
        network.send(2, 3, "b")
        world.run_for(20.0)
        assert network.stats.sent == 2
        assert network.stats.delivered == 2
        assert network.stats.dropped == 0

    def test_per_type_stats(self, engine):
        _, network, _ = make_network(engine, latency=ConstantLatency(1.0))
        network.send(1, 2, "x")
        network.send(1, 2, 5)
        assert network.stats.per_type_sent == {"str": 1, "int": 1}

    def test_sent_and_per_type_sent_are_views_of_one_count(self, engine):
        _, network, _ = make_network(engine, latency=ConstantLatency(1.0))
        Ping = type("Ping", (), {})
        OtherPing = type("Ping", (), {})  # same name, another class
        network.send(1, 2, Ping())
        network.broadcast(1, [2, 3], OtherPing())
        network.broadcast(1, [2, 3], lambda dst: dst)
        stats = network.stats
        assert stats.sent_by_class == {Ping: 1, OtherPing: 2, int: 2}
        assert stats.per_type_sent == {"Ping": 3, "int": 2}
        assert stats.sent == sum(stats.per_type_sent.values()) == 5
        for view in ("sent", "per_type_sent"):
            with pytest.raises(AttributeError):
                setattr(stats, view, None)

    def test_unknown_member_rejected(self, engine):
        _, network, _ = make_network(engine)
        with pytest.raises(NetworkError):
            network.send(1, 99, "x")
        with pytest.raises(NetworkError):
            network.register(99, lambda src, payload: None)

    def test_same_seed_reproduces_latencies(self, engine):
        def run(seed):
            world, network, inboxes = make_network(
                engine, latency=UniformLatency(100.0, 200.0), seed=seed
            )
            for index in range(10):
                network.send(1, 2, index)
            world.scheduler.run_until_idle()
            return sorted((payload, arrived) for arrived, _, payload in inboxes[2])

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestDisconnection:
    def test_disconnected_destination_drops_in_flight_messages(self, engine):
        world, network, inboxes = make_network(engine, latency=ConstantLatency(100.0))
        network.send(1, 2, "late")
        network.disconnect(2)
        world.run_for(200.0)
        assert inboxes[2] == []
        assert network.stats.dropped_disconnected == 1

    def test_messages_already_in_flight_from_a_crashed_sender_still_deliver(
        self, engine
    ):
        # A killed process cannot recall packets already on the wire.
        world, network, inboxes = make_network(engine, latency=ConstantLatency(100.0))
        network.send(1, 2, "heartbeat")
        network.disconnect(1)
        world.run_for(200.0)
        assert received(inboxes[2]) == [(1, "heartbeat")]

    def test_disconnected_sender_cannot_send_new_messages(self, engine):
        world, network, inboxes = make_network(engine, latency=ConstantLatency(10.0))
        network.disconnect(1)
        network.send(1, 2, "x")
        assert world.scheduler.pending_count == 0
        world.run_for(50.0)
        assert inboxes[2] == []
        assert network.stats.dropped_disconnected == 1

    def test_reconnect_restores_delivery(self, engine):
        world, network, inboxes = make_network(engine, latency=ConstantLatency(10.0))
        network.disconnect(2)
        network.reconnect(2)
        network.send(1, 2, "back")
        world.run_for(20.0)
        assert received(inboxes[2]) == [(1, "back")]


class TestBroadcast:
    def test_broadcast_builds_payload_per_target(self, engine):
        world, network, inboxes = make_network(engine, latency=ConstantLatency(5.0))
        assert network.broadcast(1, [2, 3], lambda dst: f"for-{dst}") is None
        world.run_for(10.0)
        assert inboxes[2] == [(5.0, 1, "for-2")]
        assert inboxes[3] == [(5.0, 1, "for-3")]

    def test_broadcast_hands_one_message_to_every_target(self, engine):
        world, network, inboxes = make_network(engine, latency=ConstantLatency(5.0))
        message = ["not", "callable"]
        assert network.broadcast(1, [2, 3], message) is None
        world.run_for(10.0)
        assert inboxes[2][0][2] is message and inboxes[3][0][2] is message
        assert network.stats.per_type_sent == {"list": 2}

    def test_broadcast_omission_fault_drops_a_subset(self, engine):
        world, network, inboxes = make_network(
            engine,
            members=tuple(range(1, 11)),
            latency=ConstantLatency(5.0),
            fault=BroadcastOmissionFault(0.4),
        )
        targets = list(range(2, 11))
        network.broadcast(1, targets, lambda dst: "hb")
        world.run_for(10.0)
        reached = sum(1 for member in targets if inboxes[member])
        assert reached == len(targets) - 4  # ceil(0.4 * 9) == 4 omitted
        assert network.stats.dropped_by_fault == 4

    def test_disconnected_sender_broadcast_keeps_accounting_balanced(self, engine):
        # Regression: a disconnected sender's broadcast used to bump
        # dropped_disconnected without recording the messages as sent,
        # breaking sent == delivered + dropped once everything drained.
        world, network, inboxes = make_network(engine, latency=ConstantLatency(5.0))
        network.disconnect(1)
        network.broadcast(1, [2, 3], lambda dst: f"for-{dst}")
        assert world.scheduler.pending_count == 0
        world.run_for(10.0)
        assert inboxes[2] == [] and inboxes[3] == []
        assert network.stats.sent == 2
        assert network.stats.dropped_disconnected == 2
        assert network.stats.sent == network.stats.delivered + network.stats.dropped
        assert network.stats.per_type_sent == {"str": 2}

    def test_unicast_loss_fault_counts_drops(self, engine):
        world, network, _ = make_network(
            engine, latency=ConstantLatency(5.0), fault=PacketLossFault(1.0)
        )
        network.send(1, 2, "x")
        assert network.stats.dropped_by_fault == 1
        assert world.scheduler.pending_count == 0

    def test_set_fault_replaces_injector(self, engine):
        world, network, _ = make_network(engine, latency=ConstantLatency(5.0))
        network.set_fault(PacketLossFault(1.0))
        network.send(1, 2, "x")
        assert network.stats.dropped_by_fault == 1
        assert world.scheduler.pending_count == 0


class _UnreachableLatency:
    """Uniform latency, except that nothing can be scheduled to *dst*."""

    def __init__(self, dst):
        self.dst = dst

    def sample(self, rng, src, dst):
        return math.inf if dst == self.dst else rng.uniform(5.0, 10.0)


def observe(world, network, inboxes):
    """Everything a broadcast can leave behind, once the queue has drained:
    stats (class order included), scheduler counts, both network RNG
    streams' states, the inboxes and the ``net.drop`` traces."""
    world.scheduler.run_until_idle()
    stats = network.stats
    assert stats.sent == sum(stats.per_type_sent.values())
    return (
        dataclasses.asdict(stats),
        list(stats.sent_by_class.items()),
        world.scheduler.scheduled_count,
        world.scheduler.executed_count,
        network._latency_rng.getstate(),
        network._fault_rng.getstate(),
        inboxes,
        [dict(record.detail) for record in world.tracer.records],
    )


class TestBroadcastForms:
    """One message for every target, or a factory returning it: the same
    broadcast to every counter, RNG draw, queued event and trace, on every
    engine.  The reference is ``classic`` with the factory."""

    MEMBERS = tuple(range(1, 8))
    CASES = {
        "omission": dict(fault=BroadcastOmissionFault(0.4)),
        "duplication": dict(fault=MessageDuplicationFault(0.5)),
        "omission and duplication": dict(
            fault=CompositeFault(
                injectors=(BroadcastOmissionFault(0.3), MessageDuplicationFault(0.5))
            )
        ),
        "partition": dict(partition=([1, 2, 3], [4, 5, 6, 7])),
        "disconnected sender": dict(disconnect=1),
        "no targets": dict(targets=()),
        "unknown target": dict(targets=(2, 3, 99, 4)),
        "non-finite deadline": dict(latency=_UnreachableLatency(4)),
        # Flat inlines only UniformLatency: these run its generic ``sample``
        # path, original and duplicate.
        "constant latency and duplication": dict(
            latency=ConstantLatency(5.0), fault=MessageDuplicationFault(0.5)
        ),
        "log-normal latency and duplication": dict(
            latency=LogNormalLatency(median_ms=6.0, sigma=0.5, max_ms=50.0),
            fault=MessageDuplicationFault(0.5),
        ),
    }

    def _program(
        self,
        engine,
        form,
        fault=None,
        latency=None,
        partition=None,
        disconnect=None,
        targets=(2, 3, 4, 5, 6, 7),
    ):
        world, network, inboxes = make_network(
            engine,
            members=self.MEMBERS,
            latency=latency or UniformLatency(5.0, 10.0),
            fault=fault,
            seed=11,
        )
        if partition:
            network.partitions.partition(*partition)
        if disconnect:
            network.disconnect(disconnect)
        raised = []
        for round_number in range(3):
            try:
                broadcast(network, 1, targets, f"vote-{round_number}", form)
            except (NetworkError, SimulationError) as error:
                raised.append(type(error))
            # Interleaved traffic: a sequence number lost to a raising
            # broadcast would reorder these deliveries.
            network.send(2, 3, round_number)
            world.run_for(4.0)
        return raised, observe(world, network, inboxes)

    @pytest.mark.parametrize("case", CASES)
    def test_both_forms_are_the_same_broadcast(self, engine, form, case):
        assert self._program(engine, form, **self.CASES[case]) == self._program(
            CLASSIC, "factory", **self.CASES[case]
        )

    def test_a_raising_broadcast_counts_the_targets_it_reached(self, engine, form):
        raised, (stats, *_) = self._program(engine, form, targets=(2, 3, 99, 4))
        assert raised == [NetworkError] * 3
        # 2, 3 and the unknown 99 each round; 4 was never attempted.
        assert stats["sent_by_class"] == {str: 9, int: 3}
        assert stats["delivered"] == 9
        raised, (stats, *_) = self._program(
            engine, form, latency=_UnreachableLatency(4)
        )
        assert raised == [SimulationError] * 3
        assert stats["sent_by_class"] == {str: 9, int: 3}

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_programs_balance_and_match_the_reference(self, engine, seed):
        """Random unicasts and broadcasts in a random form, under
        loss, omission and duplication, with partitions and disconnects
        coming and going: identical to the all-factory reference, and the
        books balance once the queue drains."""

        def run(engine, only_form):
            chooser = random.Random(seed)
            world, network, inboxes = make_network(
                engine,
                members=self.MEMBERS,
                latency=UniformLatency(1.0, 30.0),
                fault=CompositeFault(
                    injectors=(
                        PacketLossFault(0.2),
                        BroadcastOmissionFault(0.3),
                        MessageDuplicationFault(0.3),
                    )
                ),
                seed=seed,
            )
            for step in range(120):
                src, dst = chooser.sample(self.MEMBERS, 2)
                action = chooser.random()
                if action < 0.4:
                    network.send(src, dst, step)
                elif action < 0.8:
                    targets = [m for m in self.MEMBERS if m != src]
                    # Drawn either way, so both runs are the same program.
                    form = chooser.choice(["message", "factory"])
                    broadcast(network, src, targets, f"b{step}", only_form or form)
                elif action < 0.85:
                    network.disconnect(src)
                elif action < 0.9:
                    network.reconnect(src)
                elif action < 0.95:
                    network.partitions.partition(self.MEMBERS[: 1 + step % 6])
                else:
                    network.partitions.heal()
                world.run_for(chooser.uniform(0.0, 10.0))
            observed = observe(world, network, inboxes)
            stats = network.stats
            assert stats.sent + stats.duplicated == stats.delivered + stats.dropped
            assert stats.duplicated and stats.dropped
            return observed

        assert run(engine, None) == run(CLASSIC, "factory")


class TestPartitions:
    def test_partition_blocks_cross_cell_messages(self, engine):
        world, network, inboxes = make_network(
            engine, members=(1, 2, 3, 4, 5), latency=ConstantLatency(5.0)
        )
        network.partitions.partition([1, 2], [3, 4, 5])
        network.send(1, 2, "same-cell")
        network.send(1, 3, "cross-cell")
        world.run_for(10.0)
        assert received(inboxes[2]) == [(1, "same-cell")]
        assert inboxes[3] == []
        assert network.stats.dropped_by_partition == 1

    def test_heal_restores_connectivity(self, engine):
        world, network, inboxes = make_network(engine, latency=ConstantLatency(5.0))
        network.partitions.partition([1], [2, 3])
        network.partitions.heal()
        network.send(1, 2, "healed")
        world.run_for(10.0)
        assert received(inboxes[2]) == [(1, "healed")]

    def test_partition_applies_to_messages_in_flight(self, engine):
        world, network, inboxes = make_network(engine, latency=ConstantLatency(100.0))
        network.send(1, 2, "will-be-cut")
        network.partitions.partition([1], [2, 3])
        world.run_for(200.0)
        assert inboxes[2] == []


class TestInFlightDropTraces:
    """Both engines emit the ``net.drop`` schema for delivery-time drops."""

    @staticmethod
    def _drops(world):
        return [
            dict(record.detail)
            for record in world.tracer.records
            if record.category == "net.drop"
        ]

    def test_disconnect_drop_carries_in_flight_flag(self, engine):
        world, network, _ = make_network(engine, latency=ConstantLatency(10.0), seed=7)
        network.send(1, 2, "hello")
        network.disconnect(2)
        world.scheduler.run_until_idle()
        assert self._drops(world) == [
            {"dst": 2, "reason": "disconnected", "in_flight": True}
        ]
        assert network.stats.dropped_disconnected == 1
        assert network.stats.delivered == 0

    def test_partition_drop_carries_in_flight_flag(self, engine):
        world, network, _ = make_network(engine, latency=ConstantLatency(10.0), seed=7)
        network.send(1, 2, "hello")
        network.partitions.partition([1], [2, 3])
        world.scheduler.run_until_idle()
        assert self._drops(world) == [
            {"dst": 2, "reason": "partition", "in_flight": True}
        ]
        assert network.stats.dropped_by_partition == 1


class TestDeliveryToNodes:
    """A protocol node registered by its own ``on_message`` (which ``flat``
    delivers to without that frame) receives, drops and counts exactly like
    the same node behind a plain callable, on either engine."""

    @staticmethod
    def _episode(engine, plain_callable: bool):
        world = SimulationWorld(seed=3, engine=engine)
        members = (1, 2, 3, 4)
        network = world.engine.network_class()(
            world, members, latency=ConstantLatency(10.0)
        )
        nodes = {}
        for member in members:
            node = RaftNode(
                member,
                ClusterConfig.of_size(4),
                SimNodeEnvironment(world, network, member),
            )
            handler = node.on_message
            if plain_callable:
                handler = lambda src, payload, node=node: node.on_message(src, payload)
            network.register(member, handler)
            nodes[member] = node
            node.start()
        heartbeat = AppendEntriesRequest(term=1, leader_id=1)
        network.broadcast(1, [2, 3, 4], lambda dst: heartbeat)
        nodes[2].stop()  # crashed, still attached: delivered to, ignored
        network.disconnect(3)  # dropped in flight
        world.run_for(15.0)
        network.reconnect(3)
        network.partitions.partition([1, 2, 3], [4])
        world.run_for(15.0)  # node 4's reply to node 1 is cut off in flight
        network.send(1, 4, heartbeat)  # and this one at send time
        world.run_for(15.0)
        return (
            dataclasses.asdict(network.stats),
            {member: node.leader_id for member, node in nodes.items()},
            world.scheduler.executed_count,
        )

    def test_a_crashed_a_disconnected_and_a_partitioned_node(self, engine):
        stats, leaders, executed = self._episode(engine, False)
        # Only node 4 handled the heartbeat: it alone follows node 1 and the
        # one reply sent is its own.
        assert leaders == {1: None, 2: None, 3: None, 4: 1}
        assert stats["sent_by_class"][AppendEntriesResponse] == 1
        assert (sum(stats["sent_by_class"].values()), stats["delivered"]) == (5, 2)
        assert (stats["dropped_disconnected"], stats["dropped_by_partition"]) == (1, 2)
        assert (stats["dropped_in_flight"], executed) == (2, 4)
        assert self._episode(engine, True) == (stats, leaders, executed)
        assert self._episode(CLASSIC, False) == (stats, leaders, executed)

    def test_an_overridden_on_message_is_called_as_registered(self, engine):
        seen = []

        class Tapped(RaftNode):
            def on_message(self, src, message):
                seen.append((src, type(message).__name__))
                super().on_message(src, message)

        world = SimulationWorld(seed=3, engine=engine)
        network = world.engine.network_class()(
            world, (1, 2), latency=ConstantLatency(10.0)
        )
        node = Tapped(2, ClusterConfig.of_size(2), SimNodeEnvironment(world, network, 2))
        network.register(2, node.on_message)
        network.register(1, lambda src, payload: seen.append((src, "reply")))
        node.start()
        network.send(1, 2, AppendEntriesRequest(term=1, leader_id=1))
        world.run_for(25.0)
        assert seen == [(1, "AppendEntriesRequest"), (2, "reply")]
        # Re-registering a plain callable replaces the node.
        network.register(2, lambda src, payload: seen.append("plain"))
        network.send(1, 2, "x")
        world.run_for(15.0)
        assert seen[-1] == "plain"
        assert network.stats.sent_by_class[AppendEntriesResponse] == 1


# --------------------------------------------------------------------------- #
# The node environment (one class, bound to either engine)
# --------------------------------------------------------------------------- #
def make_env(engine, node_id=1, seed=0):
    world, network, inboxes = make_network(
        engine, latency=ConstantLatency(10.0), seed=seed
    )
    return world, network, inboxes, SimNodeEnvironment(world, network, node_id)


class TestSimNodeEnvironment:
    def test_now_tracks_the_world_clock(self, engine):
        world, _, _, env = make_env(engine)
        assert env.now() == 0.0
        world.run_for(42.0)
        assert env.now() == 42.0

    def test_send_and_broadcast_go_through_the_network(self, engine):
        world, network, inboxes, env = make_env(engine)
        env.send(2, "direct")
        env.send(3, "refusal")
        env.broadcast([2, 3], lambda dst: f"hello-{dst}")
        world.run_for(50.0)
        assert received(inboxes[2]) == [(1, "direct"), (1, "hello-2")]
        assert received(inboxes[3]) == [(1, "refusal"), (1, "hello-3")]
        assert (network.stats.sent, network.stats.delivered) == (4, 4)

    def test_timers_fire_through_the_scheduler_and_can_be_cancelled(self, engine):
        world, _, _, env = make_env(engine)
        fired = []
        env.set_timer(20.0, lambda: fired.append("keep"), label="keep")
        drop = env.set_timer(10.0, lambda: fired.append("drop"), label="drop")
        env.cancel_timer(drop)
        env.cancel_timer(drop)  # a timer handle is a token; twice is safe
        world.run_for(50.0)
        assert fired == ["keep"]
        assert world.scheduler.cancelled_count == 1

    def test_trace_records_are_attributed_to_the_node(self, engine):
        world, _, _, env = make_env(engine, node_id=2)
        assert env.trace_enabled
        env.trace("unit.test", detail=1)
        record = world.tracer.records[0]
        assert (record.node, record.category) == (2, "unit.test")
        assert dict(record.detail) == {"detail": 1}

    def test_trace_is_a_no_op_when_the_world_records_nothing(self, engine):
        world = SimulationWorld(seed=0, trace=False, engine=engine)
        network = world.engine.network_class()(world, (1, 2, 3))
        env = SimNodeEnvironment(world, network, 1)
        assert not env.trace_enabled
        env.trace("unit.test", detail=1)
        assert list(world.tracer.records) == []

    def test_each_node_has_an_independent_deterministic_rng(self, engine):
        _, _, _, env_a = make_env(engine, node_id=1, seed=5)
        _, _, _, env_b = make_env(engine, node_id=2, seed=5)
        _, _, _, env_a_again = make_env(engine, node_id=1, seed=5)
        draws_a = [env_a.rng.random() for _ in range(3)]
        assert draws_a == [env_a_again.rng.random() for _ in range(3)]
        assert draws_a != [env_b.rng.random() for _ in range(3)]

    def test_node_id_attribute(self, engine):
        _, _, _, env = make_env(engine, node_id=3)
        assert env.node_id == 3


# --------------------------------------------------------------------------- #
# Engine-owned: how the heap is kept small
# --------------------------------------------------------------------------- #
def _heartbeat_churn(scheduler, beats=5_000):
    """The election-timer pattern: every heartbeat cancels the previous
    far-future timeout and arms a new one."""
    state = {"timer": None, "beats": 0}

    def heartbeat():
        if state["timer"] is not None:
            state["timer"].cancel()
        state["timer"] = scheduler.call_after(10_000.0, lambda: None)
        state["beats"] += 1
        if state["beats"] < beats:
            scheduler.call_after(1.0, heartbeat)

    scheduler.call_after(1.0, heartbeat)
    scheduler.run_until(beats + 1_000.0)
    assert state["beats"] == beats
    return scheduler


class TestHeapGauges:
    """``heap_size`` / ``compaction_count`` are not part of the cross-engine
    contract: ``flat`` compacts dead records away at a fixed threshold,
    ``classic`` lets a cancelled timer sit until its time comes."""

    def test_flat_heap_stays_bounded_under_reschedule_churn(self):
        """The cancelled-event leak: re-arming a timer must not grow the heap
        of the engine the sweeps run on."""
        scheduler = _heartbeat_churn(FlatEventScheduler())
        # One live timeout + one live heartbeat chain entry at most, and the
        # heap never retains more than ~2x the live entries after compaction.
        assert scheduler.pending_count <= 2
        assert scheduler.heap_size <= 2 * COMPACT_MIN_SIZE
        assert scheduler.compaction_count > 0

    def test_a_dead_timer_leaves_the_heap_once_nothing_live_is_ahead_of_it(
        self, engine
    ):
        """Both engines agree on what is live; only the reference still holds
        the dead timers, and only while a live event sits ahead of them --
        which ends, at the latest, when their own time comes."""
        scheduler = engine.scheduler_class()()
        scheduler.call_at(9_000.0, lambda: None)  # live, ahead of every timeout
        _heartbeat_churn(scheduler, 500)
        assert (scheduler.pending_count, scheduler.cancelled_count) == (2, 499)
        if engine is CLASSIC:
            assert (scheduler.heap_size, scheduler.compaction_count) == (501, 0)
        scheduler.run_until(9_000.0)
        assert (scheduler.pending_count, scheduler.heap_size) == (1, 1)
        scheduler.run_until_idle()
        assert (scheduler.now(), scheduler.executed_count) == (10_500.0, 502)

    def test_a_rearmed_flat_timer_leaves_no_dead_record(self):
        """The same churn through ``rearm_timer_entry``: the record moves, so
        there is nothing to compact away."""
        scheduler = FlatEventScheduler()
        state = {"timer": None, "beats": 0}

        def heartbeat():
            state["timer"] = scheduler.rearm_timer_entry(
                state["timer"], 10_000.0, lambda: None
            )
            state["beats"] += 1
            if state["beats"] < 5_000:
                scheduler.call_after(1.0, heartbeat)
            assert scheduler.heap_size <= 2

        scheduler.call_after(1.0, heartbeat)
        scheduler.run_until(6_000.0)
        assert (scheduler.cancelled_count, scheduler.compaction_count) == (4_999, 0)
        assert (scheduler.pending_count, scheduler.heap_size) == (1, 1)

    def test_compaction_keeps_a_moved_timer(self):
        scheduler = FlatEventScheduler()
        fired = []
        token = scheduler.schedule_timer_entry(50.0, lambda: fired.append("old"))
        scheduler.rearm_timer_entry(token, 500.0, lambda: fired.append(scheduler.now()))
        handles = [
            scheduler.call_after(100.0, lambda: None) for _ in range(COMPACT_MIN_SIZE)
        ]
        for handle in handles:
            handle.cancel()
        assert (scheduler.compaction_count, scheduler.pending_count) == (1, 1)
        assert scheduler.heap_size < COMPACT_MIN_SIZE
        scheduler.run_until_idle()
        assert fired == [500.0]

    def test_small_flat_heaps_are_not_compacted(self):
        scheduler = FlatEventScheduler()
        handles = [
            scheduler.call_after(10.0, lambda: None)
            for _ in range(COMPACT_MIN_SIZE - 1)
        ]
        for handle in handles:
            handle.cancel()
        assert (scheduler.compaction_count, scheduler.pending_count) == (0, 0)
        assert scheduler.heap_size == COMPACT_MIN_SIZE - 1

    def test_flat_pending_count_is_exact_through_compaction(self):
        scheduler = FlatEventScheduler()
        keep = [scheduler.call_after(float(i + 1), lambda: None) for i in range(50)]
        drop = [scheduler.call_after(float(i + 100), lambda: None) for i in range(51)]
        for handle in drop:
            handle.cancel()
        # Cancelled entries (51) outnumber live ones (50) -> compacted.
        assert scheduler.compaction_count >= 1
        assert (scheduler.pending_count, scheduler.heap_size) == (50, 50)
        for handle in keep[:20]:
            handle.cancel()
        assert scheduler.pending_count == 30

    def test_compaction_preserves_execution_order(self):
        """Same schedule-and-cancel pattern on the engine that compacts and
        on the one that never does: same order."""

        def run(scheduler_class):
            scheduler = scheduler_class()
            order = []
            handles = [
                scheduler.call_after(
                    float(index % 17) + 1.0, lambda index=index: order.append(index)
                )
                for index in range(200)
            ]
            for index, handle in enumerate(handles):
                if index % 3 != 0:
                    handle.cancel()
            scheduler.run_until_idle()
            return order, scheduler.compaction_count

        flat_order, flat_compactions = run(FlatEventScheduler)
        classic_order, classic_compactions = run(CLASSIC.scheduler_class())
        assert flat_order == classic_order and len(flat_order) == 67
        assert flat_compactions > 0 and classic_compactions == 0
