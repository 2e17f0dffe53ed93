"""Re-arming a node timer: the eager pair is the specification.

``rearm_timer_entry(token, delay, callback)`` is defined as
``cancel_entry(token)`` followed by ``schedule_timer_entry(delay, callback)``.
The ``classic`` oracle does literally that; ``flat`` moves a queued record
instead of killing it and re-queues it under the key the pair would have
pushed.  This suite runs random programs -- arm, re-arm, cancel, plain
events, events that re-arm a timer when they fire, ``run_until`` and
``step`` -- twice on each engine, once through ``rearm_timer_entry`` and once
through the spelled-out pair, and requires the same firing sequence, the same clock and the same four
counters after every operation.  Delays come from a handful of values so that
ties, which only the sequence number orders, are the common case.

The last test is the check on the check: a scheduler that re-queues a moved
timer under a *fresh* sequence number -- a plausible way to get this wrong --
must be caught.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.flatcore import FlatEventScheduler

from oracle import CLASSIC, ENGINES

SLOTS = st.integers(min_value=0, max_value=2)
DELAYS = st.sampled_from([0.0, 1.0, 5.0, 5.0, 10.0, 10.0, 20.0, 40.0])
OPERATIONS = st.one_of(
    st.tuples(st.just("arm"), SLOTS, DELAYS),
    st.tuples(st.just("rearm"), SLOTS, DELAYS),
    st.tuples(st.just("rearm"), SLOTS, DELAYS),
    st.tuples(st.just("cancel"), SLOTS),
    st.tuples(st.just("plain"), DELAYS),
    st.tuples(st.just("beat"), DELAYS, SLOTS, DELAYS),
    st.tuples(st.just("run"), DELAYS),
    st.tuples(st.just("step")),
)
PROGRAMS = st.lists(OPERATIONS, max_size=60)


def execute(scheduler, program, eager: bool):
    """Run *program*; return everything the two spellings must agree on."""
    log: list[tuple] = []
    tokens: list = [None, None, None]
    names = iter(range(10_000))

    def callback():
        name = next(names)
        return lambda: log.append(("fired", name, scheduler.now()))

    def rearm(slot, delay):
        fire = callback()
        if eager:
            if tokens[slot] is not None:
                scheduler.cancel_entry(tokens[slot])
            tokens[slot] = scheduler.schedule_timer_entry(delay, fire)
        else:
            tokens[slot] = scheduler.rearm_timer_entry(tokens[slot], delay, fire)

    for operation in program:
        kind, *args = operation
        if kind == "arm":
            slot, delay = args
            tokens[slot] = scheduler.schedule_timer_entry(delay, callback())
        elif kind == "rearm":
            rearm(*args)
        elif kind == "cancel":
            if tokens[args[0]] is not None:
                scheduler.cancel_entry(tokens[args[0]])
        elif kind == "plain":
            scheduler.call_after(args[0], callback())
        elif kind == "beat":
            delay, slot, timer_delay = args
            scheduler.call_after(
                delay, lambda slot=slot, timer_delay=timer_delay: rearm(slot, timer_delay)
            )
        elif kind == "run":
            scheduler.run_until(scheduler.now() + args[0])
        else:
            log.append(("step", scheduler.step()))
        log.append(
            (
                kind,
                scheduler.now(),
                scheduler.scheduled_count,
                scheduler.cancelled_count,
                scheduler.executed_count,
                scheduler.pending_count,
            )
        )
    scheduler.run_until_idle()
    log.append(("idle", scheduler.now(), scheduler.executed_count))
    return log


@pytest.mark.parametrize("engine", ENGINES, ids=lambda spec: spec.name)
@given(PROGRAMS)
def test_rearming_is_the_eager_pair(engine, program):
    scheduler_class = engine.scheduler_class()
    assert execute(scheduler_class(), program, eager=False) == execute(
        scheduler_class(), program, eager=True
    )


@given(PROGRAMS)
def test_the_engines_agree_on_rearming(program):
    flat, classic = (
        execute(scheduler_class(), program, eager=False)
        for scheduler_class in (FlatEventScheduler, CLASSIC.scheduler_class())
    )
    assert flat == classic


class _FreshSequenceOnRequeue(FlatEventScheduler):
    """Deliberately wrong: a moved timer that surfaces is re-queued behind
    everything scheduled since it was re-armed, not where the pair put it."""

    _fresh = itertools.count(10**9)  # unique, and behind every real number

    def _drop_head(self) -> None:
        head = self._heap[0]
        if head[3] is not None:  # moved: forget the sequence number it was given
            head[5] = next(self._fresh)
        super()._drop_head()


def test_a_fresh_sequence_number_on_requeue_is_caught():
    @settings(max_examples=500, derandomize=True, database=None)
    @given(PROGRAMS)
    def wrong_scheduler_matches_the_pair(program):
        assert execute(_FreshSequenceOnRequeue(), program, eager=False) == execute(
            FlatEventScheduler(), program, eager=True
        )

    with pytest.raises(AssertionError):
        wrong_scheduler_matches_the_pair()

