"""Property-based tests for the network's delivery accounting.

The invariant under test: once every in-flight message has drained, every
message copy ends in exactly one terminal state, so

    sent + duplicated == delivered + dropped + elided

(``duplicated`` counts the extra copies the duplication fault schedules; each
such copy is delivered or dropped in flight but was never counted as sent;
``elided`` counts the copies of inert sends that passed every send-time check
and were then not scheduled).  The invariant must hold on both engines'
networks for any interleaving of unicasts, inert unicasts, broadcasts,
disconnects, reconnects and partitions under any fault injector, with
broadcasts of one message and through a per-target factory -- including
the historical bug case of a *disconnected sender broadcasting*, which used
to count drops without the matching sends.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.faults import (
    BroadcastOmissionFault,
    CompositeFault,
    LinkFault,
    MessageDuplicationFault,
    NoFault,
    PacketLossFault,
)
from repro.net.latency import ConstantLatency
from repro.sim.engines import names as engine_names
from repro.sim.world import SimulationWorld

MEMBERS = (1, 2, 3, 4, 5)

FAULTS = st.sampled_from(
    [
        NoFault(),
        PacketLossFault(0.3),
        BroadcastOmissionFault(0.4),
        BroadcastOmissionFault(0.5, affect_unicast=True),
        MessageDuplicationFault(0.5),
        LinkFault(broken_links=frozenset({(1, 2), (3, 4)})),
        CompositeFault(
            injectors=(BroadcastOmissionFault(0.2), MessageDuplicationFault(0.3))
        ),
        CompositeFault(
            injectors=(PacketLossFault(0.2), MessageDuplicationFault(0.4))
        ),
    ]
)

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["send", "send-inert"]),
            st.sampled_from(MEMBERS),
            st.sampled_from(MEMBERS),
        ),
        # The flag picks the form: one message, or a per-target factory.
        st.tuples(st.just("broadcast"), st.sampled_from(MEMBERS), st.booleans()),
        st.tuples(st.just("disconnect"), st.sampled_from(MEMBERS)),
        st.tuples(st.just("reconnect"), st.sampled_from(MEMBERS)),
        st.tuples(st.just("partition"), st.integers(1, len(MEMBERS) - 1)),
        st.tuples(st.just("heal")),
        st.tuples(st.just("advance"), st.floats(min_value=0.0, max_value=50.0)),
    ),
    max_size=60,
)


@pytest.mark.parametrize("engine", engine_names())
@given(ops=OPS, fault=FAULTS, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_sent_equals_delivered_plus_dropped_after_drain(engine, ops, fault, seed):
    world = SimulationWorld(seed=seed, engine=engine)
    network = world.engine.network_class()(
        world, MEMBERS, latency=ConstantLatency(10.0), fault=fault
    )
    for member in MEMBERS:
        network.register(member, lambda src, payload: None)

    inert_passed = 0
    for op in ops:
        kind = op[0]
        if kind in ("send", "send-inert"):
            _, src, dst = op
            if src != dst:
                dropped_before = network.stats.dropped
                network.send(src, dst, "m", kind == "send-inert")
                if kind == "send-inert" and network.stats.dropped == dropped_before:
                    inert_passed += 1
        elif kind == "broadcast":
            _, src, one_message = op
            targets = [member for member in MEMBERS if member != src]
            network.broadcast(src, targets, "b" if one_message else lambda dst: "b")
        elif kind == "disconnect":
            network.disconnect(op[1])
        elif kind == "reconnect":
            network.reconnect(op[1])
        elif kind == "partition":
            split = op[1]
            network.partitions.heal()
            network.partitions.partition(MEMBERS[:split], MEMBERS[split:])
        elif kind == "heal":
            network.partitions.heal()
        elif kind == "advance":
            world.run_for(op[1])

    # Drain everything still in flight, then check the books balance.
    world.scheduler.run_until_idle()
    stats = network.stats
    assert stats.sent + stats.duplicated == (
        stats.delivered + stats.dropped + stats.elided
    ), (
        f"sent={stats.sent} delivered={stats.delivered} elided={stats.elided} "
        f"duplicated={stats.duplicated} dropped={stats.dropped}"
    )
    # Elision is per copy and only ever of inert sends that were not dropped
    # at send time: each such send elides itself and, at most, its duplicate.
    assert inert_passed <= stats.elided <= 2 * inert_passed
