"""Deterministic discrete-event simulation kernel.

The kernel is intentionally small: a virtual clock, an event scheduler with
cancellable timers, a trace recorder, and a :class:`SimulationWorld`
that bundles the three together with a seeded random-number tree.  Everything
else in the library (network, nodes, harnesses) is built on top of these
primitives.

Determinism guarantees:

* time only advances when the scheduler executes an event;
* events scheduled for the same instant run in insertion order (stable
  tie-breaking), so repeated runs with the same seed are bit-identical;
* all randomness flows through :class:`repro.common.rng.SeedSequence`.

The kernel's scheduler is :class:`FlatEventScheduler` (array-backed
records), the scheduler of the ``flat`` engine listed in
:mod:`repro.sim.engines`.  The engine is an argument
(``SimulationWorld(engine=...)``, a scenario's ``engine`` field), never
process state; naming none means ``flat``.
"""

from repro.sim.clock import VirtualClock
from repro.sim.engines import EngineSpec
from repro.sim.flatcore import FlatEventScheduler
from repro.sim.tracing import TraceRecord, Tracer
from repro.sim.world import SimulationWorld

__all__ = [
    "EngineSpec",
    "FlatEventScheduler",
    "SimulationWorld",
    "TraceRecord",
    "Tracer",
    "VirtualClock",
]
