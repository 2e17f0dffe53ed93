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

Two *engines* provide the kernel: ``flat`` (:class:`FlatEventScheduler`,
array-backed records; what everything runs on) and ``classic``
(:class:`~repro.sim.scheduler.EventScheduler`, the minimal reference ``flat``
is diffed against).  Both are listed in :mod:`repro.sim.engines` and are
bit-identical by contract -- selecting one changes wall-clock time only.  The
choice is an argument (``SimulationWorld(engine=...)``, a scenario's
``engine`` field), never process state; naming none means ``flat``.

``EventScheduler`` is not re-exported: the engine registry loads
:mod:`repro.sim.scheduler` by its ``module:Class`` path only when a run
selects ``classic``, so import it from there.
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
