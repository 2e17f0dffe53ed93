"""The ``classic`` engine: the test oracle ``flat`` is diffed against.

``flat`` (:mod:`repro.sim.flatcore` and :mod:`repro.net.flatnet`) is the one
engine in ``src/``.  ``classic`` is the smallest obviously correct
implementation of the same contract (:mod:`repro.sim.engines`):
:class:`~oracle.scheduler.EventScheduler`, a heap of timer objects with a
cancelled flag and every ``run_*`` a loop over ``step``, and
:class:`~oracle.network.ClassicNetwork`, one scheduler event and one closure
per message copy.  For the same ``(scenario, seed)`` the two produce
bit-identical measurements, stats, traces, final simulated time and every
telemetry name but :data:`ENGINE_OWNED_METRICS`.

A test selects the oracle by passing :data:`CLASSIC` wherever an engine is
accepted (``SimulationWorld``, ``build_cluster``, a scenario's ``engine``,
``run_experiment``); the spec's dotted paths resolve through ``tests/`` on
``sys.path``, which spawned sweep workers inherit.  Suites that compare the
engines run over :data:`ENGINES`.
"""

from __future__ import annotations

from repro.sim import engines
from repro.sim.engines import EngineSpec

__all__ = ["CLASSIC", "ENGINES", "ENGINE_OWNED_METRICS"]

CLASSIC = EngineSpec(
    name="classic",
    title="Classic reference engine",
    scheduler_path="oracle.scheduler:EventScheduler",
    network_path="oracle.network:ClassicNetwork",
)

#: Production first, then the oracle it is diffed against.
ENGINES: tuple[EngineSpec, ...] = (engines.get("flat"), CLASSIC)

#: The harvested metrics that describe how *one* engine keeps its heap small:
#: ``flat`` compacts dead records away, ``classic`` lets a cancelled timer sit
#: until its time comes, so the two read differently for the same episode.
#: Every other name is bit-identical across engines
#: (``tests/property/test_obs_parity.py``); these two are compared between
#: runs of the same engine only.
ENGINE_OWNED_METRICS: frozenset[str] = frozenset({"sim.heap.size", "sim.heap.compactions"})
