"""The :class:`SimulationWorld` bundles clock, scheduler, RNG tree and tracer.

A world is the unit of isolation for one simulated cluster run: the network,
every node environment and the harness all hold a reference to the same world,
and dropping the world drops the whole run.
"""

from __future__ import annotations

from repro.common.rng import SeedSequence
from repro.common.types import Milliseconds
from repro.sim import engines
from repro.sim.clock import VirtualClock
from repro.sim.engines import EngineSpec
from repro.sim.tracing import Tracer


class SimulationWorld:
    """Everything one simulated run shares.

    Args:
        seed: root seed of the run; all randomness derives from it.
        trace: whether to keep trace records (disable for large sweeps).
        max_events: event budget passed to the scheduler.
        engine: simulation engine name or spec (see :mod:`repro.sim.engines`);
            ``None`` means ``flat``.  The world owns the engine choice: it
            builds the engine's scheduler, and
            :func:`repro.cluster.builder.build_cluster` reads :attr:`engine`
            to pick the matching network and node-environment classes.
    """

    def __init__(
        self,
        seed: int = 0,
        trace: bool = True,
        max_events: int = 10_000_000,
        engine: str | EngineSpec | None = None,
    ) -> None:
        self.engine = engines.resolve(engine)
        self.seeds = SeedSequence(seed)
        self.clock = VirtualClock()
        self.scheduler = self.engine.scheduler_class()(self.clock, max_events=max_events)
        self.tracer = Tracer(enabled=trace)

    def now(self) -> Milliseconds:
        """Current simulated time in milliseconds."""
        return self.clock.now()

    def trace(self, category: str, node: int | None = None, **detail: object) -> None:
        """Record a trace event stamped with the current simulated time."""
        if self.tracer.enabled:
            self.tracer.record(self.clock.now(), category, node=node, **detail)

    def run_for(self, duration_ms: Milliseconds) -> None:
        """Run the scheduler for *duration_ms* simulated milliseconds."""
        self.scheduler.run_until(self.now() + duration_ms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimulationWorld(now={self.now():.1f}ms, "
            f"pending={self.scheduler.pending_count}, "
            f"seed={self.seeds.root_seed})"
        )
