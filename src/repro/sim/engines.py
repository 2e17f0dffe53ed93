"""Simulation engine registry: the seam between contract and implementation.

An engine is a scheduler and a network.  ``flat`` is production -- the engine
the benchmark, every sweep and every default run on; ``classic`` is the
reference it is diffed against, kept as the smallest obviously correct
implementation of the same contract.  Nodes see neither: they are written
against one :class:`~repro.cluster.environment.SimNodeEnvironment`, which
binds its entry points to the two surfaces below once, for either engine.

The *public surfaces* of the two engine-owned classes are the contract
everything above them is written against:

* scheduler -- ``call_at`` / ``call_after`` (returning a handle with
  ``cancel()``), ``schedule_timer_entry(delay, callback, label="")`` /
  ``cancel_entry(token)`` / ``rearm_timer_entry(token, delay, callback)`` (a
  node timer: the token is opaque and only ever passed back; re-arming *is*
  cancel then schedule to every counter and event -- ``classic`` spells it
  out, ``flat`` moves the queued record), ``step`` / ``run_until`` /
  ``run_until_idle`` / ``run_until_condition`` (predicate after every event) /
  ``run_until_interrupted`` + ``interrupt`` (the same wait for a condition
  whose every change calls ``interrupt()``: one attribute load per event
  instead of a predicate call; what the harness uses -- an interrupt raised
  during any other ``run_*`` neither stops that run nor is remembered) /
  ``close`` (drop everything queued, so a finished cluster is freed by
  reference count), the ``scheduled_count`` / ``executed_count`` /
  ``cancelled_count`` / ``pending_count`` counters, the ``max_events``
  budget, and strict ``(time, insertion sequence)`` execution order;
* network -- ``send`` / ``broadcast`` (both return nothing; a broadcast takes
  one message for every target or a per-target factory, and the two forms
  of the same payloads are the same broadcast to every counter, draw and
  event) / ``register`` (any callable; ``flat`` delivers to a node's own
  ``on_message`` without that frame) / ``disconnect`` / ``reconnect`` /
  ``close``, the :class:`~repro.net.network.NetworkStats` counters (one count
  per copy by payload class; ``sent`` and ``per_type_sent`` are views of it),
  the partition manager, and the ``net.drop`` trace schema.

Everything *behind* those surfaces is engine-owned: how a queued event is
represented, how partition reachability is looked up, and **how the heap is
kept small**.  ``flat`` compacts dead records away; ``classic`` lets a
cancelled timer sit until its time comes.  ``heap_size`` and
``compaction_count`` (harvested as ``sim.heap.size`` and
``sim.heap.compactions``, see :data:`repro.obs.harvest.ENGINE_OWNED_METRICS`)
therefore describe one engine's queue and are compared between runs of the
*same* engine only (worker-count parity), never across engines.

* ``classic`` -- :class:`~repro.sim.scheduler.EventScheduler` (a heap of
  timer objects with a cancelled flag, every ``run_*`` a loop over ``step``)
  and :class:`~repro.net.network.SimulatedNetwork` (one scheduler event and
  one closure per message copy).
* ``flat`` -- :mod:`repro.sim.flatcore` and :mod:`repro.net.flatnet`: slotted
  list records instead of timer objects, one hot run loop, no per-message
  closures, cached partition reachability, inlined latency sampling.

Determinism contract: for the same ``(scenario, seed)``, both engines produce
bit-identical measurements, stats, traces, final simulated time and every
telemetry name but the two engine-owned gauges -- ``flat`` may only remove
*allocation and indirection*, never reorder RNG draws or events.  The
differential suite (``tests/property/test_engine_differential.py``) pins this,
``tests/unit/test_engine_contract.py`` runs the unit-level contract on every
registered engine, and ``tests/property/test_timer_rearm.py`` checks re-arming
against the spelled-out pair.

Engine selection is data, never process state: an explicit ``engine``
(scenario field, ``build_cluster``/``SimulationWorld`` parameter, CLI
``--engine``), else ``flat``.  A scenario names its engine, so a sweep worker
runs what the parent built on any start method.

Class references are stored as ``"module:ClassName"`` dotted paths and
resolved lazily, so specs stay hashable and picklable and listing the engines
never imports an implementation until a world is actually built with it.
"""

from __future__ import annotations

from importlib import import_module

from repro.common.errors import ConfigurationError
from repro.common.frozen import value_object
from repro.common.registry import Registry

__all__ = [
    "EngineSpec",
    "get",
    "items",
    "names",
    "resolve",
]


def _resolve_class(path: str) -> type:
    module_name, _, attribute = path.partition(":")
    try:
        return getattr(import_module(module_name), attribute)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(
            f"engine class path {path!r} does not resolve: {exc}"
        ) from exc


@value_object
class EngineSpec:
    """Descriptor for one simulation engine.

    Attributes:
        name: registry key and CLI name (e.g. ``"classic"``, ``"flat"``).
        title: display label for docs and ``--list`` style tables.
        scheduler_path: ``"module:Class"`` of the event scheduler; the class
            must accept ``(clock, max_events=...)`` and implement the
            scheduler contract described in the module docstring.
        network_path: ``"module:Class"`` of the network fabric; same
            constructor signature as
            :class:`~repro.net.network.SimulatedNetwork`.
    """

    name: str
    title: str
    scheduler_path: str
    network_path: str

    def __post_init__(self) -> None:
        for field_name in ("scheduler_path", "network_path"):
            path = getattr(self, field_name)
            module_name, separator, attribute = str(path).partition(":")
            if not module_name or not separator or not attribute:
                raise ConfigurationError(
                    f"engine {self.name!r}: {field_name} {path!r} must be a "
                    "'module:ClassName' dotted path"
                )

    def scheduler_class(self) -> type:
        """The engine's event-scheduler class (imported lazily)."""
        return _resolve_class(self.scheduler_path)

    def network_class(self) -> type:
        """The engine's network-fabric class (imported lazily)."""
        return _resolve_class(self.network_path)


# --------------------------------------------------------------------------- #
# The engines
# --------------------------------------------------------------------------- #
_REGISTRY: Registry[EngineSpec] = Registry(
    "engine",
    (
        EngineSpec(
            name="classic",
            title="Classic reference engine",
            scheduler_path="repro.sim.scheduler:EventScheduler",
            network_path="repro.net.network:SimulatedNetwork",
        ),
        EngineSpec(
            name="flat",
            title="Flat-core array-backed engine",
            scheduler_path="repro.sim.flatcore:FlatEventScheduler",
            network_path="repro.net.flatnet:FlatNetwork",
        ),
    ),
)

get = _REGISTRY.get
names = _REGISTRY.names
items = _REGISTRY.items


def resolve(engine: str | EngineSpec | None) -> EngineSpec:
    """Normalise an engine selection to a spec.

    ``None`` resolves to ``flat`` (the engine the benchmark and the large
    sweeps run on); a string is looked up in the registry (unknown names raise
    with the registered list); a spec passes through unchanged.
    """
    if engine is None:
        return get("flat")
    if isinstance(engine, EngineSpec):
        return engine
    return get(engine)
