"""Simulation engine registry: the seam between contract and implementation.

The simulation stack has exactly three engine-owned classes -- the event
scheduler, the network fabric, and the per-node environment adapter.  Their
*public surfaces* are the contract everything above them is written against:

* scheduler -- ``call_at`` / ``call_after`` / ``step`` / ``run_until`` /
  ``run_until_idle`` / ``run_until_condition``, the ``pending_count`` /
  ``heap_size`` / ``compaction_count`` / ``executed_count`` observability
  properties, and strict ``(time, insertion sequence)`` execution order;
* network -- ``send`` / ``broadcast`` / ``register`` / ``disconnect`` /
  ``reconnect``, the :class:`~repro.net.network.NetworkStats` counters, the
  partition manager, and the ``net.drop`` trace schema;
* environment -- the :class:`~repro.raft.environment.Environment` protocol
  nodes are written against (``send``/``broadcast``/``set_timer``/
  ``cancel_timer``/``rng``/``trace``).

Everything *behind* those surfaces -- how events are represented, whether
envelopes are materialised, how partition reachability is looked up -- is
engine-owned.  An :class:`EngineSpec` names one consistent implementation of
all three, and the registry mirrors :mod:`repro.protocols` /
:mod:`repro.experiments` so the lint S1 rule and the pickle/hash conformance
suite cover engine specs for free.

Two engines are built in:

* ``classic`` -- the original object-graph implementation (one
  :class:`~repro.sim.events.ScheduledEvent` + handle per timer, one
  :class:`~repro.net.message.Envelope` + closure per message).  It is the
  readable reference implementation.
* ``flat`` -- the array-backed fast core (:mod:`repro.sim.flatcore`,
  :mod:`repro.net.flatnet`): slotted list records instead of event objects,
  no per-message envelopes or closures, cached partition reachability,
  inlined latency sampling.  Bit-identical results, several times faster.

Determinism contract: for the same ``(scenario, seed)``, every engine must
produce bit-identical measurements, stats and traces -- engines may only
remove *allocation and indirection*, never reorder RNG draws or events.  The
differential suite (``tests/property/test_engine_differential.py``) pins this.

Engine selection resolves in priority order: an explicit ``engine`` argument
(scenario field, ``build_cluster``/``SimulationWorld`` parameter, CLI
``--engine``), then a process-wide :func:`set_default_engine` override, then
``"flat"``.

Class references are stored as ``"module:ClassName"`` dotted paths and
resolved lazily, so specs stay hashable and picklable (plain strings cross
the sweep engine's process pool by value) and registering an engine never
imports its implementation until a world is actually built with it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from typing import Iterator

from repro.common.errors import ConfigurationError

__all__ = [
    "EngineSpec",
    "default_engine_name",
    "get",
    "is_registered",
    "names",
    "register",
    "registered_specs",
    "resolve",
    "set_default_engine",
    "specs",
    "titles",
    "unregister",
    "using_engine",
]

#: Lazily resolved ``"module:ClassName"`` path -> class cache (one import per
#: path per process; resolution happens at world-build time, not at
#: registration time).
_CLASS_CACHE: dict[str, type] = {}


def _resolve_class(path: str) -> type:
    try:
        return _CLASS_CACHE[path]
    except KeyError:
        pass
    module_name, _, attribute = path.partition(":")
    try:
        resolved = getattr(import_module(module_name), attribute)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(
            f"engine class path {path!r} does not resolve: {exc}"
        ) from exc
    _CLASS_CACHE[path] = resolved
    return resolved


@dataclass(frozen=True)
class EngineSpec:
    """Descriptor for one simulation engine.

    Attributes:
        name: registry key and CLI name (e.g. ``"classic"``, ``"flat"``);
            must be non-empty and free of whitespace and commas.
        title: display label for docs and ``--list`` style tables.
        scheduler_path: ``"module:Class"`` of the event scheduler; the class
            must accept ``(clock, max_events=...)`` and implement the
            scheduler contract described in the module docstring.
        network_path: ``"module:Class"`` of the network fabric; same
            constructor signature as
            :class:`~repro.net.network.SimulatedNetwork`.
        environment_path: ``"module:Class"`` of the per-node environment;
            same constructor signature as
            :class:`~repro.cluster.environment.SimNodeEnvironment`.
        description: one-line summary of the implementation strategy.
    """

    name: str
    title: str
    scheduler_path: str
    network_path: str
    environment_path: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() or ch == "," for ch in self.name):
            raise ConfigurationError(
                f"engine name {self.name!r} must be non-empty and free of "
                "whitespace and commas"
            )
        for field_name in ("scheduler_path", "network_path", "environment_path"):
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

    def environment_class(self) -> type:
        """The engine's node-environment class (imported lazily)."""
        return _resolve_class(self.environment_path)


_REGISTRY: dict[str, EngineSpec] = {}
_DEFAULT_OVERRIDE: str | None = None


def register(spec: EngineSpec, *, replace: bool = False) -> EngineSpec:
    """Register *spec* under its name and return it.

    Raises:
        ConfigurationError: when the name is already registered and *replace*
            is false.
    """
    if spec.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"engine {spec.name!r} is already registered; "
            "pass replace=True to overwrite it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> EngineSpec:
    """Remove a registration (plugin teardown, test hygiene) and return it."""
    spec = get(name)
    del _REGISTRY[name]
    return spec


def get(name: str) -> EngineSpec:
    """The spec registered under *name*.

    Raises:
        ConfigurationError: listing every registered name when *name* is
            unknown.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered: {', '.join(_REGISTRY)}"
        ) from None


def is_registered(name: str) -> bool:
    """Whether *name* is a registered engine."""
    return name in _REGISTRY


def names() -> tuple[str, ...]:
    """Every registered engine name, in registration order."""
    return tuple(_REGISTRY)


def specs() -> tuple[EngineSpec, ...]:
    """Every registered spec, in registration order."""
    return tuple(_REGISTRY.values())


def registered_specs() -> tuple[tuple[str, EngineSpec], ...]:
    """``(name, spec)`` pairs for introspection tooling (``repro.lint`` S1)."""
    return tuple(_REGISTRY.items())


def titles() -> dict[str, str]:
    """Mapping of every registered name to its display title."""
    return {name: spec.title for name, spec in _REGISTRY.items()}


def default_engine_name() -> str:
    """The engine used when nothing selects one explicitly.

    Resolution order: :func:`set_default_engine` override, then ``"flat"``
    (the engine the benchmark and the large sweeps run on; ``classic`` stays
    the readable reference the differential suite compares it against).
    """
    if _DEFAULT_OVERRIDE is not None:
        return _DEFAULT_OVERRIDE
    return "flat"


def set_default_engine(name: str | None) -> None:
    """Install (or with ``None`` clear) the process-wide default engine.

    The sweep engine's pool initializer calls this in every worker so workers
    inherit the parent's resolved default deterministically even under the
    ``spawn`` start method.
    """
    global _DEFAULT_OVERRIDE
    if name is not None:
        get(name)
    _DEFAULT_OVERRIDE = name


@contextmanager
def using_engine(name: str | None) -> Iterator[str]:
    """Temporarily make *name* the default engine (``None`` keeps the current
    default).  Yields the resolved default name; always restores the previous
    override, so a failing experiment cannot leak an engine selection."""
    global _DEFAULT_OVERRIDE
    previous = _DEFAULT_OVERRIDE
    if name is not None:
        set_default_engine(name)
    try:
        yield default_engine_name()
    finally:
        _DEFAULT_OVERRIDE = previous


def resolve(engine: str | EngineSpec | None) -> EngineSpec:
    """Normalise an engine selection to a registered spec.

    ``None`` resolves to the current default; a string is looked up in the
    registry (unknown names raise with the registered list); a spec passes
    through unchanged.
    """
    if engine is None:
        return get(default_engine_name())
    if isinstance(engine, EngineSpec):
        return engine
    return get(engine)


# --------------------------------------------------------------------------- #
# Built-in engines
# --------------------------------------------------------------------------- #
register(
    EngineSpec(
        name="classic",
        title="Classic object-graph engine",
        scheduler_path="repro.sim.scheduler:EventScheduler",
        network_path="repro.net.network:SimulatedNetwork",
        environment_path="repro.cluster.environment:SimNodeEnvironment",
        description=(
            "Reference implementation: one ScheduledEvent + EventHandle per "
            "timer, one Envelope + delivery closure per message"
        ),
    )
)
register(
    EngineSpec(
        name="flat",
        title="Flat-core array-backed engine",
        scheduler_path="repro.sim.flatcore:FlatEventScheduler",
        network_path="repro.net.flatnet:FlatNetwork",
        environment_path="repro.cluster.environment:FlatSimNodeEnvironment",
        description=(
            "Slotted list records instead of event/handle objects, pooled "
            "argument tuples instead of envelopes, cached partition "
            "reachability, inlined latency sampling; bit-identical to classic"
        ),
    )
)
