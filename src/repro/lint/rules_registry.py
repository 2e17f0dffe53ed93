"""The registry rules (``S1`` spec purity, ``S2`` experiment completeness).

Unlike the AST rules these run once per lint invocation: they import the six
spec registries (each one :class:`repro.common.registry.Registry`), enumerate
them through :func:`load_registries` and inspect the *registered values
themselves*.  That is deliberate -- the reproducibility contract is about
what actually reaches the parallel sweep engine's process pool, and the
registries are the single dispatch layer, so checking them covers every spec
a plugin can ship without parsing its source.  The runtime half of the same
contract, ``tests/unit/test_spec_conformance.py``, parametrizes over the same
:func:`load_registries`, so the two cannot cover different registries.

Findings anchor to the spec class's (or offending callable's) definition
line, so the same ``repro: allow[rule-id]`` pragma mechanism applies.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from pathlib import Path
from typing import Mapping

from repro.lint.model import Finding, LintConfig

__all__ = [
    "check_experiment_registry",
    "check_registered_specs",
    "iter_spec_problems",
    "load_registries",
]

def load_registries() -> dict[str, tuple[tuple[str, object], ...]]:
    """Import the six spec registries and enumerate each one's
    ``(name, spec)`` pairs, in registration order."""
    from repro.chaos.plans import CHAOS_CATALOG
    from repro.cluster.catalog import CATALOG
    from repro.experiments import registry as experiment_registry
    from repro.protocols import registry as protocol_registry
    from repro.sim import engines as engine_registry
    from repro.workload import specs as workload_registry

    return {
        "protocols": protocol_registry.items(),
        "experiments": experiment_registry.items(),
        "net-conditions": CATALOG.items(),
        "chaos-plans": CHAOS_CATALOG.items(),
        "engines": engine_registry.items(),
        "workloads": workload_registry.items(),
    }


def _built_plans(entries) -> tuple[tuple[str, object], ...]:
    """What each chaos entry ships across the process boundary: the plan it
    builds (a short horizon keeps it cheap) and that plan's events."""
    built: list[tuple[str, object]] = []
    for name, entry in entries:
        plan = entry.build(horizon_ms=30_000.0, seed=0)
        built.append((f"{name}:plan", plan))
        built.extend(
            (f"{name}:event[{index}]", event)
            for index, event in enumerate(plan.events)
        )
    return tuple(built)


def _anchor(obj: object) -> tuple[str, int]:
    """Best-effort (file, line) for a finding about *obj*."""
    if inspect.isfunction(obj):
        code = obj.__code__
        return code.co_filename, code.co_firstlineno
    cls = obj if inspect.isclass(obj) else type(obj)
    try:
        path = inspect.getsourcefile(cls) or "<unknown>"
        line = inspect.getsourcelines(cls)[1]
    except (OSError, TypeError):
        path, line = "<unknown>", 1
    return path, line


def _is_local_callable(value: object) -> bool:
    """Whether a callable field cannot pickle by reference (lambda/closure)."""
    if inspect.isfunction(value):
        return value.__name__ == "<lambda>" or "<locals>" in value.__qualname__
    if inspect.ismethod(value):
        return True
    return False


def iter_spec_problems(registry: str, name: str, spec: object) -> list[Finding]:
    """Every S1 violation of one registered spec value.

    A pure spec is a frozen dataclass whose fields hold hashable plain values
    or nested specs, whose callables are module-level (picklable by
    reference), and whose defaults are immutable -- exactly the properties
    that let a spec cross the multiprocessing boundary bit-for-bit.
    """
    label = f"{registry}:{name}"
    path, line = _anchor(spec)
    findings: list[Finding] = []

    def problem(message: str, at: tuple[str, int] | None = None) -> None:
        where = at or (path, line)
        findings.append(Finding(where[0], where[1], "S1", message))

    if not dataclasses.is_dataclass(spec) or inspect.isclass(spec):
        problem(f"registered spec {label} is not a dataclass instance")
        return findings
    if not type(spec).__dataclass_params__.frozen:
        problem(f"registered spec {label} is not frozen (mutable after registration)")

    for field in dataclasses.fields(type(spec)):
        if field.default_factory is not dataclasses.MISSING and field.default_factory in (
            list,
            dict,
            set,
        ):
            problem(
                f"{label}.{field.name} defaults to a mutable "
                f"{field.default_factory.__name__}; use an immutable default"
            )
        value = getattr(spec, field.name, None)
        if callable(value) and _is_local_callable(value):
            problem(
                f"{label}.{field.name} holds a lambda/closure; spec callables "
                "must be module-level so they pickle by reference",
                at=_anchor(value),
            )
            continue
        try:
            hash(value)
        except TypeError:
            problem(
                f"{label}.{field.name} holds an unhashable "
                f"{type(value).__name__}; spec fields must be hashable plain "
                "values or nested specs"
            )

    try:
        hash(spec)
    except TypeError:
        problem(f"registered spec {label} is not hashable")
    try:
        clone = pickle.loads(pickle.dumps(spec))
    except Exception as exc:  # noqa: BLE001 - report any pickling failure
        problem(f"registered spec {label} does not pickle: {exc!r}")
    else:
        if clone != spec:
            problem(f"registered spec {label} changes value across pickling")
    return findings


def check_registered_specs(config: LintConfig) -> list[Finding]:
    """S1 over every spec in all six registries, and over every built plan."""
    registries = load_registries()
    registries["chaos-plans"] += _built_plans(registries["chaos-plans"])
    findings: list[Finding] = []
    for registry, pairs in registries.items():
        for name, spec in pairs:
            findings.extend(iter_spec_problems(registry, name, spec))
    return findings


# --------------------------------------------------------------------------- #
# S2 -- experiment registry completeness
# --------------------------------------------------------------------------- #
def check_experiment_registry(
    config: LintConfig, modules: Mapping[str, Mapping[str, object]] | None = None
) -> list[Finding]:
    """S2: each experiments module registers exactly one experiment.

    Every non-infrastructure module under :mod:`repro.experiments` (or each
    ``name -> namespace`` of *modules*, for tests) must bind, at module
    level, exactly one declaration the live registry holds -- so no module
    is left unregistered and none registers two.  What a declaration may say
    is not checked here: a sweep's capabilities and parameters are derived
    from its grid, so they cannot disagree with it.
    """
    import repro.experiments as experiments_package
    from repro.experiments import registry as experiment_registry

    registered = {id(spec): name for name, spec in experiment_registry.items()}
    if modules is None:
        modules = {
            info.name: vars(
                importlib.import_module(f"{experiments_package.__name__}.{info.name}")
            )
            for info in pkgutil.iter_modules(experiments_package.__path__)
            if info.name not in config.experiment_infra_modules
        }
    package_dir = Path(next(iter(experiments_package.__path__)))
    findings: list[Finding] = []
    for short, namespace in sorted(modules.items()):
        names = sorted(
            {registered[id(value)] for value in namespace.values() if id(value) in registered}
        )
        if len(names) != 1:
            findings.append(
                Finding(
                    str(package_dir / f"{short}.py"),
                    1,
                    "S2",
                    f"experiments module {short!r} registers {len(names)} "
                    f"experiments ({', '.join(names) or 'none'}); every "
                    "non-infrastructure module must register exactly one",
                )
            )
    return findings
