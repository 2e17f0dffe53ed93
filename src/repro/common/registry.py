"""One name -> frozen-value table: the class behind every spec registry.

Protocols, experiments, simulation engines, workloads, chaos plans and
network conditions are all selected by name -- from the CLI, from scenario
fields, from one another -- and each name maps to one frozen, picklable
value.  :class:`Registry` is that table, written once: registration order is
presentation order, a name is checked the same way everywhere (it must
survive the CLI, which splits lists on commas), and an unknown name raises
one :class:`~repro.common.errors.ConfigurationError` that lists every
registered name.  Each registry module binds the verbs it offers to one
instance and keeps only what is its own (``protocols.title``,
``engines.resolve``, ``build_plan``, ...); the spec conformance suite
enumerates all six through :meth:`Registry.items`.
"""

from __future__ import annotations

from typing import Generic, Iterable, Protocol, TypeVar

from repro.common.errors import ConfigurationError

__all__ = ["Registry"]


class _Named(Protocol):
    name: str


SpecT = TypeVar("SpecT", bound=_Named)


class Registry(Generic[SpecT]):
    """Named specs of one *kind*, in registration order.

    Args:
        kind: what the values are, as error messages say it (``"protocol"``,
            ``"chaos plan"``).
        specs: initial registrations, checked like any other.
    """

    def __init__(self, kind: str, specs: Iterable[SpecT] = ()) -> None:
        self.kind = kind
        self._specs: dict[str, SpecT] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: SpecT, *, replace: bool = False) -> SpecT:
        """Register *spec* under its ``name`` and return it.

        Raises:
            ConfigurationError: when the name is empty or contains whitespace
                or a comma, or is already registered and *replace* is false.
        """
        name = spec.name
        if not name or any(ch.isspace() or ch == "," for ch in name):
            raise ConfigurationError(
                f"{self.kind} name {name!r} must be non-empty and free of "
                "whitespace and commas"
            )
        if name in self._specs and not replace:
            raise ConfigurationError(
                f"{self.kind} {name!r} is already registered; "
                "pass replace=True to overwrite it"
            )
        self._specs[name] = spec
        return spec

    def get(self, name: str) -> SpecT:
        """The spec registered under *name*.

        Raises:
            ConfigurationError: listing every registered name, in
                registration order, when *name* is unknown.
        """
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; registered: {', '.join(self._specs)}"
            ) from None

    def names(self) -> tuple[str, ...]:
        """Every registered name, in registration order."""
        return tuple(self._specs)

    def items(self) -> tuple[tuple[str, SpecT], ...]:
        """``(name, spec)`` pairs, in registration order."""
        return tuple(self._specs.items())

    def __contains__(self, name: object) -> bool:
        return name in self._specs
