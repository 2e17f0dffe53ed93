"""Immutable building blocks: a hashable mapping and a fast frozen record.

The registries dispatch frozen dataclasses into the parallel sweep engine's
process pool, so every spec field must be hashable and picklable.  Plain
``dict`` fields break that contract (``hash(spec)`` raises), which is exactly
what the ``repro.lint`` S1 rule rejects.  :class:`FrozenDict` is the
replacement: a read-only :class:`~collections.abc.Mapping` that preserves
insertion order for iteration and ``repr`` but hashes order-independently, so
two specs built from differently-ordered literals still compare and hash
equal.

:func:`value_object` is ``@dataclass(frozen=True, slots=True)`` for the
classes built once per message, log entry or client command: the same class
with an ``__init__`` that costs slot writes instead of ``object.__setattr__``
calls.
"""

from __future__ import annotations

import dataclasses
import types
from typing import Any, Callable, Iterator, Mapping, TypeVar

__all__ = ["FrozenDict", "value_object"]

C = TypeVar("C", bound=type)


class FrozenDict(Mapping[str, Any]):
    """A hashable, immutable mapping with ``dict``-style construction.

    Accepts anything ``dict()`` accepts; equality follows mapping semantics
    (order-insensitive, interoperable with plain dicts), and the hash is the
    hash of the item set, so it is defined exactly when every value is
    hashable -- the property S1 enforces for registered specs.
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, data: Any = (), **kwargs: Any) -> None:
        object.__setattr__(self, "_data", dict(data, **kwargs))
        object.__setattr__(self, "_hash", None)

    def __getitem__(self, key: str) -> Any:
        return self._data[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenDict):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash(frozenset(self._data.items()))
            )
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._data!r})"

    def __reduce__(self):
        return (type(self), (self._data,))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


def value_object(cls: C | None = None, /, *, order: bool = False) -> Any:
    """``@dataclass(frozen=True, slots=True, order=order)`` with a faster ``__init__``.

    A frozen dataclass's generated ``__init__`` assigns each field with
    ``object.__setattr__``, which looks the slot up through the class on every
    call.  The ``__init__`` attached here writes each field through its slot's
    member descriptor instead, bound once per class.  Everything else is the
    stock dataclass: fields, defaults (``default_factory`` included),
    ``__post_init__``, ``==``, ``hash``, ``repr``, ordering (with
    ``order=True``), pickling, ``dataclasses.replace`` and
    ``FrozenInstanceError``.  Fields must be plain positional-or-keyword init
    fields: an ``init=False`` or ``kw_only`` field raises ``TypeError``, and
    ``InitVar`` is not supported.  ``tests/unit/test_value_objects.py`` holds
    every decorated class to a stock twin.
    """

    def wrap(cls: C) -> C:
        cls = dataclasses.dataclass(
            frozen=True, slots=True, init=False, order=order
        )(cls)
        cls.__init__ = _slot_writing_init(cls)
        return cls

    return wrap if cls is None else wrap(cls)


def _slot_writing_init(cls: type) -> Callable[..., None]:
    """Generate *cls*'s ``__init__``: one code object per class, like dataclasses."""
    bound: dict[str, Any] = {"_HAS_DEFAULT_FACTORY": dataclasses._HAS_DEFAULT_FACTORY}
    params: list[str] = []
    body: list[str] = []
    annotations: dict[str, Any] = {}
    for field in dataclasses.fields(cls):
        name = field.name
        if not field.init or field.kw_only:
            raise TypeError(
                f"value_object field {cls.__name__}.{name} must be a positional"
                " init field"
            )
        # The slot lives on the class in the MRO that declared the field.
        descriptor = next(
            vars(klass)[name]
            for klass in cls.__mro__
            if isinstance(vars(klass).get(name), types.MemberDescriptorType)
        )
        bound[f"_set_{name}"] = descriptor.__set__
        if field.default is not dataclasses.MISSING:
            bound[f"_default_{name}"] = field.default
            params.append(f"{name}=_default_{name}")
        elif field.default_factory is not dataclasses.MISSING:
            bound[f"_factory_{name}"] = field.default_factory
            params.append(f"{name}=_HAS_DEFAULT_FACTORY")
            body.append(
                f"if {name} is _HAS_DEFAULT_FACTORY: {name} = _factory_{name}()"
            )
        else:
            params.append(name)
        body.append(f"_set_{name}(self, {name})")
        annotations[name] = field.type
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    # The setters reach the body as closure cells, which read faster than
    # globals; the outer function exists only to create those cells.  The
    # code's name carries the class name, so no two classes' code objects
    # compare equal: callers count constructions keyed by __init__.__code__.
    code_name = f"{cls.__name__}__init__"
    source = (
        f"def __create_init__({', '.join(bound)}):\n"
        f"    def {code_name}(self, {', '.join(params)}):\n"
        + "".join(f"        {line}\n" for line in body)
        + f"    return {code_name}\n"
    )
    namespace: dict[str, Any] = {}
    exec(source, {"__name__": cls.__module__}, namespace)
    init = namespace["__create_init__"](**bound)
    init.__name__ = "__init__"
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {**annotations, "return": None}
    return init
