"""Immutable building blocks: a hashable mapping and a fast frozen record.

The registries dispatch frozen dataclasses into the parallel sweep engine's
process pool, so every spec field must be hashable and picklable.  Plain
``dict`` fields break that contract (``hash(spec)`` raises), which is exactly
what the spec conformance suite rejects.  :class:`FrozenDict` is the
replacement: a read-only :class:`~collections.abc.Mapping` that preserves
insertion order for iteration and ``repr`` but hashes order-independently, so
two specs built from differently-ordered literals still compare and hash
equal.

**The rule: every frozen value type in** ``repro`` **is declared with**
:func:`value_object`, never ``@dataclass(frozen=True)``.  The decorator is the
stock frozen dataclass -- fields, defaults, ``__post_init__``, ``==``,
``hash``, ``repr``, ordering, pickling, ``dataclasses.replace`` and
``FrozenInstanceError`` all read the same -- but it compiles one function per
class, the ``__init__``, where the stock decorator compiles six (``__init__``,
``__repr__``, ``__eq__``, ``__hash__``, ``__setattr__``, ``__delattr__``; four
more with ``order=True``), one ``exec`` each.  (The stdlib still compiles the
frozen ``__setattr__`` / ``__delattr__`` of a subclass of a frozen dataclass,
which it requires; they are replaced.)  That code generation is paid on
every interpreter start, cached bytecode or not, and again in every ``spawn``
sweep worker; with 80-odd value types it was a third of a cold serving
start's import time.  The other methods are shared closures over each class's
field-name tuples.

The ``__init__`` is also faster to call than the stock one.  A frozen class
refuses ``self.x = x``, so the stock ``__init__`` writes each field through
``object.__setattr__``, a C call per field.  A ``slots=True`` class (the
per-message classes, configurations, log entries and KV commands) with three
or more fields is built as its *mutable twin* instead: a subclass with the
same layout and ``object``'s own ``__setattr__``, which no module holds.
One C call switches the new instance's ``__class__`` to the twin, each field
is then a plain slot store that CPython specializes (``STORE_ATTR_SLOT``),
and one store switches the class back before ``__post_init__`` runs, so an
instance is never of the twin's type once its ``__init__`` is done.  An
instance of a subclass that inherited the ``__init__``, and a class with
fewer fields (for which the two switches cost more than they save), is
written field by field, through each slot's member descriptor or
``object.__setattr__``, bound once per class (``docs/design-notes.md``, "A C
call per field").  ``tests/unit/test_value_objects.py`` finds every frozen
dataclass under ``repro`` and holds it to a stock twin.
"""

from __future__ import annotations

import dataclasses
import operator
import reprlib
import types
from typing import Any, Callable, Iterator, Mapping, TypeVar

__all__ = ["FrozenDict", "value_object"]

C = TypeVar("C", bound=type)


class FrozenDict(Mapping[str, Any]):
    """A hashable, immutable mapping with ``dict``-style construction.

    Accepts anything ``dict()`` accepts; equality follows mapping semantics
    (order-insensitive, interoperable with plain dicts), and the hash is the
    hash of the item set, so it is defined exactly when every value is
    hashable -- the property the conformance suite requires of registered
    specs.
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


def value_object(
    cls: C | None = None, /, *, order: bool = False, slots: bool = False
) -> Any:
    """``@dataclass(frozen=True, order=order, slots=slots)``, compiling one function.

    Field handling is the stdlib's: the class goes through
    ``dataclasses.dataclass`` with no generated methods, then gets the
    generated ``__init__`` (see the module docstring) and the shared
    ``__repr__``, ``__eq__``, ``__hash__``, ordering and frozen
    ``__setattr__`` / ``__delattr__``.  As with the stdlib, a method written
    in the class body wins (an ordering or ``__setattr__`` one raises
    ``TypeError``), and ``__dataclass_params__`` reads ``frozen``, ``eq`` and
    ``repr`` as true, so stock ``@dataclass(frozen=True)`` subclasses still
    build.  Its ``init`` reads false: that marks a value object.  Every field
    must be an init field (``init=False`` raises ``TypeError``; ``InitVar``
    is not supported); ``kw_only`` fields and ``default_factory`` work.
    """

    def wrap(cls: C) -> C:
        return _build(cls, order, slots)

    return wrap if cls is None else wrap(cls)


_ORDERING = {
    "__lt__": operator.lt,
    "__le__": operator.le,
    "__gt__": operator.gt,
    "__ge__": operator.ge,
}


def _build(cls: C, order: bool, slots: bool) -> C:
    body = dict(vars(cls))
    for name in _ORDERING if order else ():
        if name in body:
            raise TypeError(
                f"Cannot overwrite attribute {name} in class {cls.__name__}."
                " Consider using functools.total_ordering"
            )
    for name in ("__setattr__", "__delattr__"):
        if name in body:
            raise TypeError(
                f"Cannot overwrite attribute {name} in class {cls.__name__}"
            )
    statement = cls
    # The stdlib refuses a non-frozen subclass of a frozen dataclass, and
    # then generates the frozen __setattr__/__delattr__ itself (replaced below).
    frozen_base = any(
        dataclasses.is_dataclass(base) and base.__dataclass_params__.frozen
        for base in cls.__mro__[1:]
    )
    cls = dataclasses.dataclass(
        init=False, repr=False, eq=False, frozen=frozen_base, slots=slots
    )(cls)
    params = cls.__dataclass_params__
    params.frozen = params.eq = params.repr = True
    params.order = order
    fields = dataclasses.fields(cls)

    def attach(name: str, method: Callable[..., Any]) -> None:
        method.__name__ = name
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)

    if "__init__" not in body:
        attach("__init__", _init(cls, fields))
    if "__repr__" not in body:
        attach("__repr__", _repr(tuple(f.name for f in fields if f.repr)))
    compared = _values(tuple(f.name for f in fields if f.compare))
    if "__eq__" not in body:
        attach("__eq__", _compare(operator.eq, compared))
    for name, op in _ORDERING.items() if order else ():
        attach(name, _compare(op, compared))
    class_hash = body.get("__hash__", dataclasses.MISSING)
    if class_hash is dataclasses.MISSING or (class_hash is None and "__eq__" in body):
        hashed = (f.name for f in fields if (f.compare if f.hash is None else f.hash))
        attach("__hash__", _hash(_values(tuple(hashed))))
    # The stdlib's closures hold the class statement's object, which a
    # slotted class replaces; holding the same one keeps their behaviour.
    setattr_, delattr_ = _frozen(statement, frozenset(f.name for f in fields))
    attach("__setattr__", setattr_)
    attach("__delattr__", delattr_)
    if slots:
        # What the stdlib adds to a frozen slotted class so that it pickles.
        if "__getstate__" not in body:
            cls.__getstate__ = dataclasses._dataclass_getstate
        if "__setstate__" not in body:
            cls.__setstate__ = dataclasses._dataclass_setstate
    return cls


def _values(names: tuple[str, ...]) -> Callable[[Any], tuple[Any, ...]]:
    """``obj -> (obj.a, obj.b, ...)``: the tuple the stdlib's methods build."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        value = operator.attrgetter(names[0])
        return lambda obj: (value(obj),)
    return lambda obj: ()


def _repr(names: tuple[str, ...]) -> Callable[[Any], str]:
    @reprlib.recursive_repr()
    def __repr__(self: Any) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({fields})"

    return __repr__


def _compare(
    op: Callable[[Any, Any], Any], values: Callable[[Any], tuple[Any, ...]]
) -> Callable[[Any, Any], Any]:
    def compare(self: Any, other: Any) -> Any:
        if other.__class__ is self.__class__:
            return op(values(self), values(other))
        return NotImplemented

    return compare


def _hash(values: Callable[[Any], tuple[Any, ...]]) -> Callable[[Any], int]:
    def __hash__(self: Any) -> int:
        return hash(values(self))

    return __hash__


def _frozen(
    cls: type, names: frozenset[str]
) -> tuple[Callable[[Any, str, Any], None], Callable[[Any, str], None]]:
    def __setattr__(self: Any, name: str, value: Any) -> None:
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self: Any, name: str) -> None:
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return __setattr__, __delattr__


#: The fewest slot fields a class builds through its mutable twin: the two
#: class switches and the subclass test cost about as much as two or three
#: descriptor calls (CPython 3.11.7, ``docs/design-notes.md``, "A C call per
#: field").
_TWIN_MIN_FIELDS = 3

#: ``object.__class__``'s setter: the one C call that makes an instance of a
#: slotted value object its mutable twin.
_SET_CLASS = vars(object)["__class__"].__set__


def _mutable_twin(cls: type) -> type:
    """A subclass of *cls* with its layout and ``object``'s own attribute
    setters: ``__class__`` can switch between the two, and a store to one of
    its slots specializes (``STORE_ATTR_SLOT``), where *cls*'s frozen
    ``__setattr__`` would refuse it.  No module holds it, and an instance is
    switched back to *cls* before its ``__init__`` returns."""
    return type(
        cls.__name__,
        (cls,),
        {
            "__slots__": (),
            "__module__": cls.__module__,
            "__qualname__": cls.__qualname__,
            "__setattr__": object.__setattr__,
            "__delattr__": object.__delattr__,
        },
    )


def _init(cls: type, fields: tuple[dataclasses.Field, ...]) -> Callable[..., None]:
    """Generate *cls*'s ``__init__``: one code object per class, like dataclasses."""
    bound: dict[str, Any] = {"_HAS_DEFAULT_FACTORY": dataclasses._HAS_DEFAULT_FACTORY}
    positional: list[str] = []
    keyword: list[str] = []
    body: list[str] = []
    setters: list[tuple[str, Any]] = []
    annotations: dict[str, Any] = {}
    for field in fields:
        name = field.name
        if not field.init:
            raise TypeError(
                f"value_object field {cls.__name__}.{name} must be an init field"
            )
        params = keyword if field.kw_only else positional
        if field.default is not dataclasses.MISSING:
            bound[f"_default_{name}"] = field.default
            params.append(f"{name}=_default_{name}")
        elif field.default_factory is not dataclasses.MISSING:
            bound[f"_factory_{name}"] = field.default_factory
            params.append(f"{name}=_HAS_DEFAULT_FACTORY")
            body.append(
                f"if {name} is _HAS_DEFAULT_FACTORY: {name} = _factory_{name}()"
            )
        elif not field.kw_only and any("=" in param for param in positional):
            raise TypeError(f"non-default argument {name!r} follows default argument")
        else:
            params.append(name)
        # A slot lives on the class in the MRO that declared the field.
        descriptor = next(
            (
                vars(klass)[name]
                for klass in cls.__mro__
                if isinstance(vars(klass).get(name), types.MemberDescriptorType)
            ),
            None,
        )
        setters.append((name, descriptor))
        annotations[name] = field.type
    if len(setters) >= _TWIN_MIN_FIELDS and all(d is not None for _, d in setters):
        # Built as the mutable twin: one C call switches the class, the
        # field stores specialize, and a plain store switches it back before
        # __post_init__ runs.  An instance of a subclass (which inherited
        # this __init__) is written field by field, as the stdlib would.
        names = [name for name, _ in setters]
        bound.update(
            _type=type,
            _cls=cls,
            _twin=_mutable_twin(cls),
            _set_class=_SET_CLASS,
            _object_setattr=object.__setattr__,
        )
        body += [
            "if _type(self) is _cls:",
            "    _set_class(self, _twin)",
            *(f"    self.{name} = {name}" for name in names),
            "    self.__class__ = _cls",
            "else:",
            *(f"    _object_setattr(self, {name!r}, {name})" for name in names),
        ]
    else:
        for name, descriptor in setters:
            if descriptor is None:
                bound["_object_setattr"] = object.__setattr__
                body.append(f"_object_setattr(self, {name!r}, {name})")
            else:
                bound[f"_set_{name}"] = descriptor.__set__
                body.append(f"_set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    if keyword:
        positional += ["*", *keyword]
    # What the body reads is a global of its own namespace: a closure would
    # copy every cell into each call's frame.  The code's name carries the
    # class name, so no two classes' code objects compare equal: callers
    # count constructions keyed by __init__.__code__.
    code_name = f"{cls.__name__}__init__"
    source = f"def {code_name}(self, {', '.join(positional)}):\n" + "".join(
        f"    {line}\n" for line in body or ["pass"]
    )
    namespace = {"__name__": cls.__module__, **bound}
    exec(source, namespace)
    init = namespace.pop(code_name)
    init.__annotations__ = {**annotations, "return": None}
    return init
