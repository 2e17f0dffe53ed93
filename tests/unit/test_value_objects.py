"""Every ``value_object`` class behaves exactly like its stock dataclass twin.

``repro.common.frozen.value_object`` swaps a frozen slotted dataclass's
generated ``__init__`` for one that writes slots directly.  The classes are
found by walking ``repro`` (no list kept here), and each is compared with a
twin built by ``dataclasses.make_dataclass(..., frozen=True, slots=True)``
from the same fields, options and ``__post_init__``: signature, construction,
validation, equality, hashing, ``repr``, ordering, pickling, ``copy``,
``replace`` and immutability must all read the same.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import inspect
import math
import operator
import pickle
import pkgutil
import sys

import pytest

import repro
from repro.common.frozen import value_object
from repro.escape.configuration import ConfigStatus, Configuration
from repro.raft.messages import RpcMessage
from repro.storage.log import LogEntry


def _all_classes() -> list[type]:
    classes: dict[str, type] = {}
    for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
        if module_info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(module_info.name)
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                classes[f"{value.__module__}.{value.__qualname__}"] = value
    return [classes[name] for name in sorted(classes)]


def is_value_object(cls: type) -> bool:
    """Decorated: a frozen slotted dataclass built with ``init=False`` that has
    its own ``__init__`` all the same (the one ``value_object`` attaches)."""
    params = getattr(cls, "__dataclass_params__", None)
    return (
        params is not None
        and params.frozen
        and not params.init
        and "__slots__" in vars(cls)
        and "__init__" in vars(cls)
    )


ALL_CLASSES = _all_classes()
VALUE_OBJECTS = [cls for cls in ALL_CLASSES if is_value_object(cls)]


def twin_of(cls: type) -> type:
    """The stock ``@dataclass(frozen=True, slots=True, <options>)`` equivalent."""
    params = cls.__dataclass_params__
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [
            (
                f.name,
                f.type,
                dataclasses.field(
                    default=f.default,
                    default_factory=f.default_factory,
                    repr=f.repr,
                    hash=f.hash,
                    compare=f.compare,
                ),
            )
            for f in dataclasses.fields(cls)
        ],
        namespace=namespace,
        frozen=True,
        slots=True,
        eq=params.eq,
        order=params.order,
        unsafe_hash=params.unsafe_hash,
        repr=params.repr,
    )
    twin.__qualname__ = cls.__qualname__
    return twin


# Two distinct values per annotation, varied by field position so that two
# fields of one type never hold the same value.
SAMPLES = {
    "Term": lambda i, v: 1 + i + 10 * v,
    "LogIndex": lambda i, v: 1 + i + 10 * v,
    "ServerId": lambda i, v: 1 + i + 10 * v,
    "int": lambda i, v: 1 + i + 10 * v,
    "Milliseconds": lambda i, v: 100.5 + i + 10 * v,
    "bool": lambda i, v: v == 0,
    "str": lambda i, v: f"key-{i}-{v}",
    "Any": lambda i, v: (f"value-{i}", v),
    "tuple[LogEntry, ...]": lambda i, v: (LogEntry(1, 1, "x"),) * v,
    "Configuration | None": lambda i, v: Configuration(2 + v, 150.0, v),
    "ConfigStatus | None": lambda i, v: ConfigStatus(v, 150.0, v),
}
NUMERIC = {"Term", "LogIndex", "ServerId", "int", "Milliseconds"}
BAD_NUMBERS = (-1, 0, -0.5, math.nan, math.inf)


def sample_kwargs(cls: type, variant: int) -> dict:
    kwargs = {}
    for i, f in enumerate(dataclasses.fields(cls)):
        assert f.type in SAMPLES, f"add a sample for field type {f.type!r}"
        kwargs[f.name] = SAMPLES[f.type](i, variant)
    return kwargs


def field_values(obj) -> list:
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)]


def required_kwargs(cls: type) -> dict:
    sample = sample_kwargs(cls, 0)
    return {
        f.name: sample[f.name]
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }


def outcome(call):
    """``("ok", repr)`` of the result, or ``("raised", type, message)``."""
    try:
        value = call()
    except Exception as exc:  # the caller compares outcomes
        return ("raised", type(exc), str(exc))
    return ("ok", repr(value))


each_value_object = pytest.mark.parametrize(
    "cls", VALUE_OBJECTS, ids=[cls.__qualname__ for cls in VALUE_OBJECTS]
)


@each_value_object
class TestConstruction:
    def test_signature_matches_the_stock_dataclass(self, cls):
        assert inspect.signature(cls) == inspect.signature(twin_of(cls))
        assert [f.name for f in dataclasses.fields(cls)] == [
            f.name for f in dataclasses.fields(twin_of(cls))
        ]

    def test_positional_keyword_and_default_construction(self, cls):
        twin = twin_of(cls)
        for variant in (0, 1):
            kwargs = sample_kwargs(cls, variant)
            args = list(kwargs.values())
            assert outcome(lambda: cls(*args)) == outcome(lambda: twin(*args))
            assert outcome(lambda: cls(**kwargs)) == outcome(lambda: twin(**kwargs))
            assert field_values(cls(*args)) == field_values(twin(*args)) == args
            assert field_values(cls(**kwargs)) == args
        required = required_kwargs(cls)
        assert outcome(lambda: cls(**required)) == outcome(lambda: twin(**required))
        assert field_values(cls(**required)) == field_values(twin(**required))

    def test_default_factory_fills_an_omitted_field(self, cls):
        twin = twin_of(cls)
        kwargs = required_kwargs(cls)
        for f in dataclasses.fields(cls):
            if f.default_factory is not dataclasses.MISSING:
                assert getattr(cls(**kwargs), f.name) == f.default_factory()
                assert getattr(cls(**kwargs), f.name) == getattr(twin(**kwargs), f.name)

    def test_bad_arguments_raise_the_same_type_error(self, cls):
        twin = twin_of(cls)
        kwargs = sample_kwargs(cls, 0)
        first = next(iter(required_kwargs(cls)))
        missing = {name: value for name, value in kwargs.items() if name != first}
        for call in (
            lambda k: k(**missing),
            lambda k: k(**kwargs, unexpected=1),
            lambda k: k(*kwargs.values(), 1),
            lambda k: k(*kwargs.values(), **{first: kwargs[first]}),
        ):
            mine, stock = outcome(lambda: call(cls)), outcome(lambda: call(twin))
            assert mine == stock and stock[:2] == ("raised", TypeError)

    def test_post_init_failures_match(self, cls):
        twin = twin_of(cls)
        for f in dataclasses.fields(cls):
            if f.type not in NUMERIC:
                continue
            for bad in BAD_NUMBERS:
                kwargs = {**sample_kwargs(cls, 0), f.name: bad}
                assert outcome(lambda: cls(**kwargs)) == outcome(lambda: twin(**kwargs))


@each_value_object
class TestValueSemantics:
    def test_equality_hash_and_repr(self, cls):
        twin = twin_of(cls)
        a, a2, b = (cls(**sample_kwargs(cls, v)) for v in (0, 0, 1))
        ta, tb = (twin(**sample_kwargs(cls, v)) for v in (0, 1))
        assert a == a2 and a is not a2
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)
        assert hash(a) == hash(a2) == hash(ta)
        assert repr(a) == repr(ta) and repr(b) == repr(tb)
        assert (a == ta) is False

    def test_ordering(self, cls):
        twin = twin_of(cls)
        a, b = (cls(**sample_kwargs(cls, v)) for v in (0, 1))
        ta, tb = (twin(**sample_kwargs(cls, v)) for v in (0, 1))
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            for left, right, twin_left, twin_right in ((a, b, ta, tb), (b, a, tb, ta)):
                assert outcome(lambda: op(left, right)) == outcome(
                    lambda: op(twin_left, twin_right)
                )

    def test_pickle_copy_and_replace_round_trip(self, cls):
        a = cls(**sample_kwargs(cls, 0))
        changes = sample_kwargs(cls, 1)
        for clone in (
            pickle.loads(pickle.dumps(a)),
            copy.copy(a),
            copy.deepcopy(a),
            dataclasses.replace(a),
        ):
            assert type(clone) is cls and clone == a
        assert dataclasses.replace(a, **changes) == cls(**changes)
        name, value = next(iter(changes.items()))
        assert getattr(dataclasses.replace(a, **{name: value}), name) == value

    def test_frozen_on_set_and_delete(self, cls):
        a = cls(**sample_kwargs(cls, 0))
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, f.name, getattr(a, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(a, f.name)
        twin = twin_of(cls)
        ta = twin(**sample_kwargs(cls, 0))
        assert outcome(lambda: setattr(a, "not_a_field", 1)) == outcome(
            lambda: setattr(ta, "not_a_field", 1)
        )
        assert not hasattr(a, "__dict__")


class TestRegistry:
    def test_every_rpc_message_is_a_value_object(self):
        def subclasses(base):
            for sub in base.__subclasses__():
                # slots=True rebuilds a class; the class statement's own
                # object lingers in __subclasses__() but no module holds it.
                if getattr(sys.modules[sub.__module__], sub.__qualname__, None) is sub:
                    yield sub
                    yield from subclasses(sub)

        found = list(subclasses(RpcMessage))
        assert found and RpcMessage in VALUE_OBJECTS
        assert [sub for sub in found if not is_value_object(sub)] == []

    @pytest.mark.parametrize(
        "spec",
        [dataclasses.field(init=False, default=0), dataclasses.field(kw_only=True)],
    )
    def test_a_field_the_init_cannot_take_positionally_is_refused(self, spec):
        namespace = {"__annotations__": {"a": "int", "b": "int"}, "b": spec}
        with pytest.raises(TypeError, match=r"Record\.b must be a positional"):
            value_object(type("Record", (), namespace))

    def test_no_two_classes_share_an_init_code_object(self):
        codes = [vo.__init__.__code__ for vo in VALUE_OBJECTS]
        assert len(set(codes)) == len(codes)
        for vo in VALUE_OBJECTS:
            assert vo.__init__.__qualname__ == f"{vo.__qualname__}.__init__"
