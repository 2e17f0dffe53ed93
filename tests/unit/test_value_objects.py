"""Every frozen value type behaves exactly like its stock dataclass twin.

``repro.common.frozen.value_object`` is the only decorator for frozen value
types: field handling is the stdlib's, the ``__init__`` is generated (one
compiled function per class) and every other method is a shared closure.  The
classes are found by walking ``repro`` (no list kept here): every frozen
dataclass.  Each is compared with its twin, a stock
``@dataclass(frozen=True, order=..., slots=...)`` subclass that redeclares
nothing, so the stdlib generates all of its methods over the same fields,
defaults and ``__post_init__``: signature, construction, validation,
equality, hashing, ``repr``, ordering, pickling, ``copy``, ``replace`` and
immutability must all read the same.

The values compared come from the registries first (registered specs, chaos
plans and their events, workloads, catalog conditions, lint rules, and each
experiment's quick-grid scenarios, walked field by field, plus two telemetry
episodes of the smallest quick-grid scenario of each kind for the
measurements), then from construction with no arguments, then from the
annotation sample table below.
"""

from __future__ import annotations

import builtins
import copy
import dataclasses
import dis
import functools
import importlib
import inspect
import math
import operator
import pickle
import pkgutil
import sys
from collections.abc import Mapping

import pytest

import repro
from repro.cluster.scenarios import Scenario
from repro.common.config import RaftTimeoutConfig, ScaParameters
from repro.common.frozen import FrozenDict, value_object
from repro.escape.configuration import ConfigStatus, Configuration
from repro.experiments.runner import SweepItem
from repro.lint.engine import RULES, Finding
from repro.raft.messages import RpcMessage
from repro.storage.log import LogEntry

from helpers import ConstantLatency, load_registries


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


def is_frozen_dataclass(cls: type) -> bool:
    return dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen


def is_value_object(cls: type) -> bool:
    """Decorated: a frozen dataclass built with ``init=False`` that has its own
    ``__init__`` all the same (the one ``value_object`` attaches)."""
    return (
        is_frozen_dataclass(cls)
        and not cls.__dataclass_params__.init
        and "__init__" in vars(cls)
    )


ALL_CLASSES = _all_classes()
VALUE_TYPES = [cls for cls in ALL_CLASSES if is_frozen_dataclass(cls)]

#: Methods the stdlib generates for a frozen dataclass.
GENERATED = (
    "__init__",
    "__repr__",
    "__eq__",
    "__hash__",
    "__lt__",
    "__le__",
    "__gt__",
    "__ge__",
    "__setattr__",
    "__delattr__",
)


def _written_in_body(cls: type, name: str) -> bool:
    """Whether ``vars(cls)[name]`` is a method of the class statement."""
    method = vars(cls).get(name)
    if not callable(method):
        return False
    code = getattr(inspect.unwrap(method), "__code__", None)
    return code is not None and code.co_filename == sys.modules[cls.__module__].__file__


@functools.cache
def twin_of(cls: type) -> type:
    """The stock frozen dataclass over *cls*'s fields: a subclass, so that
    ``__post_init__`` (``super()`` included) is the same function."""
    params = cls.__dataclass_params__
    # A method written in the class body is what the stock decorator keeps.
    body = {name: vars(cls)[name] for name in GENERATED if _written_in_body(cls, name)}
    twin = dataclasses.dataclass(
        frozen=True, order=params.order, slots="__slots__" in vars(cls)
    )(type(cls.__name__, (cls,), body))
    twin.__qualname__ = cls.__qualname__
    return twin


@value_object(order=True)
class FieldOptions:
    """Every per-field option a value type may use, in one class."""

    key: int
    note: str = dataclasses.field(default="n", compare=False)
    tag: str = dataclasses.field(default="t", hash=False)
    hidden: str = dataclasses.field(default="h", repr=False)
    extra: tuple = dataclasses.field(default_factory=tuple)
    late: int = dataclasses.field(default=0, kw_only=True)


@value_object
class ExplicitHash:
    """A class-body ``__hash__`` wins over the generated one."""

    key: int

    def __hash__(self) -> int:
        return 7


#: Value types defined here for the options no ``repro`` class uses yet, and
#: the tests' own latency model.
LOCAL_TYPES = [FieldOptions, ExplicitHash, ConstantLatency]


# Two distinct values per annotation, varied by field position so that two
# fields of one type never hold the same value.
SAMPLES = {
    "Term": lambda i, v: 1 + i + 10 * v,
    "LogIndex": lambda i, v: 1 + i + 10 * v,
    "ServerId": lambda i, v: 1 + i + 10 * v,
    "int": lambda i, v: 1 + i + 10 * v,
    "Milliseconds": lambda i, v: 100.5 + i + 10 * v,
    "float": lambda i, v: 0.25 + i / 100 + v / 10,
    "bool": lambda i, v: v == 0,
    "str": lambda i, v: f"key-{i}-{v}",
    "Any": lambda i, v: (f"value-{i}", v),
    "object": lambda i, v: (f"value-{i}", v),
    "int | None": lambda i, v: None if v else i,
    "ServerId | None": lambda i, v: None if v else 1 + i,
    "Term | None": lambda i, v: None if v else 1 + i,
    "dict[str, object]": lambda i, v: {f"k{i}": v},
    "dict[str, float]": lambda i, v: {f"k{i}": v + 0.5},
    "dict[str, Any]": lambda i, v: {f"k{i}": v},
    "Mapping[str, object]": lambda i, v: {f"k{i}": v},
    "Mapping[str, float]": lambda i, v: {f"k{i}": v + 0.5},
    "Mapping[str, int]": lambda i, v: FrozenDict({f"k{i}": v}),
    "Mapping[str, _HistState]": lambda i, v: FrozenDict(),
    "tuple[Milliseconds, ...]": lambda i, v: (100.5 + i,) * (v + 1),
    "tuple[Milliseconds, Milliseconds]": lambda i, v: (100.5 + i, 200.5 + i + v),
    "tuple[tuple[Milliseconds, Milliseconds], ...]": lambda i, v: ((1.5, 2.5 + i),) * v,
    "tuple[Interval, ...]": lambda i, v: ((1.5, 2.5 + i),) * v,
    "tuple[str, ...]": lambda i, v: (f"key-{i}",) * v,
    "tuple[ServerId, ...]": lambda i, v: (1, 2, 3 + v),
    "tuple[SweepItem, ...]": lambda i, v: (SweepItem(f"label-{i}", v, 7),) * v,
    "Mapping[ServerId, str]": lambda i, v: {1: "eu", 2: f"region-{v}"},
    "Mapping[str, tuple]": lambda i, v: {f"k{i}": (v,)},
    "Callable[..., str]": lambda i, v: (str, repr)[v],
    "tuple[Finding, ...]": lambda i, v: (Finding("f.py", 1 + i, "D1", "m"),) * v,
    "tuple": lambda i, v: (i,) * v,
    "tuple[LogEntry, ...]": lambda i, v: (LogEntry(1, 1, "x"),) * v,
    "RaftTimeoutConfig": lambda i, v: RaftTimeoutConfig(),
    "ScaParameters": lambda i, v: ScaParameters(),
    "Configuration | None": lambda i, v: Configuration(2 + v, 150.0, v),
    "ConfigStatus | None": lambda i, v: ConfigStatus(v, 150.0, v),
}
NUMERIC = (int, float)
BAD_NUMBERS = (-1, 0, -0.5, math.nan, math.inf)


def sample_kwargs(cls: type, variant: int) -> dict | None:
    """Field values from the sample table, or ``None`` if it lacks a type."""
    fields = dataclasses.fields(cls)
    if any(f.type not in SAMPLES for f in fields):
        return None
    return {f.name: SAMPLES[f.type](i, variant) for i, f in enumerate(fields)}


def _registry_values() -> dict[type, dict[str, object]]:
    """Every dataclass instance reachable from the registries, by type and repr.

    The smallest quick-grid scenario of each kind also runs two episodes with
    telemetry, for the measurements (whose fields must agree with each other).
    """
    roots: list[object] = [*RULES]
    scenarios: dict[type, object] = {}
    for registry, entries in load_registries().items():
        for _, spec in entries:
            roots.append(spec)
            if registry == "chaos-plans":
                roots.append(spec.build(horizon_ms=30_000.0, seed=0))
            if registry == "experiments":
                for scenario in spec.build_scenarios(**spec.quick_params).values():
                    roots.append(scenario)
                    smallest = scenarios.get(type(scenario), scenario)
                    if isinstance(scenario, Scenario) and (
                        scenario.cluster_size <= smallest.cluster_size
                    ):
                        scenarios[type(scenario)] = scenario
    roots += [
        dataclasses.replace(scenario, telemetry=True).run(seed)
        for scenario in scenarios.values()
        for seed in (0, 1)
    ]
    found: dict[type, dict[str, object]] = {}
    seen: set[int] = set()
    stack = roots[::-1]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            found.setdefault(type(value), {}).setdefault(repr(value), value)
            stack.extend(getattr(value, f.name) for f in dataclasses.fields(value))
        elif isinstance(value, (tuple, list, frozenset)):
            stack.extend(value)
        elif isinstance(value, Mapping):
            stack.extend(value.values())
    return found


REGISTRY_VALUES = _registry_values()


def values_of(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def field_values(obj) -> list:
    return list(values_of(obj).values())


@functools.cache
def instances(cls: type) -> tuple:
    """Up to two distinct valid instances of *cls* (see the module docstring).

    A class nothing builds (an abstract scenario base) takes the shared fields
    of a subclass's instance.
    """
    def sampled(variant: int):
        return cls(**sample_kwargs(cls, variant))

    def projected(sub):
        return cls(**{f.name: getattr(sub, f.name) for f in dataclasses.fields(cls)})

    found = dict(REGISTRY_VALUES.get(cls, {}))
    candidates = [cls, functools.partial(sampled, 0), functools.partial(sampled, 1)]
    candidates += [
        functools.partial(projected, sub)
        for subclass in VALUE_TYPES
        if subclass is not cls and issubclass(subclass, cls)
        for sub in REGISTRY_VALUES.get(subclass, {}).values()
    ]
    for build in candidates:
        if len(found) >= 2:
            break
        try:
            value = build()
        except Exception:  # a candidate the class refuses is no sample
            continue
        found.setdefault(repr(value), value)
    return tuple(found.values())[:2]


def split_args(cls: type, values: dict) -> tuple[list, dict]:
    """*values* as the stock ``__init__`` takes them: kw-only ones by keyword."""
    keyword = {f.name for f in dataclasses.fields(cls) if f.kw_only}
    return (
        [value for name, value in values.items() if name not in keyword],
        {name: value for name, value in values.items() if name in keyword},
    )


def required_kwargs(cls: type, values: dict) -> dict:
    return {
        f.name: values[f.name]
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


each_value_type = pytest.mark.parametrize(
    "cls",
    VALUE_TYPES + LOCAL_TYPES,
    ids=[cls.__qualname__ for cls in VALUE_TYPES + LOCAL_TYPES],
)


@each_value_type
class TestConstruction:
    def test_signature_matches_the_stock_dataclass(self, cls):
        twin = twin_of(cls)
        assert inspect.signature(cls) == inspect.signature(twin)
        assert [f.name for f in dataclasses.fields(cls)] == [
            f.name for f in dataclasses.fields(twin)
        ]
        assert cls.__match_args__ == twin.__match_args__

    def test_positional_keyword_and_default_construction(self, cls):
        twin = twin_of(cls)
        assert instances(cls), f"no registry value, default or sample builds {cls}"
        for instance in instances(cls):
            kwargs = values_of(instance)
            args, keywords = split_args(cls, kwargs)
            assert outcome(lambda: cls(*args, **keywords)) == outcome(
                lambda: twin(*args, **keywords)
            )
            assert outcome(lambda: cls(**kwargs)) == outcome(lambda: twin(**kwargs))
            built = cls(*args, **keywords)
            assert field_values(built) == field_values(twin(*args, **keywords))
            assert field_values(built) == list(kwargs.values())
            assert field_values(cls(**kwargs)) == list(kwargs.values())
            required = required_kwargs(cls, kwargs)
            assert outcome(lambda: cls(**required)) == outcome(lambda: twin(**required))

    def test_default_factory_fills_an_omitted_field(self, cls):
        twin = twin_of(cls)
        kwargs = required_kwargs(cls, values_of(instances(cls)[0]))
        for f in dataclasses.fields(cls):
            if f.default_factory is not dataclasses.MISSING:
                mine = outcome(lambda: getattr(cls(**kwargs), f.name))
                assert mine == outcome(lambda: getattr(twin(**kwargs), f.name))
                if mine[0] == "ok":
                    assert getattr(cls(**kwargs), f.name) == f.default_factory()

    def test_bad_arguments_raise_the_same_type_error(self, cls):
        twin = twin_of(cls)
        kwargs = values_of(instances(cls)[0])
        args, keywords = split_args(cls, kwargs)
        calls = [
            lambda k: k(**kwargs, unexpected=1),
            lambda k: k(*args, 1, **keywords),
        ]
        for first in list(required_kwargs(cls, kwargs))[:1]:
            missing = {name: value for name, value in kwargs.items() if name != first}
            calls.append(lambda k: k(**missing))
        if args:
            name = next(iter(kwargs))
            calls.append(lambda k: k(*args, **keywords, **{name: kwargs[name]}))
        for call in calls:
            mine, stock = outcome(lambda: call(cls)), outcome(lambda: call(twin))
            assert mine == stock and stock[:2] == ("raised", TypeError)

    def test_post_init_failures_match(self, cls):
        twin = twin_of(cls)
        for instance in instances(cls):
            valid = values_of(instance)
            for name, value in valid.items():
                if not isinstance(value, NUMERIC) or isinstance(value, bool):
                    continue
                for bad in BAD_NUMBERS:
                    kwargs = {**valid, name: bad}
                    mine = outcome(lambda: cls(**kwargs))
                    assert mine == outcome(lambda: twin(**kwargs))


@each_value_type
class TestValueSemantics:
    def test_equality_hash_and_repr(self, cls):
        twin = twin_of(cls)
        a, b = instances(cls)[0], instances(cls)[-1]
        a2 = cls(**values_of(a))
        ta, tb = twin(**values_of(a)), twin(**values_of(b))
        assert a == a2 and a is not a2
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))
        if outcome(lambda: hash(a))[0] == "ok":
            assert hash(a) == hash(a2)
        assert repr(a) == repr(ta) and repr(b) == repr(tb)
        assert (a == ta) is False
        # One field at a time from b: what each field takes part in.
        for name, value in values_of(b).items():
            changed = {**values_of(a), name: value}
            c = outcome(lambda: cls(**changed))
            assert c == outcome(lambda: twin(**changed))
            if c[0] == "ok":
                c, tc = cls(**changed), twin(**changed)
                assert (a == c) == (ta == tc)
                assert outcome(lambda: hash(a) == hash(c)) == outcome(
                    lambda: hash(ta) == hash(tc)
                )

    def test_ordering(self, cls):
        twin = twin_of(cls)
        a, b = instances(cls)[0], instances(cls)[-1]
        a2 = cls(**values_of(a))
        ta, ta2, tb = (twin(**values_of(value)) for value in (a, a2, b))
        pairs = ((a, b, ta, tb), (b, a, tb, ta), (a, a2, ta, ta2))
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            for left, right, twin_left, twin_right in pairs:
                assert outcome(lambda: op(left, right)) == outcome(
                    lambda: op(twin_left, twin_right)
                )

    def test_pickle_copy_and_replace_round_trip(self, cls):
        a, b = instances(cls)[0], instances(cls)[-1]
        clones = [copy.copy(a), copy.deepcopy(a), dataclasses.replace(a)]
        try:
            clones.append(pickle.loads(pickle.dumps(a)))
        except (pickle.PicklingError, AttributeError, TypeError):
            # Only a field value that cannot pickle (a lambda) may stop it.
            assert any(
                outcome(lambda: pickle.dumps(value))[0] == "raised"
                for value in field_values(a)
            )
        for clone in clones:
            assert type(clone) is cls and clone == a
        changes = values_of(b)
        assert dataclasses.replace(a, **changes) == cls(**changes)
        ta = twin_of(cls)(**values_of(a))
        for name, value in changes.items():
            assert outcome(lambda: dataclasses.replace(a, **{name: value})) == outcome(
                lambda: dataclasses.replace(ta, **{name: value})
            )

    def test_frozen_on_set_and_delete(self, cls):
        a = instances(cls)[0]
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, f.name, getattr(a, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(a, f.name)
        ta = twin_of(cls)(**values_of(a))
        assert outcome(lambda: setattr(a, "not_a_field", 1)) == outcome(
            lambda: setattr(ta, "not_a_field", 1)
        )
        assert outcome(lambda: delattr(a, "not_a_field")) == outcome(
            lambda: delattr(ta, "not_a_field")
        )
        assert hasattr(a, "__dict__") == hasattr(ta, "__dict__")


#: The slotted value types: an instance of one with three or more fields is
#: built as its class's mutable twin, which ``__init__`` switches back.
SLOTTED_TYPES = [cls for cls in VALUE_TYPES + LOCAL_TYPES if "__slots__" in vars(cls)]


def twins_of(cls: type) -> list[type]:
    """The subclasses of *cls* that carry its own name: its mutable twin."""
    return [
        sub
        for sub in cls.__subclasses__()
        if (sub.__module__, sub.__qualname__) == (cls.__module__, cls.__qualname__)
    ]


each_slotted_type = pytest.mark.parametrize(
    "cls", SLOTTED_TYPES, ids=[cls.__qualname__ for cls in SLOTTED_TYPES]
)


@each_slotted_type
class TestNoTwinSurvivesConstruction:
    def test_every_way_to_an_instance_yields_the_class_itself(self, cls):
        for value in instances(cls):
            kwargs = values_of(value)
            args, keywords = split_args(cls, kwargs)
            made = [
                value,
                cls(*args, **keywords),
                cls(**kwargs),
                dataclasses.replace(value),
                copy.copy(value),
                copy.deepcopy(value),
                pickle.loads(pickle.dumps(value)),
            ]
            assert [type(obj) for obj in made] == [cls] * len(made)
            # A stock frozen subclass builds through its own __init__, a
            # plain one through this class's, with no twin of its own.
            stock = dataclasses.dataclass(frozen=True)(type(cls.__name__, (cls,), {}))
            plain = type(cls.__name__, (cls,), {"__slots__": ()})
            for sub in (stock, plain):
                obj = sub(*args, **keywords)
                assert type(obj) is sub and values_of(obj) == kwargs
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, next(iter(kwargs)), None)

    def test_a_failing_post_init_sees_the_class_itself(self, cls):
        """``__post_init__`` runs after the switch back: what it raises from
        holds an instance of the class, never of its twin."""
        failed = 0
        for value in instances(cls):
            for name, field_value in values_of(value).items():
                if not isinstance(field_value, NUMERIC) or isinstance(field_value, bool):
                    continue
                for bad in BAD_NUMBERS:
                    try:
                        cls(**{**values_of(value), name: bad})
                    except Exception as exc:  # the frames it unwound are read
                        failed += 1
                        frame = exc.__traceback__
                        while frame is not None:
                            built = frame.tb_frame.f_locals.get("self")
                            if isinstance(built, cls):
                                assert type(built) is cls
                            frame = frame.tb_next
        if hasattr(cls, "__post_init__") and cls.__module__.startswith("repro."):
            assert failed

    def test_the_walk_finds_no_twin(self, cls):
        for twin in twins_of(cls):
            assert twin not in ALL_CLASSES
            assert not is_value_object(twin)
            module = sys.modules[cls.__module__]
            assert getattr(module, cls.__qualname__, cls) is cls

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11), reason="reads CPython 3.11's quickened stores"
    )
    def test_the_field_stores_specialize(self, cls):
        fields = dataclasses.fields(cls)
        kwargs = values_of(instances(cls)[0])
        for _ in range(64):
            cls(**kwargs)
        stores = {
            ins.argval: ins.opname
            for ins in dis.get_instructions(cls.__init__, adaptive=True)
            if ins.opname.startswith("STORE_ATTR")
        }
        if len(fields) < 3:
            assert stores == {} and twins_of(cls) == []
        else:
            assert len(twins_of(cls)) == 1
            assert {f.name: stores[f.name] for f in fields} == {
                f.name: "STORE_ATTR_SLOT" for f in fields
            }


class TestRegistry:
    def test_every_frozen_dataclass_is_a_value_object(self):
        assert len(VALUE_TYPES) >= 79
        assert [cls for cls in VALUE_TYPES if not is_value_object(cls)] == []

    def test_no_class_carries_stdlib_generated_methods(self):
        """The stdlib compiles its methods from source (``<string>``); the
        only compiled method a value type holds is its own ``__init__``."""
        compiled = {
            f"{cls.__qualname__}.{name}"
            for cls in ALL_CLASSES
            if is_frozen_dataclass(cls)
            for name, value in vars(cls).items()
            if inspect.isfunction(value)
            and inspect.unwrap(value).__code__.co_filename == "<string>"
            and value.__code__.co_name != f"{cls.__name__}__init__"
        }
        assert compiled == set()

    def test_every_rpc_message_is_a_value_object(self):
        def subclasses(base):
            for sub in base.__subclasses__():
                # slots=True rebuilds a class; the class statement's own
                # object lingers in __subclasses__() but no module holds it.
                if getattr(sys.modules[sub.__module__], sub.__qualname__, None) is sub:
                    yield sub
                    yield from subclasses(sub)

        found = [RpcMessage, *subclasses(RpcMessage)]
        assert len(found) > 1
        assert [sub for sub in found if not is_value_object(sub)] == []
        assert [sub for sub in found if "__slots__" not in vars(sub)] == []

    def test_an_init_false_field_is_refused(self):
        spec = dataclasses.field(init=False, default=0)
        namespace = {"__annotations__": {"a": "int", "b": "int"}, "b": spec}
        with pytest.raises(TypeError, match=r"Record\.b must be an init field"):
            value_object(type("Record", (), namespace))

    def test_kw_only_fields_follow_the_positional_ones(self):
        def record():
            namespace = {
                "__annotations__": {"a": "int", "b": "int", "c": "int"},
                "a": dataclasses.field(kw_only=True),
                "c": 3,
            }
            return type("Record", (), namespace)

        mine = value_object(record())
        stock = dataclasses.dataclass(frozen=True)(record())
        assert inspect.signature(mine) == inspect.signature(stock)
        assert field_values(mine(2, a=1)) == field_values(stock(2, a=1)) == [1, 2, 3]
        assert outcome(lambda: mine(1, 2)) == outcome(lambda: stock(1, 2))

    def test_a_default_before_a_required_field_is_refused_as_stock(self):
        namespace = {"__annotations__": {"a": "int", "b": "int"}, "a": 1}
        mine = outcome(lambda: value_object(type("Record", (), dict(namespace))))
        stock = outcome(
            lambda: dataclasses.dataclass(frozen=True)(
                type("Record", (), dict(namespace))
            )
        )
        assert mine == stock and stock[:2] == ("raised", TypeError)

    def test_a_class_body_method_wins(self):
        assert hash(ExplicitHash(1)) == hash(twin_of(ExplicitHash)(1)) == 7

    def test_a_recursive_value_reprs_as_stock(self):
        class Back:
            """Refers back to a value without a recursion guard of its own."""

            def __repr__(self) -> str:
                return f"Back({self.to!r})"

        back, twin_back = Back(), Back()
        back.to = FieldOptions(1, extra=(back,))
        twin_back.to = twin_of(FieldOptions)(1, extra=(twin_back,))
        assert repr(back.to) == repr(twin_back.to)
        assert "extra=(Back(...),)" in repr(back.to)

    @pytest.mark.parametrize("slots", [False, True])
    def test_a_class_compiles_one_function(self, monkeypatch, slots):
        compiled = []
        real_exec = builtins.exec

        def counting_exec(source, *args):
            compiled.append(source)
            return real_exec(source, *args)

        namespace = {"__annotations__": {"a": "int", "b": "str"}, "b": "x"}
        monkeypatch.setattr(builtins, "exec", counting_exec)
        cls = value_object(type("Record", (), namespace), order=True, slots=slots)
        monkeypatch.undo()
        assert len(compiled) == 1
        assert cls(1) < cls(2) and repr(cls(1)) == "Record(a=1, b='x')"

    def test_no_two_classes_share_an_init_code_object(self):
        codes = [vo.__init__.__code__ for vo in VALUE_TYPES]
        assert len(set(codes)) == len(codes)
        for vo in VALUE_TYPES:
            assert vo.__init__.__qualname__ == f"{vo.__qualname__}.__init__"
