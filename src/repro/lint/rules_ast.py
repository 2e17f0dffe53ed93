"""The AST determinism rules (``D1``-``D4``).

Each rule is a function ``(path, rel_path, tree) -> list[Finding]`` driven
by its own :class:`ast.NodeVisitor`, scoped by the allowlists below.  Paths
are matched against the *package-relative* path of each linted file
(``repro/obs/progress.py``); files that do not live under a ``repro``
package root (e.g. test fixtures in a temp directory) are never allowlisted
and are in scope for every rule, so the strictest reading applies to
unknown code.

The rules are deliberately
heuristic -- a linter cannot type-infer arbitrary Python -- but every
heuristic errs toward the failure modes this repo has actually shipped:
PR 1's scheduler relied on insertion order, PR 2's ``run_many`` derived
sweep seeds from a locally-constructed ``random.Random(seed)`` and drifted
from the paired design, and the (since deleted) asyncio transport defaulted
to an *unseeded* RNG.
"""

from __future__ import annotations

import ast

from repro.lint.model import Finding

__all__ = [
    "check_rng_construction",
    "check_set_iteration",
    "check_wall_clock",
    "check_wall_clock_waits",
]


#: D1/D4 -- module prefixes allowed to read the wall clock and wait on it:
#: the Redis adapter models a live deployment, and the observability layer's
#: progress/profiling modules report wall-clock rates and phase timings by
#: definition.  Deliberately *files*, not the whole ``repro/obs/`` package:
#: telemetry and trace modules measure simulated facts and stay under the
#: full determinism rules.
_WALL_CLOCK_ALLOWED = (
    "repro/adapters/",
    "repro/obs/profiling.py",
    "repro/obs/progress.py",
)
#: D2 -- modules allowed to construct ``random.Random`` directly (the
#: derivation helpers themselves live here).
_RNG_CONSTRUCTION_ALLOWED = ("repro/common/rng.py",)
#: D2 -- call names accepted as seed-derivation helpers.
_DERIVATION_HELPERS = ("derive_seed", "derive_run_seed")
#: D3 -- module prefixes on the simulation path, where unordered ``set``
#: iteration feeding scheduling or RNG draws is the classic
#: workers=1-vs-N divergence.  Files outside any ``repro`` package are
#: always in scope.
_SET_ITERATION_SCOPE = (
    "repro/sim/",
    "repro/net/",
    "repro/raft/",
    "repro/escape/",
    "repro/chaos/",
    "repro/cluster/",
    "repro/zraft/",
)


def _allowed(rel_path: str | None, prefixes: tuple[str, ...]) -> bool:
    """Whether a package-relative path falls under an allowlist."""
    return rel_path is not None and rel_path.startswith(prefixes)


def _dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _tail(dotted: str, count: int = 2) -> str:
    """The last *count* components of a dotted name."""
    return ".".join(dotted.split(".")[-count:])


# --------------------------------------------------------------------------- #
# D1 -- wall-clock / entropy sources
# --------------------------------------------------------------------------- #
#: Forbidden calls, matched on the last two dotted components (so both
#: ``datetime.now(...)`` and ``datetime.datetime.now(...)`` hit).
_D1_FORBIDDEN_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
    }
)

#: ``from <module> import <name>`` pairs that smuggle the same sources in
#: under a bare name the call check cannot see.
_D1_FORBIDDEN_IMPORTS = {
    "time": frozenset(
        {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
         "perf_counter_ns", "process_time", "localtime", "gmtime", "ctime"}
    ),
    "os": frozenset({"urandom", "getrandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
    "secrets": frozenset(
        {"token_bytes", "token_hex", "token_urlsafe", "randbits",
         "randbelow", "choice"}
    ),
    "random": frozenset(
        {"random", "randint", "uniform", "choice", "choices", "shuffle",
         "sample", "seed", "getrandbits", "gauss", "expovariate",
         "randrange", "betavariate", "lognormvariate", "normalvariate"}
    ),
}


class _D1Visitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            tail = _tail(dotted)
            if tail in _D1_FORBIDDEN_CALLS:
                self.findings.append(
                    Finding(
                        self.path,
                        node.lineno,
                        "D1",
                        f"wall-clock/entropy source {dotted}() -- simulated "
                        "time comes from sim/clock.py and randomness from "
                        "common.rng seed derivation",
                    )
                )
            else:
                first, _, rest = dotted.partition(".")
                if first == "random" and rest and rest != "Random":
                    self.findings.append(
                        Finding(
                            self.path,
                            node.lineno,
                            "D1",
                            f"module-level {dotted}() draws from the global "
                            "unseeded RNG; build a stream via common.rng "
                            "instead",
                        )
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        forbidden = _D1_FORBIDDEN_IMPORTS.get(node.module or "", frozenset())
        for alias in node.names:
            if alias.name in forbidden:
                self.findings.append(
                    Finding(
                        self.path,
                        node.lineno,
                        "D1",
                        f"'from {node.module} import {alias.name}' smuggles a "
                        "wall-clock/entropy source in under a bare name",
                    )
                )
        self.generic_visit(node)


def check_wall_clock(path: str, rel_path: str | None, tree: ast.AST) -> list[Finding]:
    """D1: no wall-clock or entropy sources outside the allowlist."""
    if _allowed(rel_path, _WALL_CLOCK_ALLOWED):
        return []
    visitor = _D1Visitor(path)
    visitor.visit(tree)
    return visitor.findings


# --------------------------------------------------------------------------- #
# D2 -- RNG construction outside the derivation helpers
# --------------------------------------------------------------------------- #
class _D2Visitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []

    def _is_derived(self, seed_expr: ast.AST) -> bool:
        """Whether the seed expression calls a recognised derivation helper."""
        for node in ast.walk(seed_expr):
            if isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is not None:
                    leaf = dotted.split(".")[-1]
                    if leaf in _DERIVATION_HELPERS:
                        return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None and dotted.split(".")[-1] == "Random":
            head = dotted.split(".")[0]
            if head in ("random", "Random"):
                if not node.args and not node.keywords:
                    self.findings.append(
                        Finding(
                            self.path,
                            node.lineno,
                            "D2",
                            "unseeded random.Random() -- every RNG must be "
                            "seeded through a common.rng derivation helper",
                        )
                    )
                elif not node.args or not self._is_derived(node.args[0]):
                    self.findings.append(
                        Finding(
                            self.path,
                            node.lineno,
                            "D2",
                            "random.Random(...) seeded outside the common.rng "
                            "derivation helpers (derive_seed/derive_run_seed "
                            "or a SeedSequence stream); ad-hoc seeds drift "
                            "from the paired sweep design",
                        )
                    )
        self.generic_visit(node)


def check_rng_construction(
    path: str, rel_path: str | None, tree: ast.AST
) -> list[Finding]:
    """D2: ``random.Random`` only via the ``common.rng`` derivation helpers."""
    if _allowed(rel_path, _RNG_CONSTRUCTION_ALLOWED):
        return []
    visitor = _D2Visitor(path)
    visitor.visit(tree)
    return visitor.findings


# --------------------------------------------------------------------------- #
# D3 -- ordered consumption of unordered sets on the simulation path
# --------------------------------------------------------------------------- #
def _set_producing(node: ast.AST) -> bool:
    """Whether an expression evaluates to a ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted_name(node.func)
        return dotted in ("set", "frozenset")
    return False


def _set_annotation(node: ast.AST) -> bool:
    """Whether a type annotation names a set type (``set[ServerId]`` etc.)."""
    if isinstance(node, ast.Subscript):
        node = node.value
    dotted = _dotted_name(node)
    if dotted is None:
        return False
    return dotted.split(".")[-1] in ("set", "frozenset", "Set", "FrozenSet")


def _target_key(node: ast.AST) -> str | None:
    """A stable textual key for a tracked name: ``members`` / ``self._ids``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id == "self":
            return f"self.{node.attr}"
    return None


class _SetNameCollector(ast.NodeVisitor):
    """First pass: names assigned (or annotated as) set values in this file."""

    def __init__(self) -> None:
        self.set_names: set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if _set_producing(node.value):
            for target in node.targets:
                key = _target_key(target)
                if key is not None:
                    self.set_names.add(key)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _set_annotation(node.annotation) or (
            node.value is not None and _set_producing(node.value)
        ):
            key = _target_key(node.target)
            if key is not None:
                self.set_names.add(key)
        self.generic_visit(node)


#: Builtins whose call forces an *ordered* traversal of their argument.
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter", "reversed"})


class _D3Visitor(ast.NodeVisitor):
    def __init__(self, path: str, set_names: set[str]) -> None:
        self.path = path
        self.set_names = set_names
        self.findings: list[Finding] = []

    def _is_set_expr(self, node: ast.AST) -> bool:
        if _set_producing(node):
            return True
        key = _target_key(node)
        return key is not None and key in self.set_names

    def _flag(self, node: ast.AST, how: str) -> None:
        self.findings.append(
            Finding(
                self.path,
                node.lineno,
                "D3",
                f"{how} iterates a set in undefined order on the simulation "
                "path; wrap it in sorted(...) (unordered iteration feeding "
                "scheduling or RNG draws diverges between workers=1 and N)",
            )
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(node.iter, "for-loop")
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        for generator in node.generators:
            if self._is_set_expr(generator.iter):
                self._flag(generator.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension
    visit_DictComp = _check_comprehension

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A set built *from* a set stays unordered: no ordered traversal.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if (
            dotted in _ORDERED_CONSUMERS
            and len(node.args) == 1
            and self._is_set_expr(node.args[0])
        ):
            self._flag(node, f"{dotted}(...)")
        self.generic_visit(node)


def check_set_iteration(
    path: str, rel_path: str | None, tree: ast.AST
) -> list[Finding]:
    """D3: no bare iteration over set values in simulation-path modules.

    Tracks names assigned (or annotated as) ``set``/``frozenset`` values in
    the same file -- including ``self.x`` attributes -- and flags ordered
    traversals of them: ``for`` loops, comprehension generators, and
    ``list``/``tuple``/``enumerate``/``iter``/``reversed`` calls.  Membership
    tests, ``len``, set algebra, ``sorted(...)`` and conversions back into
    sets are all order-insensitive and stay legal.
    """
    if rel_path is not None and not rel_path.startswith(_SET_ITERATION_SCOPE):
        return []
    collector = _SetNameCollector()
    collector.visit(tree)
    visitor = _D3Visitor(path, collector.set_names)
    visitor.visit(tree)
    return visitor.findings


# --------------------------------------------------------------------------- #
# D4 -- wall-clock waits in simulated code
# --------------------------------------------------------------------------- #
_D4_FORBIDDEN_CALLS = frozenset(
    {
        "time.sleep",
        "asyncio.sleep",
        "asyncio.wait",
        "asyncio.wait_for",
        "asyncio.as_completed",
    }
)


class _D4Visitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None and _tail(dotted) in _D4_FORBIDDEN_CALLS:
            self.findings.append(
                Finding(
                    self.path,
                    node.lineno,
                    "D4",
                    f"wall-clock wait {dotted}() outside the wall-clock "
                    "allowlist; simulated time advances only through "
                    "sim/clock.py and the scheduler",
                )
            )
        self.generic_visit(node)


def check_wall_clock_waits(
    path: str, rel_path: str | None, tree: ast.AST
) -> list[Finding]:
    """D4: no ``time.sleep``/wall-clock asyncio waits outside the allowlist."""
    if _allowed(rel_path, _WALL_CLOCK_ALLOWED):
        return []
    visitor = _D4Visitor(path)
    visitor.visit(tree)
    return visitor.findings
