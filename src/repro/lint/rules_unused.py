"""Rule ``U1``: a name in the package that nothing but its tests uses.

The rule is by name and one level deep.  Its scope is every top-level
function, class and module constant of the package, plus every public method
or property of a top-level class; dunders and the ``visit_*`` methods of
``ast.NodeVisitor`` subclasses are called by machinery, not by name.

A *use* is a read through an ``ast.Name`` or ``ast.Attribute``, or an
identifier inside a string constant -- which covers engine paths such as
``"repro.net.flatnet:FlatNetwork"`` and ``Column`` paths such as
``"total_summary.mean"``.  Uses count anywhere in the package and in the
reference directories (``examples/``, ``bench/``) except inside a definition
of the same name, in a docstring, in an import or in ``__all__``; a ``tests``
directory never counts.  A name with no use is reported at its ``def`` /
``class`` line.  Deleting one hit can expose another, so the gate holds the
tree at a fixed point.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Sequence

from repro.lint.model import Finding, LintConfig

__all__ = ["check_unused_names", "find_unused_names"]

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _python_files(directory: Path) -> list[Path]:
    return sorted(
        path
        for path in directory.rglob("*.py")
        if "tests" not in path.relative_to(directory).parts
    )


def _span(node: ast.stmt) -> tuple[int, int]:
    decorators = getattr(node, "decorator_list", ())
    start = min([node.lineno] + [item.lineno for item in decorators])
    return start, node.end_lineno or node.lineno


def _definitions(tree: ast.Module) -> Iterator[tuple[str, ast.stmt]]:
    """``(qualified name, node)`` for every definition in U1's scope."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            visitor = any(
                ast.unparse(base).endswith("NodeVisitor") for base in node.bases
            )
            for item in node.body:
                if (
                    isinstance(item, _FUNCTIONS)
                    and not item.name.startswith("_")
                    and not (visitor and item.name.startswith("visit_"))
                ):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def _uses(tree: ast.Module) -> Iterator[tuple[str, int]]:
    """``(identifier, line)`` for every use in *tree* that U1 counts."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, *_FUNCTIONS)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                skipped.add(id(first.value))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if node.value is not None and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in targets
            ):
                skipped.update(id(child) for child in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            for word in _IDENTIFIER.findall(node.value):
                yield word, node.lineno


def find_unused_names(
    package_dir: Path, reference_dirs: Sequence[Path]
) -> list[Finding]:
    """U1 over the package at *package_dir*, with *reference_dirs* as roots.

    Reference directories that do not exist are skipped.
    """
    definitions: list[tuple[str, str, ast.stmt]] = []
    spans: dict[tuple[str, str], list[tuple[int, int]]] = {}
    trees: list[tuple[str, ast.Module]] = []
    for directory in [package_dir, *reference_dirs]:
        if not directory.is_dir():
            continue
        for path in _python_files(directory):
            text_path = str(path)
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"), filename=text_path)
            except SyntaxError:
                continue  # E1 reports it
            trees.append((text_path, tree))
            if directory != package_dir:
                continue
            for qualified, node in _definitions(tree):
                name = qualified.rpartition(".")[2]
                definitions.append((qualified, text_path, node))
                spans.setdefault((name, text_path), []).append(_span(node))
    names = {name for name, _ in spans}
    used: set[str] = set()
    for text_path, tree in trees:
        for name, line in _uses(tree):
            if name in names and name not in used and not any(
                start <= line <= end for start, end in spans.get((name, text_path), ())
            ):
                used.add(name)
    return [
        Finding(
            text_path,
            node.lineno,
            "U1",
            f"{qualified} has no use outside tests/ (nothing in the package, "
            "examples/ or bench/ reads it)",
        )
        for qualified, text_path, node in definitions
        if qualified.rpartition(".")[2] not in used
    ]


def check_unused_names(config: LintConfig) -> list[Finding]:
    """U1 over this ``repro`` package, with the repository's reference
    directories (siblings of ``src/``) as roots."""
    package_dir = Path(__file__).resolve().parents[1]
    repo_root = package_dir.parents[1]
    return find_unused_names(
        package_dir,
        [repo_root / name for name in ("examples", "bench")],
    )
