"""Import hygiene: every name a varlab module imports at module level is
read somewhere in that module (``from __future__`` imports are exempt), and
every module-level function or class is read by a program path."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "varlab").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

#: module-level definitions that no program path reads, each with its reason
UNREAD_BY_DESIGN = {
    "ball_integral": "one level of the radial witness by its own quadrature: "
                     "the reference route the witness table is tested against",
}


def _unread_imports(path: Path) -> list:
    """`file:line name` for each module-level import whose name is never read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line} {name}"
            for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_sources_found():
    assert {"cli.py", "grid.py", "solver.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_level_imports_are_read(path):
    assert _unread_imports(path) == []


def _loaded_names(node: ast.AST) -> set:
    return {sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


def _unread_definitions() -> list:
    """`file:line name` for each module-level def or class of varlab that no
    module-level statement of varlab or scripts/ reads, apart from its own."""
    statements = [(path, stmt) for path in SOURCES + SCRIPTS
                  for stmt in ast.parse(path.read_text(encoding="utf-8"),
                                        filename=str(path)).body]
    reads = [_loaded_names(stmt) for _, stmt in statements]
    unread = []
    for i, (path, stmt) in enumerate(statements):
        if (path in SOURCES and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and stmt.name not in UNREAD_BY_DESIGN
                and not any(stmt.name in names
                            for j, names in enumerate(reads) if j != i)):
            unread.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    return unread


def test_module_level_definitions_are_read_by_a_program_path():
    assert _unread_definitions() == []
