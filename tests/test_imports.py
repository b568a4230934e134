"""Import hygiene: every name a varlab module imports at module level is
read somewhere in that module (``from __future__`` imports are exempt)."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "varlab")
                 .glob("*.py"))


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
