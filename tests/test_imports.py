"""Import hygiene: every name a varlab module imports at module level is
read somewhere in that module (``from __future__`` imports are exempt),
every module-level function or class is read by a program path, and scipy
is loaded only by a command that factors a matrix."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "varlab").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


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
                and not any(stmt.name in names
                            for j, names in enumerate(reads) if j != i)):
            unread.append(f"{path.name}:{stmt.lineno} {stmt.name}")
    return unread


def test_module_level_definitions_are_read_by_a_program_path():
    assert _unread_definitions() == []


# ------------------------------------------------------------- cold start

#: Run in a fresh interpreter, in this order: import varlab.cli, then one
#: `main` call per case, printing the scipy factorization modules loaded
#: after each step as one JSON object (stdout also carries `--help`).
_COLD_START = """
import json, sys
from varlab.cli import main

def loaded():
    return sorted(m for m in sys.modules
                  if m == "scipy.linalg" or m.startswith("scipy.sparse"))

seen = {"import": loaded()}
for case, argv in json.loads(sys.argv[1]):
    main(argv)
    seen[case] = loaded()
print(json.dumps(seen))
"""

#: the commands that never factor come first: each must leave scipy unloaded
_NO_FACTOR = ("import", "counterexample", "certify", "help", "config-error")


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cold")
    runs = (
        ("counterexample", "counterexample",
         "subcommand: counterexample\ncounterexample: {n_max: 4}\n"),
        ("certify", "certify", "subcommand: certify\n"),
        ("help", "solve", None),
        ("config-error", "solve",
         "subcommand: solve\nsolver: {tolerance: 1}\n"),
        ("solve-1d", "solve",
         "subcommand: solve\ndomain: {dimension: 1, cells: 8}\n"),
        ("solve-2d", "solve",
         "subcommand: solve\ndomain: {dimension: 2, x_cells: 4, y_cells: 4}\n"),
    )
    cases = []
    for case, subcommand, doc in runs:
        if doc is None:
            cases.append((case, [subcommand, "--help"]))
            continue
        config = tmp / f"{case}.yaml"
        config.write_text(doc)
        cases.append((case, [subcommand, "--config", str(config),
                             "--out", str(tmp / case)]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _COLD_START, json.dumps(cases)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", _NO_FACTOR)
def test_commands_that_never_factor_load_no_scipy(cold_start, case):
    assert cold_start[case] == []


def test_a_1d_factor_loads_scipy_linalg_alone(cold_start):
    assert cold_start["solve-1d"] == ["scipy.linalg"]


def test_a_2d_factor_loads_scipy_sparse_linalg(cold_start):
    assert "scipy.sparse.linalg" not in cold_start["solve-1d"]
    assert "scipy.sparse.linalg" in cold_start["solve-2d"]
