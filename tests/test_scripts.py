"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture(scope="module")
def refinement_run():
    return _run_script("refinement_study.py", "--cells", "8", "16", "32")


def _refinement_tables(stdout):
    """Rows of the two tables as float lists: (cells, value[, order])."""
    return [[[float(cell) for cell in line.split()]
             for line in block.splitlines()[2:]]
            for block in stdout.strip().split("\n\n")]


def test_refinement_study_runs_and_labels_its_l2_errors(refinement_run):
    assert refinement_run.returncode == 0, refinement_run.stderr
    assert "L2 error" in refinement_run.stdout
    assert "Linf error" not in refinement_run.stdout


def test_refinement_study_closed_form_orders_are_second(refinement_run):
    closed_form, _ = _refinement_tables(refinement_run.stdout)
    assert [row[0] for row in closed_form] == [8, 16, 32]
    assert all(row[2] >= 1.9 for row in closed_form[1:])


def test_refinement_study_cauchy_distances_fall(refinement_run):
    _, cauchy = _refinement_tables(refinement_run.stdout)
    distances = [row[1] for row in cauchy]
    assert len(distances) == 2
    assert all(b < a for a, b in zip(distances, distances[1:]))


@pytest.mark.parametrize("cells", [["32", "16"], ["16"], ["16", "16"],
                                   ["0", "8"]],
                         ids=["decreasing", "single", "repeated", "zero"])
def test_refinement_study_rejects_bad_cells_as_usage(cells):
    done = _run_script("refinement_study.py", "--cells", *cells)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1] == (
        "refinement_study.py: error: --cells needs at least two strictly "
        "increasing positive counts")
