"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_refinement_study_runs_and_labels_its_l2_errors():
    done = _run_script("refinement_study.py", "--cells", "8", "16", "32")
    assert done.returncode == 0, done.stderr
    assert "L2 error" in done.stdout
    assert "Linf error" not in done.stdout


def test_divergence_table_runs():
    done = _run_script("divergence_table.py", "--n-max", "5")
    assert done.returncode == 0, done.stderr
    assert "gradient-seminorm growth over the table" in done.stdout
