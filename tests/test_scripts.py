"""The experiment scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_certify_constructions_without_sweep():
    proc = run_script("certify_constructions.py", "--skip-sweep")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "overall: ok"
    assert "status: FAILED" not in proc.stdout


@pytest.mark.parametrize("threads", ["1", "2"])
def test_random_ec_experiment_small_sweep(threads):
    """``--threads 2`` runs each trial's check in a process pool."""
    proc = run_script("random_ec_experiment.py", "--sizes", "8,10", "--trials", "3",
                      "--threads", threads)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[-2:]]
    assert [row[0] for row in rows] == ["8", "10"]
    assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)
