"""The experiment scripts under scripts/ run end to end on small inputs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hyperec.builders import build_from_design
from hyperec.designs import fano

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


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, value", [
    ("min_edges_bound", lambda level: 10**9),
    ("min_vertices_bound", lambda level, h: 10**9),
    ("max_ec", lambda hg, threads: 0),  # below fano-h3's guaranteed level 1
])
def test_certify_fails_an_instance_on_each_bound(capsys, monkeypatch, name, value):
    """A bound that does not hold fails the instance, also under ``python -O``,
    and fano-h3 is held to its guaranteed level like every other instance."""
    certify = load_script("certify_constructions.py")
    monkeypatch.setattr(certify, name, value)
    assert not certify.certify("fano-h3", build_from_design(fano(), 3), 1, False)
    assert capsys.readouterr().out.splitlines()[-2] == "status: FAILED"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_random_ec_experiment_small_sweep(threads):
    """``--threads 2`` runs each trial's check in a process pool."""
    proc = run_script("random_ec_experiment.py", "--sizes", "8,10", "--trials", "3",
                      "--threads", threads)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[-2:]]
    assert [row[0] for row in rows] == ["8", "10"]
    assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)


@pytest.mark.parametrize("argv", [
    ("--sizes", "2", "-n", "2"),  # below h = 3
    ("--sizes", "10,4", "-n", "4"),  # 4 is not above n
    ("--sizes", "10,x"),
    ("--trials", "0"),
    ("--trials", "4194305"),  # one verdict more than the limit holds
    ("--threads", "0"),
    ("--p", "1.0"),
    ("-n", "0"),
], ids=["size-below-h", "size-not-above-n", "size-not-int", "no-trials", "trials-over-limit",
        "no-threads", "p-of-1", "n-of-0"])
def test_random_ec_experiment_refuses_bad_input_before_the_header(capsys, monkeypatch, argv):
    """Each size, the trial count and the model's arguments are checked
    before the first line: bad input exits 2 with a usage message and
    prints nothing on stdout."""
    experiment = load_script("random_ec_experiment.py")
    monkeypatch.setattr(sys, "argv", ["random_ec_experiment.py", "--sizes", "8", *argv])
    with pytest.raises(SystemExit) as exited:
        experiment.main()
    out, err = capsys.readouterr()
    assert (exited.value.code, out) == (2, "")
    assert "random_ec_experiment.py: error: " in err
