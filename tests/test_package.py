"""The package's public names, its errors, and the modules each command loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperec
from hyperec import errors

SRC = Path(__file__).resolve().parent.parent / "src"


def _env() -> dict:
    """The environment with ``src`` first on ``PYTHONPATH``, for a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ``sorted(hyperec.__all__)`` from when the package imported every module eagerly.
PUBLIC = [
    "BuildResult", "CheckResult", "CheckStats", "CheckerUsageError", "Design", "DesignError",
    "EcFractionResult", "GaloisError", "GfField", "Hypergraph", "HypergraphError",
    "LatinSquare", "MolsSet", "RandomModel", "are_orthogonal", "build_from_design",
    "build_from_mols", "builders", "checker", "complete_hypergraph", "complete_mols",
    "correctly_joined", "count_blocks_containing_avoiding", "derive_seed", "design_params",
    "designs", "empty_hypergraph", "estimate_ec_fraction", "fano", "find_witness", "galois",
    "hypergraph", "inversive_plane", "is_latin", "is_nec", "lambda_ij", "make_field", "max_ec",
    "min_edges_bound", "min_vertices_bound", "new_hypergraph", "projective_plane", "randomhg",
    "read_hypergraph", "sample", "sample_trial", "union_bound", "union_bound_log",
    "validate_design", "write_hypergraph",
]

# Each library error, with the module that raises it and exports it too.
ERRORS = [
    ("hypergraph", "HypergraphError"),
    ("hypergraph", "HypergraphFormatError"),
    ("checker", "CheckerUsageError"),
    ("randomhg", "RandomModelError"),
    ("designs", "DesignError"),
    ("designs", "DesignFormatError"),
    ("galois", "GaloisError"),
]

MODULES = ["builders", "checker", "designs", "galois", "hypergraph", "randomhg"]
DESIGN_LAYER = ["fractions", "hyperec.builders", "hyperec.designs", "hyperec.galois"]
# The pool pickles its workers' results, so it loads ``pickle`` as it starts.
POOL_MODULES = ["pickle"]
# The pool is forked processes and pipes: no command loads an executor or
# ``multiprocessing``.
NEVER_LOADED = ["concurrent.futures", "multiprocessing"]


def test_public_names_are_kept_and_resolve():
    assert sorted(hyperec.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(hyperec, name)
    star: dict = {}
    exec("from hyperec import *", star)
    assert sorted(set(star) - {"__builtins__"}) == PUBLIC


def test_every_public_name_is_its_modules_own():
    """A module name is the module; any other name is the object that its
    defining module holds under that name."""
    for name in hyperec.__all__:
        value = getattr(hyperec, name)
        if name in MODULES:
            assert value is importlib.import_module(f"hyperec.{name}")
        else:
            assert value is getattr(sys.modules[value.__module__], name), name
    from hyperec import galois, make_field

    assert make_field is galois.make_field
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hyperec.no_such_name  # noqa: B018


def test_a_name_is_resolved_once(monkeypatch):
    """The first read of a name imports its module and keeps the object on
    the package, so a second read calls no import."""
    monkeypatch.delitem(vars(hyperec), "max_ec", raising=False)
    imported = []
    real = hyperec._import_module
    monkeypatch.setattr(hyperec, "_import_module", lambda name: imported.append(name) or real(name))
    first = hyperec.max_ec
    assert imported == ["hyperec.checker"]
    assert hyperec.max_ec is first is importlib.import_module("hyperec.checker").max_ec
    assert imported == ["hyperec.checker"]


# A fresh interpreter runs ``import hyperec`` and one statement, then prints
# the package's modules it has loaded.
LOADS = """
import json, sys
import hyperec
{statement}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "hyperec")))
"""


@pytest.mark.parametrize("statement, loaded", [
    pytest.param("", ["hyperec"], id="import"),
    pytest.param("hyperec.DesignError", ["hyperec", "hyperec.errors"], id="DesignError"),
    pytest.param("hyperec.CheckerUsageError, hyperec.GaloisError, hyperec.HypergraphError",
                 ["hyperec", "hyperec.errors"], id="every-error"),
    pytest.param("hyperec.is_nec",
                 ["hyperec", "hyperec.checker", "hyperec.errors", "hyperec.hypergraph"],
                 id="is_nec"),
])
def test_each_name_loads_only_its_module(statement, loaded):
    """``import hyperec`` loads no module of the package; an error name loads
    ``errors`` alone, and a checker name the checker and what it imports,
    neither ``randomhg`` nor the design layer."""
    done = subprocess.run([sys.executable, "-c", LOADS.format(statement=statement)],
                          env=_env(), capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(done.stdout) == loaded


@pytest.mark.parametrize("module, name", ERRORS, ids=[name for _, name in ERRORS])
def test_every_error_is_a_hyperec_error(module, name):
    cls = getattr(errors, name)
    assert issubclass(cls, errors.HyperecError) and issubclass(cls, ValueError)
    assert getattr(importlib.import_module(f"hyperec.{module}"), name) is cls


# Runs the CLI's commands in one fresh interpreter and prints, after each
# stage, which modules of the design layer and of the process pool it has
# loaded.  fig5 has m = 4, so its pooled n = 2 check starts one worker.
PROBE = """
import contextlib, io, json, sys
from hyperec import cli
fig5, out = sys.argv[1:]
watched = {watched!r}
stages = {{"import": [m for m in watched if m in sys.modules]}}
for stage, argv in (
        ("check", ["check", fig5, "-n", "1"]),
        ("maxec", ["maxec", fig5]),
        ("random", ["random", "--h", "3", "--m", "6", "--p", "0.5", "-n", "1", "--trials", "2",
                    "--seed", "7", "--threads", "1"]),
        ("pooled check", ["check", fig5, "-n", "2", "--threads", "2"]),
        ("construct", ["construct", "mols", "-q", "4", "-o", out]),
        ("build", ["build", "from-mols", "-i", out, "-o", out + ".hg"])):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    stages[stage] = [code, [m for m in watched if m in sys.modules]]
print(json.dumps(stages))
"""


def test_only_design_commands_load_the_design_layer(tmp_path, fig5_path):
    """The design layer loads with the first design command, ``pickle`` with
    the first pooled check, neither with ``import hyperec.cli``, and
    ``concurrent.futures`` and ``multiprocessing`` never."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(watched=DESIGN_LAYER + POOL_MODULES + NEVER_LOADED), fig5_path,
         str(tmp_path / "mols4.txt")],
        env=_env(), capture_output=True, text=True, timeout=60, check=True)
    stages = json.loads(done.stdout)
    assert stages == {
        "import": [],
        "check": [0, []],
        "maxec": [0, []],
        "random": [0, []],
        "pooled check": [1, POOL_MODULES],
        "construct": [0, ["fractions", "hyperec.designs", "hyperec.galois"] + POOL_MODULES],
        "build": [0, DESIGN_LAYER + POOL_MODULES],
    }
