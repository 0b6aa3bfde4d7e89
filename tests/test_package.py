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

DESIGN_LAYER = ["fractions", "hyperec.builders", "hyperec.designs", "hyperec.galois"]
POOL_MODULES = ["multiprocessing"]
# The pool is plain processes and pipes: no command loads the executor module.
NEVER_LOADED = ["concurrent.futures"]


def test_public_names_are_kept_and_resolve():
    assert sorted(hyperec.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(hyperec, name)
    star: dict = {}
    exec("from hyperec import *", star)
    assert sorted(set(star) - {"__builtins__"}) == PUBLIC


def test_design_layer_names_are_its_modules_own():
    assert hyperec.designs is importlib.import_module("hyperec.designs")
    assert hyperec.Design is hyperec.designs.Design
    assert hyperec.GfField is hyperec.galois.GfField
    assert hyperec.build_from_mols is hyperec.builders.build_from_mols
    from hyperec import galois, make_field

    assert make_field is galois.make_field
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        hyperec.no_such_name  # noqa: B018


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
    """The design layer loads with the first design command, ``multiprocessing``
    with the first pooled check, neither with ``import hyperec.cli``, and
    ``concurrent.futures`` never."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(watched=DESIGN_LAYER + POOL_MODULES + NEVER_LOADED), fig5_path,
         str(tmp_path / "mols4.txt")],
        env=env, capture_output=True, text=True, timeout=60, check=True)
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
