"""Byte-exact CLI outputs on small inputs, pinned in data/cli_golden.json.

Each case runs ``hyperec.cli.main`` in a fresh directory holding the inputs
below and records its exit code, stdout, stderr and every file it wrote.
``elapsed_ms`` values are masked; everything else must match byte for byte.
After an intended output change, rewrite the golden file with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import os
import re
import shutil
import sys
from pathlib import Path

import pytest

from hyperec import builders, designs
from hyperec.cli import main
from hyperec.hypergraph import format_hypergraph

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"

RANDOM = ["random", "--h", "3", "--m", "12", "--p", "0.5", "-n", "1", "--trials", "3", "--seed", "7"]
RANDOM_FAILING = ["random", "--h", "3", "--m", "9", "--p", "0.3", "-n", "2", "--trials", "2", "--seed", "1009"]

CASES = [
    ["check", "fig5.txt", "-n", "1"],
    ["check", "fig5.txt", "-n", "1", "--witnesses"],
    ["check", "fig5.txt", "-n", "2"],
    ["check", "fig5.txt", "-n", "9"],
    ["check", "fig5.txt", "-n", "1", "--json"],
    ["check", "fig5.txt", "-n", "1", "--json", "--witnesses"],
    ["check", "fig5.txt", "-n", "2", "--json"],
    ["check", "k3k3.txt", "-n", "2", "--witnesses", "--engine", "naive"],
    ["check", "hl4.txt", "-n", "2", "--json"],
    ["maxec", "k3k3.txt"],
    ["maxec", "k3k3.txt", "--json"],
    ["maxec", "hl4.txt"],
    ["maxec", "empty.txt"],
    ["maxec", "empty.txt", "--json"],
    ["construct", "fano", "-o", "out.txt"],
    ["construct", "mols", "-q", "4", "-o", "out.txt"],
    ["construct", "pg", "-q", "3", "-o", "out.txt"],
    ["construct", "inversive", "-q", "3", "-o", "out.txt"],
    ["construct", "mols", "-q", "6", "-o", "out.txt"],
    ["construct", "mols", "-q", "2", "-o", "out.txt"],
    ["construct", "pg", "-o", "out.txt"],
    ["build", "from-mols", "-i", "mols4.txt", "-o", "out.txt"],
    ["build", "from-mols", "-i", "mols4.txt", "-o", "out.txt", "--json"],
    ["build", "from-mols", "-i", "mols4.txt", "-o", "out.txt", "--h", "2"],
    ["build", "from-design", "-i", "fano.txt", "-o", "out.txt", "--h", "3"],
    ["build", "from-design", "-i", "pg3.txt", "-o", "out.txt", "--h", "3", "--json"],
    ["build", "from-design", "-i", "inv3.txt", "-o", "out.txt", "--h", "3"],
    ["build", "from-design", "-i", "inv3.txt", "-o", "out.txt", "--h", "3", "--json"],
    ["build", "from-design", "-i", "fano.txt", "-o", "out.txt"],
    ["build", "from-design", "-i", "fano.txt", "-o", "out.txt", "--h", "9"],
    RANDOM,
    RANDOM + ["--json"],
    RANDOM_FAILING,
    RANDOM_FAILING + ["--json"],
    ["random", "--h", "3", "--m", "12", "--p", "1.5", "-n", "1", "--trials", "3", "--seed", "7"],
    ["random", "--h", "3", "--m", "12", "--p", "0.5", "-n", "1", "--trials", "0", "--seed", "7"],
    ["random", "--h", "3", "--m", "12", "--p", "0.5", "-n", "0", "--trials", "3", "--seed", "7"],
    ["validate", "fano.txt"],
    ["validate", "fano.txt", "--json"],
    ["validate", "inv3.txt"],
    ["validate", "inv3.txt", "--json"],
    ["validate", "broken.txt"],
    ["validate", "broken.txt", "--json"],
    ["complement", "fig5.txt"],
    ["complement", "fig5.txt", "-o", "out.txt"],
    ["induce", "k3k3.txt", "--vertices", "0,1,3,4"],
    ["induce", "k3k3.txt", "--vertices", "0 2 4 6 8", "-o", "out.txt"],
    ["induce", "k3k3.txt", "--vertices", "1"],
    ["induce", "k3k3.txt", "--vertices", "0,x"],
    ["delete-vertex", "fig5.txt", "--vertex", "3"],
    ["delete-vertex", "k3k3.txt", "--vertex", "4", "-o", "out.txt"],
    ["delete-vertex", "fig5.txt", "--vertex", "7"],
    # parse errors: one per reader rule and per-format record check
    ["check", "missing.txt", "-n", "1"],
    ["check", "hg_token.txt", "-n", "1"],
    ["check", "hg_header.txt", "-n", "1"],
    ["check", "hg_noheader.txt", "-n", "1"],
    ["check", "hg_badheader.txt", "-n", "1"],
    ["check", "hg_width.txt", "-n", "1"],
    ["check", "hg_edge.txt", "-n", "1"],
    ["check", "hg_header_first.txt", "-n", "1"],
    ["validate", "missing.txt"],
    ["validate", "d_token.txt"],
    ["validate", "d_header.txt"],
    ["validate", "d_noheader.txt"],
    ["validate", "d_width.txt"],
    ["validate", "d_block.txt"],
    ["validate", "d_params.txt"],
    ["build", "from-mols", "-i", "missing.txt", "-o", "out.txt"],
    ["build", "from-mols", "-i", "m_token.txt", "-o", "out.txt"],
    ["build", "from-mols", "-i", "m_header.txt", "-o", "out.txt"],
    ["build", "from-mols", "-i", "m_noheader.txt", "-o", "out.txt"],
    ["build", "from-mols", "-i", "m_width.txt", "-o", "out.txt"],
    ["build", "from-mols", "-i", "m_rows.txt", "-o", "out.txt"],
    ["build", "from-mols", "-i", "m_latin.txt", "-o", "out.txt"],
    ["build", "from-design", "-i", "d_block.txt", "-o", "out.txt", "--h", "3"],
]

BAD_FILES = {
    "hg_token.txt": "3 4\n0 1 x\n",
    "hg_header.txt": "# comment first\n\n3 4 5\n0 1 2\n",
    "hg_noheader.txt": "# only a comment\n\n",
    "hg_badheader.txt": "# c\n1 4\n",
    "hg_width.txt": "3 4\n0 1 2\n0 1\n",
    "hg_edge.txt": "3 4\n0 1 2\n\n0 1 4\n",
    "hg_header_first.txt": "3\nx y\n",
    "d_token.txt": "2 7 3 1\n0 1 z\n",
    "d_header.txt": "2 7 3\n0 1 2\n",
    "d_noheader.txt": "",
    "d_width.txt": "2 7 3 1\n0 1 2\n# c\n0 1\n",
    "d_block.txt": "2 7 3 1\n0 1 7\n",
    "d_params.txt": "2 7 3 0\n0 1 2\n",
    "m_token.txt": "3 1\n0 1 2\n1 2 ?\n",
    "m_header.txt": "3\n",
    "m_noheader.txt": "# nothing\n",
    "m_width.txt": "3 1\n0 1\n",
    "m_rows.txt": "3 1\n0 1 2\n1 2 0\n",
    "m_latin.txt": "3 1\n0 1 2\n0 1 2\n2 0 1\n",
}


def make_inputs(root: Path) -> None:
    """Write every input file the cases read into ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    for name in ("fig5.txt", "k3k3.txt"):
        shutil.copy(DATA / name, root / name)
    fano = designs.fano()
    mols4 = designs.complete_mols(4)
    texts = {
        "empty.txt": "3 5\n",
        "fano.txt": designs.format_design(fano),
        "pg3.txt": designs.format_design(designs.projective_plane(3)),
        "inv3.txt": designs.format_design(designs.inversive_plane(3)),
        "broken.txt": designs.format_design(designs.Design(2, 7, 3, 1, fano.blocks[1:])),
        "mols4.txt": designs.format_mols(mols4),
        "hl4.txt": format_hypergraph(builders.build_from_mols(mols4).hypergraph),
        **BAD_FILES,
    }
    for name, text in texts.items():
        (root / name).write_text(text, encoding="utf-8")


def _mask(text: str) -> str:
    text = re.sub(r"elapsed_ms: [0-9.]+", "elapsed_ms: *", text)
    return re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": *', text)


def run_case(argv: list[str], workdir: Path) -> dict:
    """Run one command in ``workdir`` and return what it printed and wrote."""
    before = {p.name for p in workdir.iterdir()}
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    written = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(workdir.iterdir())
        if p.name not in before
    }
    return {"exit": code, "stdout": _mask(out.getvalue()), "stderr": err.getvalue(), "files": written}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_inputs")
    make_inputs(root)
    return root


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, inputs, golden, tmp_path):
    workdir = tmp_path / "w"
    shutil.copytree(inputs, workdir)
    assert run_case(argv, workdir) == golden[" ".join(argv)]


def test_golden_file_has_exactly_the_cases(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        inputs_dir = Path(tmp) / "inputs"
        make_inputs(inputs_dir)
        records = {}
        for i, argv in enumerate(CASES):
            workdir = Path(tmp) / f"case{i}"
            shutil.copytree(inputs_dir, workdir)
            records[" ".join(argv)] = run_case(argv, workdir)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
