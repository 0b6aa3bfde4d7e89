import json
import math
import os
import random
import re
import resource
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from hyperec import builders, checker, cli, designs, errors, hypergraph, randomhg, read_hypergraph
from hyperec import new_hypergraph, write_hypergraph
from hyperec.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_dict(out):
    pairs = {}
    for line in out.strip().splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            pairs[key] = value
        elif line.endswith(":"):
            pairs[line[:-1]] = ""
    return pairs


# --- check / maxec


def test_check_holds(capsys, fig5_path):
    code, out, _ = run(capsys, "check", fig5_path, "-n", "1")
    assert code == 0
    report = report_dict(out)
    assert report["holds"] == "true"
    assert report["counterexample_S"] == "-"


def test_check_fails_with_counterexample(capsys, fig5_path):
    code, out, _ = run(capsys, "check", fig5_path, "-n", "2")
    assert code == 1
    report = report_dict(out)
    assert report["holds"] == "false"
    assert report["counterexample_S"] == "{0,1}"
    assert report["counterexample_T"] == "{}"


def test_check_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not numbers\n")
    code, _, err = run(capsys, "check", str(bad), "-n", "1")
    assert code == 2
    assert "line 1" in err


def test_check_n_below_one_is_usage_error(capsys, fig5_path):
    assert run(capsys, "check", fig5_path, "-n", "0") == (2, "", "error: n must be >= 1, got 0\n")


@pytest.mark.parametrize("error", [
    errors.HypergraphError("bad hypergraph"),
    errors.HypergraphFormatError(3, "bad hypergraph text"),
    errors.CheckerUsageError("bad check"),
    errors.RandomModelError("bad model"),
    errors.DesignError("bad design"),
    errors.DesignFormatError(4, "bad design text"),
    errors.GaloisError("bad field"),
], ids=lambda error: type(error).__name__)
def test_every_library_error_is_a_usage_error(capsys, monkeypatch, fig5_path, error):
    """``main`` catches the one base class, whichever layer raised."""
    def raising(*args, **kwargs):
        raise error

    monkeypatch.setattr(checker, "is_nec", raising)
    assert run(capsys, "check", fig5_path, "-n", "1") == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", ["check", "maxec", "random"])
def test_threads_below_one_is_usage_error(capsys, fig5_path, command, threads):
    argv = {
        "check": ["check", fig5_path, "-n", "1"],
        "maxec": ["maxec", fig5_path],
        "random": ["random", "--h", "3", "--m", "6", "--p", "0.5", "-n", "1", "--trials", "1", "--seed", "7"],
    }[command]
    code, out, err = run(capsys, *argv, "--threads", threads)
    assert (code, out, err) == (2, "", f"error: --threads must be >= 1, got {threads}\n")


def test_check_json_document(capsys, fig5_path):
    code, out, _ = run(capsys, "check", fig5_path, "-n", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    assert doc["edges"] == 2


def test_check_witnesses_listed(capsys, fig5_path):
    code, out, _ = run(capsys, "check", fig5_path, "-n", "1", "--witnesses")
    assert code == 0
    assert "witness: S={3} T={3} X={0,2}" in out


def test_naive_engine_matches_default(capsys, fig5_path, k3k3_path):
    for path, n in [(fig5_path, 1), (fig5_path, 2), (k3k3_path, 1), (k3k3_path, 2), (k3k3_path, 3)]:
        _, fast, _ = run(capsys, "check", path, "-n", str(n))
        _, slow, _ = run(capsys, "check", path, "-n", str(n), "--engine", "naive")
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("elapsed_ms")]
        assert strip(fast) == strip(slow)


def test_threads_do_not_change_output(capsys, k3k3_path):
    _, serial, _ = run(capsys, "check", k3k3_path, "-n", "2")
    _, parallel, _ = run(capsys, "check", k3k3_path, "-n", "2", "--threads", "4")
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("elapsed_ms")]
    assert strip(serial) == strip(parallel)


def test_maxec_rook_graph(capsys, k3k3_path):
    code, out, _ = run(capsys, "maxec", k3k3_path)
    assert code == 0
    report = report_dict(out)
    assert report["max_ec"] == "2"
    assert report["failed_at_n"] == "3"
    assert report["counterexample_S"].startswith("{")


def test_maxec_empty(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("3 5\n")
    code, out, _ = run(capsys, "maxec", str(empty))
    assert code == 0
    assert report_dict(out)["max_ec"] == "0"


# --- construct


def test_construct_pg2(capsys, tmp_path):
    out_path = tmp_path / "pg2.txt"
    code, _, _ = run(capsys, "construct", "pg", "-q", "2", "-o", str(out_path))
    assert code == 0
    design = designs.read_design(str(out_path))
    assert (design.t, design.v, design.k, design.lam) == (2, 7, 3, 1)
    assert designs.validate_design(design).valid


def test_construct_inversive3(capsys, tmp_path):
    out_path = tmp_path / "inv3.txt"
    code, _, _ = run(capsys, "construct", "inversive", "-q", "3", "-o", str(out_path))
    assert code == 0
    design = designs.read_design(str(out_path))
    assert (design.t, design.v, design.k, design.b) == (3, 10, 4, 30)


def test_construct_fano(capsys, tmp_path):
    out_path = tmp_path / "fano.txt"
    code, _, _ = run(capsys, "construct", "fano", "-o", str(out_path))
    assert code == 0
    assert designs.read_design(str(out_path)) == designs.fano()


def test_construct_rejects_non_prime_power(capsys, tmp_path):
    code, _, err = run(capsys, "construct", "mols", "-q", "6", "-o", str(tmp_path / "x"))
    assert code == 2
    assert "prime power" in err


def test_construct_field_over_cap_is_usage_error(capsys, tmp_path):
    out_path = tmp_path / "x"
    code, out, err = run(capsys, "construct", "mols", "-q", "131072", "-o", str(out_path))
    assert (code, out, err) == (2, "", "error: field order 2^17 exceeds cap 65536\n")
    assert not out_path.exists()


@pytest.mark.parametrize("kind", ["pg", "inversive"])  # mols -q 6 is in the golden file
def test_construct_refuses_an_order_that_is_not_a_prime_power(capsys, tmp_path, kind):
    out_path = tmp_path / "x"
    code, out, err = run(capsys, "construct", kind, "-q", "6", "-o", str(out_path))
    assert (code, out, err) == (2, "", "error: q=6 is not a prime power\n")
    assert not out_path.exists()


@pytest.mark.parametrize("kind", ["mols", "pg", "inversive"])
def test_construct_refuses_an_order_above_the_cap_before_factoring_it(
        capsys, tmp_path, kind, bounded_factoring):
    out_path = tmp_path / "x"
    code, out, err = run(capsys, "construct", kind, "-q", "1000000000000000003", "-o", str(out_path))
    assert (code, out, err) == (2, "", "error: field order 1000000000000000003 exceeds cap 65536\n")
    assert not out_path.exists()


def test_construct_requires_q(capsys, tmp_path):
    code, _, err = run(capsys, "construct", "pg", "-o", str(tmp_path / "x"))
    assert code == 2


# --- build


def test_build_from_mols_file(capsys, tmp_path):
    mols_path = tmp_path / "mols4.txt"
    hg_path = tmp_path / "hl.txt"
    run(capsys, "construct", "mols", "-q", "4", "-o", str(mols_path))
    code, out, _ = run(capsys, "build", "from-mols", "-i", str(mols_path), "-o", str(hg_path))
    assert code == 0
    report = report_dict(out)
    assert report["raw_edges"] == "80"
    assert report["unique_edges"] == "80"
    assert report["guaranteed_ec"] == "2"
    hg = read_hypergraph(str(hg_path))
    assert (hg.h, hg.m, hg.edge_count) == (3, 16, 80)


def test_build_from_mols_rejects_wrong_h(capsys, tmp_path):
    mols_path = tmp_path / "mols4.txt"
    run(capsys, "construct", "mols", "-q", "4", "-o", str(mols_path))
    code, _, err = run(
        capsys, "build", "from-mols", "-i", str(mols_path), "-o", str(tmp_path / "x"), "--h", "2"
    )
    assert code == 2


def test_build_from_design_fano(capsys, tmp_path):
    design_path = tmp_path / "fano.txt"
    hg_path = tmp_path / "fano_hg.txt"
    run(capsys, "construct", "fano", "-o", str(design_path))
    code, out, _ = run(
        capsys, "build", "from-design", "-i", str(design_path), "-o", str(hg_path), "--h", "3"
    )
    assert code == 0
    assert report_dict(out)["unique_edges"] == "7"


def test_build_from_design_pg3(capsys, tmp_path):
    design_path = tmp_path / "pg3.txt"
    hg_path = tmp_path / "pg3_hg.txt"
    run(capsys, "construct", "pg", "-q", "3", "-o", str(design_path))
    code, out, _ = run(
        capsys, "build", "from-design", "-i", str(design_path), "-o", str(hg_path), "--h", "3"
    )
    assert code == 0
    assert report_dict(out)["unique_edges"] == "52"


def test_build_h_out_of_range(capsys, tmp_path):
    design_path = tmp_path / "fano.txt"
    run(capsys, "construct", "fano", "-o", str(design_path))
    code, _, err = run(
        capsys, "build", "from-design", "-i", str(design_path), "-o", str(tmp_path / "x"), "--h", "9"
    )
    assert code == 2


# --- random


def test_random_report(capsys):
    args = ["random", "--h", "3", "--m", "12", "--p", "0.5", "-n", "1", "--trials", "3", "--seed", "7"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    report = report_dict(out)
    assert report["trials"] == "3"
    assert "union_bound" in report and "fraction" in report
    assert report["trial_0"] in ("true", "false")


def test_random_byte_identical(capsys):
    args = ["random", "--h", "3", "--m", "12", "--p", "0.5", "-n", "1", "--trials", "3", "--seed", "7"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_random_bound_above_the_largest_float():
    """The bound overflows a float (its log is about 879): the report shows no
    bound, in text as ``-`` and in JSON as ``null``, and the log exactly."""
    argv = ["random", "--h", "2", "--m", "1200", "--p", "1e-9", "-n", "300", "--trials", "1",
            "--seed", "7"]
    log = randomhg.union_bound_log(300, 2, 1200, 1e-9)
    code, out, err = run_isolated(*argv)
    assert (code, err) == (0, "")
    report = report_dict(out)
    assert (report["union_bound"], report["union_bound_log"]) == ("-", repr(log))
    code, out, err = run_isolated(*argv, "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=pytest.fail)  # no Infinity or NaN
    assert (doc["union_bound"], doc["union_bound_log"]) == (None, log)


def test_random_rejects_bad_p(capsys):
    code, _, err = run(
        capsys, "random", "--h", "3", "--m", "12", "--p", "1.5", "-n", "1", "--trials", "3", "--seed", "7"
    )
    assert code == 2


def test_random_rejects_zero_trials(capsys):
    code, _, err = run(
        capsys, "random", "--h", "3", "--m", "12", "--p", "0.5", "-n", "1", "--trials", "0", "--seed", "7"
    )
    assert code == 2


# --- validate


def test_validate_fano_file(capsys, tmp_path):
    path = tmp_path / "fano.txt"
    run(capsys, "construct", "fano", "-o", str(path))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    report = report_dict(out)
    assert report["valid"] == "true"
    assert report["b"] == "7"
    assert report["r_formula"] == "3"
    assert report["lambda_1_1"] == "2"


def test_validate_invalid_design_exits_1(capsys, tmp_path, fano):
    path = tmp_path / "broken.txt"
    path.write_text(designs.format_design(designs.Design(2, 7, 3, 1, fano.blocks[1:])))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert report_dict(out)["valid"] == "false"


def test_validate_parse_error_exits_2(capsys, tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("what\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


@pytest.mark.parametrize("argv, kind", [
    (["check", "{path}", "-n", "1"], "hypergraph"),
    (["validate", "{path}"], "design"),
    (["build", "from-mols", "-i", "{path}", "-o", "{path}.hg"], "mols"),
])
def test_input_that_is_not_utf8_exits_2(capsys, tmp_path, argv, kind):
    """A binary file is an unreadable input, exit 2, not a failed property, exit 1."""
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00\n3 4\n0 1 \xb0\xff\n")
    code, out, err = run(capsys, *(arg.format(path=path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {kind} {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_validate_t3_design(capsys, tmp_path):
    path = tmp_path / "inv3.txt"
    run(capsys, "construct", "inversive", "-q", "3", "-o", str(path))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    report = report_dict(out)
    assert report["valid"] == "true"
    assert report["lambda_0_0"] == "30"
    assert report["lambda_3_0"] == "1"


# --- core-structure subcommands and round trips


def test_complement_round_trip(capsys, fig5_path, tmp_path, two_triple):
    out_path = tmp_path / "comp.txt"
    code, _, _ = run(capsys, "complement", fig5_path, "-o", str(out_path))
    assert code == 0
    assert read_hypergraph(str(out_path)) == two_triple.complement()


@pytest.fixture(scope="module")
def hl8_path(tmp_path_factory, mols8_build):
    path = str(tmp_path_factory.mktemp("hl8") / "hl8.txt")
    write_hypergraph(path, mols8_build.hypergraph)
    return path


@pytest.mark.parametrize("argv, line", [
    pytest.param(["check", "-n", "2"], "holds: true", id="check"),
    pytest.param(["maxec"], "max_ec: 2", id="maxec"),
])
def test_mols8_reports_match_across_threads(capsys, hl8_path, argv, line):
    """mols8's (h-1)-shadow has 2016 sets, well within ``MAX_SETS``."""
    reports = []
    for threads in ("1", "2"):
        code, out, err = run(capsys, argv[0], hl8_path, *argv[1:], "--threads", threads)
        assert (code, err) == (0, "")
        reports.append(re.sub(r"elapsed_ms: [0-9.]+\n", "", out))
    assert line in reports[0].splitlines()
    assert reports[0] == reports[1]


def test_maxec_rerun_of_the_failing_level_keeps_the_worker(capsys, hl8_path, forks):
    """Levels 2 and 3 and the re-run of level 3 for the report are pooled
    checks on one worker, forked at level 2."""
    code, out, err = run(capsys, "maxec", hl8_path, "--threads", "2")
    assert (code, err) == (0, "")
    assert "max_ec: 2" in out.splitlines()
    assert len(forks) == 1


def test_over_size_limit_is_usage_error(capsys, hl8_path):
    code, out, err = run(capsys, "complement", hl8_path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "above the limit of 4194304" in err


def test_sparse_input_with_many_vertices_is_usage_error(capsys, tmp_path):
    """2000 disjoint triples on 100000 vertices: a 6000-set shadow, but 6e8 set-vertex pairs."""
    path = tmp_path / "sparse.txt"
    path.write_text("3 100000\n" + "".join(f"{3 * i} {3 * i + 1} {3 * i + 2}\n" for i in range(2000)))
    code, out, err = run(capsys, "check", str(path), "-n", "1", "--threads", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "above the limit of" in err


# The CLI with process pools disabled: a pool started is a traceback and exit 1.
NO_POOL = ("import sys; from hyperec import checker, cli; "
           "checker.ProcessPoolExecutor = None; sys.exit(cli.main())")


def run_isolated(*argv, timeout=60, address_space=None, pools=True):
    """The CLI in a child process group, killed whole when it outlasts ``timeout``,
    so a hung check fails the test and leaves no pool worker behind.

    ``address_space`` caps the child's virtual memory in bytes, as ``ulimit -v``
    does, so a listing the CLI should refuse fails the test with a
    ``MemoryError`` instead of filling the host.  With ``pools`` false the
    child may start no process pool."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cap = None if address_space is None else (
        lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)))
    entry = ["-m", "hyperec.cli"] if pools else ["-c", NO_POOL]
    proc = subprocess.Popen([sys.executable, *entry, *argv], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True, preexec_fn=cap)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"hyperec {' '.join(argv)} ran past {timeout} s")
    return proc.returncode, re.sub(r"elapsed_ms: [0-9.]+\n", "", out), err


def test_large_n_threaded_check_returns_the_serial_report(hl8_path):
    """Every process starts at its own first S-set: at n = 30 the second of
    two chunks begins past about 10^17 S-sets, and is not reached by stepping."""
    serial = run_isolated("check", hl8_path, "-n", "30", "--threads", "1")
    assert serial[0] == 1 and "counterexample_T: {0}" in serial[1].splitlines()
    assert run_isolated("check", hl8_path, "-n", "30", "--threads", "2") == serial


# A 12-byte file whose header alone declares 10^8 vertices: listing one entry
# per vertex would take gigabytes, so it is read under a 1 GiB cap.
WIDE = "3 100000000\n"
ONE_GIB = 1 << 30


def wide_refusal(path) -> str:
    return (f"error: cannot read hypergraph {path}: a hypergraph on 100000000 vertices "
            "is above the limit of 4194304\n")


@pytest.mark.parametrize("argv", [
    pytest.param(["check", "-n", "1", "--threads", "1"], id="check-threads-1"),
    pytest.param(["check", "-n", "1", "--threads", "2"], id="check-threads-2"),
    pytest.param(["maxec"], id="maxec"),
    pytest.param(["check", "-n", "1", "--engine", "naive"], id="check-naive"),
])
def test_vertex_count_of_the_header_alone_is_usage_error(tmp_path, argv):
    """The file has no edges, but the index's tables, the naive scan and every
    other per-vertex listing would hold 10^8 entries: the hypergraph itself is
    refused as it is read, so no table, listing or process pool is started."""
    path = tmp_path / "wide.txt"
    path.write_text(WIDE)
    code, out, err = run_isolated(argv[0], str(path), *argv[1:], address_space=ONE_GIB,
                                  pools=False)
    assert (code, out) == (2, "")
    assert err == wide_refusal(path)


def test_edgeless_check_fails_at_its_first_s_within_256_mib(tmp_path):
    """4 * 10^6 vertices in no edge are admitted and share their index
    entries, and S = (0,) fails at T = {0}: the scan lists no entry per
    vertex for that prefix, so the check ends within a 256 MiB cap."""
    path = tmp_path / "edgeless.txt"
    path.write_text("3 4000000\n")
    code, out, err = run_isolated("check", str(path), "-n", "1", address_space=256 << 20)
    assert (code, err) == (1, "")
    assert report_dict(out)["holds"] == "false"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_deep_edgeless_check_fails_within_256_mib(tmp_path, threads):
    """At n = 10^5 the walk to the first prefix is 10^5 deep: it keeps one
    prefix list, not a prefix tuple per depth, so the check fails at its
    first S-set, at T = {0}, within a 256 MiB cap, serially and pooled."""
    path = tmp_path / "deep.txt"
    path.write_text("3 200000\n")
    code, out, err = run_isolated("check", str(path), "-n", "100000", "--threads", threads,
                                  address_space=256 << 20)
    assert (code, err) == (1, "")
    report = report_dict(out)
    assert (report["holds"], report["counterexample_T"]) == ("false", "{0}")
    assert report["counterexample_S"] == "{" + ",".join(map(str, range(100000))) + "}"


def test_wide_edge_shadow_is_refused_as_it_is_listed_within_1_gib(tmp_path):
    """5000 edges of 200 of 203 vertices: their (h-1)-shadow would hold up to
    10^6 sets of 199 points.  It is counted after each column of edges, so
    the listing stops a few columns in, before any pool starts, and the
    check exits 2 within a 1 GiB cap instead of dying with a MemoryError."""
    rng, edges = random.Random(1), set()
    while len(edges) < 5000:
        edges.add(tuple(sorted(rng.sample(range(203), 200))))
    path = tmp_path / "wide-edges.txt"
    path.write_text(hypergraph.format_hypergraph(new_hypergraph(200, 203, edges)))
    code, out, err = run_isolated("check", str(path), "-n", "1", "--threads", "2",
                                  address_space=ONE_GIB, pools=False)
    assert (code, out) == (2, "")
    assert err.startswith("error: listing the (h-1)-shadow, ")
    assert err.endswith(" points, is above the limit of 4194304\n")


def test_validate_counts_its_lambda_table_from_the_header(tmp_path):
    """t = 20000 would list 200 030 001 entries lambda_i_j: refused before any."""
    path = tmp_path / "tall.txt"
    path.write_text("20000 20000 20000 1\n")
    code, out, err = run_isolated("validate", str(path), address_space=ONE_GIB, timeout=30)
    assert (code, out) == (2, "")
    assert err == ("error: listing the 200030001 entries lambda_i_j with i + j <= 20000 "
                   "is above the limit of 4194304\n")


def test_validate_reports_lambda_of_huge_blocks_at_once(tmp_path):
    """Blocks of 5 * 10^7 points among 10^8: each lambda_i_j is a product of
    at most t factors, not a ratio of binomials of about k, so the report is
    immediate.  None of the blocks is declared, so the design is invalid."""
    path = tmp_path / "huge-blocks.txt"
    path.write_text("2 100000000 50000000 1\n")
    code, out, err = run_isolated("validate", str(path), address_space=ONE_GIB, timeout=30)
    assert (code, err) == (1, "")
    report = report_dict(out)
    assert report["lambda_0_0"] == report["b_formula"] == "199999998/49999999"
    assert report["lambda_1_0"] == report["r_formula"] == "99999999/49999999"
    assert (report["lambda_1_1"], report["lambda_0_2"], report["lambda_2_0"]) == (
        "50000000/49999999", "1", "1")


@pytest.mark.parametrize("header, entries, digits", [
    ("800 1600 800 1", 321201, 5602),
    ("1600 3200 1600 1", 1282401, 12802),
    ("111 222 111 1", 6328, 668),  # v = 2t, k = t, lambda = 1: the least t refused
])
def test_validate_counts_the_digits_of_its_lambda_table(tmp_path, header, entries, digits):
    """Each lambda_i_j has a numerator of at most lambda * v^t and a
    denominator of at most k^t: their digits are counted from the header,
    before any entry is computed."""
    path = tmp_path / "digits.txt"
    path.write_text(header + "\n")
    code, out, err = run_isolated("validate", str(path), address_space=ONE_GIB, timeout=20)
    assert (code, out) == (2, "")
    assert err == (f"error: listing the {entries} entries lambda_i_j of up to {digits} digits "
                   f"each, {entries * digits} digits, is above the limit of 4194304\n")


def test_validate_lists_the_lambda_table_just_under_the_digit_limit(capsys, tmp_path):
    """t = 110: 6216 entries of up to 662 digits, 4 114 992 in all."""
    path = tmp_path / "digits.txt"
    path.write_text("110 220 110 1\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, err) == (1, "")
    report = report_dict(out)
    assert len(report) == 8 + 111 * 112 // 2
    assert (report["lambda_0_0"], report["lambda_110_0"]) == (str(math.comb(220, 110)), "1")


def test_check_counts_its_witness_log_before_the_index(tmp_path):
    """150 vertices at n = 3: C(150, 3) * 2^3 = 4 410 400 pairs (S, T) could
    be logged, so the check is refused before the index or a pool, however
    few the edges."""
    path = tmp_path / "wide.txt"
    path.write_text("3 150\n0 1 2\n")
    code, out, err = run_isolated("check", str(path), "-n", "3", "--witnesses", "--threads", "2",
                                  address_space=ONE_GIB, timeout=20, pools=False)
    assert (code, out) == (2, "")
    assert err == ("error: a witness log of C(150, 3) * 2^3 pairs (S, T) is above the limit "
                   "of 4194304\n")


def test_witness_log_count_is_not_computed_past_n_22(capsys, tmp_path):
    """C(200000, 100000) takes seconds to compute; from n = 23 on, 2^n alone
    is over the limit."""
    path = tmp_path / "deep.txt"
    path.write_text("3 200000\n")
    code, out, err = run(capsys, "check", str(path), "-n", "100000", "--witnesses")
    assert (code, out) == (2, "")
    assert err.endswith("2^100000 pairs (S, T) is above the limit of 4194304\n")


def test_witness_log_at_the_limit_is_recorded(capsys, monkeypatch, k3k3_path):
    """k3k3 at n = 1 could log C(m, 1) * 2 = 18 pairs, more than its shadow's
    9 points or its tables' 2 words: exactly the limit is allowed."""
    pairs = 2 * read_hypergraph(k3k3_path).m
    monkeypatch.setattr(hypergraph, "MAX_SETS", pairs)
    assert run(capsys, "check", k3k3_path, "-n", "1", "--witnesses")[0] == 0
    monkeypatch.setattr(hypergraph, "MAX_SETS", pairs - 1)
    code, out, err = run(capsys, "check", k3k3_path, "-n", "1", "--witnesses")
    assert (code, out) == (2, "") and err.endswith(f"above the limit of {pairs - 1}\n")


def test_random_counts_its_trials_before_the_first_sample(capsys, monkeypatch):
    def sample_trial(model, trial):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(randomhg, "sample_trial", sample_trial)
    code, out, err = run(capsys, "random", "--h", "2", "--m", "3", "--p", "0.5", "-n", "1",
                         "--trials", "4194305", "--seed", "1")
    assert (code, out) == (2, "")
    assert err == "error: recording the verdicts of 4194305 trials is above the limit of 4194304\n"


@pytest.mark.parametrize("argv, text, message", [
    (["validate", "{path}"], "# c\n2 7 3 0\n0 1 2\n", "line 2: lambda must be >= 1, got 0"),
    (["build", "from-mols", "-i", "{path}", "-o", "{out}"], "# c\n# c\n3 1\n0 1 2\n1 2 0\n",
     "line 3: expected 3 rows for 1 squares, got 2"),
    (["build", "from-mols", "-i", "{path}", "-o", "{out}"], "\n# c\n3 1\n0 1 2\n0 1 2\n2 0 1\n",
     "line 3: grid is not a Latin square"),
])
def test_whole_file_refusal_names_the_header_line(capsys, tmp_path, argv, text, message):
    path, out = tmp_path / "in.txt", tmp_path / "out.txt"
    path.write_text(text)
    code, stdout, err = run(capsys, *(a.format(path=path, out=out) for a in argv))
    assert (code, stdout) == (2, "")
    assert err.endswith(f": {message}\n")
    assert not out.exists()


def assert_wide_derivation_refused(tmp_path, *argv):
    """A derived hypergraph is built from one read first, and that read is refused."""
    path, out = tmp_path / "wide.txt", tmp_path / "out.txt"
    path.write_text(WIDE)
    code, stdout, err = run_isolated(argv[0], str(path), *argv[1:], "-o", str(out),
                                     address_space=ONE_GIB)
    assert (code, stdout) == (2, "")
    assert err == wide_refusal(path)
    assert not out.exists()


def test_deleting_a_vertex_of_the_header_alone_is_usage_error(tmp_path):
    assert_wide_derivation_refused(tmp_path, "delete-vertex", "--vertex", "0")


def test_inducing_on_the_header_alone_is_usage_error(tmp_path):
    """Three of 10^8 vertices would make a small subgraph, but the file is
    refused as it is read, as every other hypergraph command refuses it."""
    assert_wide_derivation_refused(tmp_path, "induce", "--vertices", "0,1,2")


def test_validate_counts_replication_without_listing_the_points(tmp_path):
    """10^15 declared points and one block: the points in no block count 0."""
    path = tmp_path / "wide-design.txt"
    path.write_text("2 1000000000000000 3 1\n0 1 2\n")
    code, out, err = run_isolated("validate", str(path), address_space=ONE_GIB)
    assert (code, err) == (1, "")
    report = report_dict(out)
    assert (report["replication_min"], report["replication_max"]) == ("0", "1")
    assert (report["min_coverage"], report["max_coverage"]) == ("0", "1")


@pytest.fixture(scope="module")
def pg8_h4_path(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("pg8") / "pg8-h4.txt")
    write_hypergraph(path, builders.build_from_design(designs.projective_plane(8), 4).hypergraph)
    return path


def test_s_range_beyond_maxsize_matches_naive(capsys, pg8_h4_path):
    """C(73, 36) is above ``sys.maxsize``, as no S-index may be."""
    naive = run(capsys, "check", pg8_h4_path, "-n", "36", "--engine", "naive")
    assert naive[0] == 1 and naive[2] == ""
    for threads in ("1", "2"):
        code, out, err = run(capsys, "check", pg8_h4_path, "-n", "36", "--threads", threads)
        assert (code, re.sub(r"elapsed_ms: [0-9.]+\n", "", out), err) == (
            naive[0], re.sub(r"elapsed_ms: [0-9.]+\n", "", naive[1]), naive[2])


@pytest.mark.parametrize("argv, limit", [
    pytest.param(["validate", "{design}"], 41, id="validate"),  # 21 pairs, 42 points
    pytest.param(["build", "from-design", "-i", "{design}", "-o", "{out}", "--h", "3"], 20,
                 id="build"),  # 7 * C(3, 3) = 7 triples, 21 points
])
def test_oversized_design_is_usage_error(capsys, monkeypatch, tmp_path, fano, argv, limit):
    design, out = tmp_path / "fano.txt", tmp_path / "out.txt"
    design.write_text(designs.format_design(fano))
    monkeypatch.setattr(hypergraph, "MAX_SETS", limit)
    code, stdout, err = run(capsys, *(a.format(design=design, out=out) for a in argv))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: listing the 7 * C(3, ") and err.endswith(f"limit of {limit}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, limit", [
    pytest.param(["random", "--h", "3", "--m", "12", "--p", "0.5", "-n", "1", "--trials", "2",
                  "--seed", "7"], 660, id="random"),  # C(12, 3) * 3 points drawn per sample
    pytest.param(["construct", "mols", "-q", "4", "-o", "{out}"], 48, id="mols"),  # 3 * 4 * 4 cells
])
def test_oversized_generation_is_usage_error(capsys, monkeypatch, tmp_path, argv, limit):
    out = tmp_path / "out.txt"
    argv = [a.format(out=out) for a in argv]
    monkeypatch.setattr(hypergraph, "MAX_SETS", limit - 1)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and err.endswith(f" is above the limit of {limit - 1}\n")
    assert not out.exists()
    monkeypatch.setattr(hypergraph, "MAX_SETS", limit)
    assert run(capsys, *argv)[0] == 0


def test_design_listing_over_size_limit_in_points_is_usage_error(capsys, tmp_path):
    """One 24-point block has C(24, 8) = 735 471 8-subsets, within ``MAX_SETS``,
    but 5 883 768 points above it."""
    design = tmp_path / "big.txt"
    design.write_text("8 24 24 1\n" + " ".join(map(str, range(24))) + "\n")
    code, stdout, err = run(capsys, "validate", str(design))
    assert (code, stdout) == (2, "")
    assert err == ("error: listing the 1 * C(24, 8) = 735471 8-subsets of the blocks, "
                   "5883768 points, is above the limit of 4194304\n")


# --- README


def test_readme_command_block_runs_as_written(capsys, monkeypatch, tmp_path):
    """Every line of README's "Command line" block, run as written in an empty
    directory, so the documented commands and their comments cannot drift
    from the code: a line commented "exit 1" (check hl4.txt -n 3) exits 1 and
    every other line 0, and a line commented "N edges" (the two builds: 80 and
    1950) reports unique_edges: N."""
    lines = (SRC.parent / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("## Command line")
    commands = [line for line in lines[start:lines.index("```", start)]
                if line.startswith("hyperec ")]
    monkeypatch.chdir(tmp_path)
    builds = 0
    for line in commands:
        code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == (1 if "# exit 1" in line else 0), (line, err)
        edges = re.search(r"# .* (\d+) edges$", line)
        if edges:
            assert f"unique_edges: {edges[1]}" in out.splitlines(), line
            builds += 1
    assert builds == 2


# --- one parser per process


def test_build_parser_returns_one_parser():
    assert cli.build_parser() is cli.build_parser()


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, re.sub(r"elapsed_ms: [0-9.]+\n", "", captured.out), captured.err


def test_reused_parser_matches_a_fresh_one(capsys, monkeypatch, fig5_path, tmp_path):
    sequence = [
        ["check", fig5_path, "-n", "1"],
        ["check", fig5_path],  # -n is required
        ["maxec", "--help"],
        ["construct", "mols", "-o", str(tmp_path / "x.txt")],  # -q is required
        ["random", "--h", "3", "--m", "8", "--p", "0.5", "-n", "1", "--trials", "3", "--seed", "7"],
        ["check", fig5_path, "-n", "1"],
    ]
    cli.build_parser()
    before = cli.build_parser.cache_info()
    reused = [_outcome(capsys, argv) for argv in sequence]
    after = cli.build_parser.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (len(sequence), 0)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(capsys, argv) for argv in sequence]
    assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0, 0]
    assert reused == fresh


def test_delete_vertex_cli(capsys, fig5_path, tmp_path):
    out_path = tmp_path / "del.txt"
    code, _, _ = run(capsys, "delete-vertex", fig5_path, "--vertex", "3", "-o", str(out_path))
    assert code == 0
    hg = read_hypergraph(str(out_path))
    assert (hg.h, hg.m, hg.edges) == (3, 3, ((0, 1, 2),))


def test_induce_cli(capsys, fig5_path, tmp_path):
    out_path = tmp_path / "ind.txt"
    code, _, _ = run(capsys, "induce", fig5_path, "--vertices", "0,1,2", "-o", str(out_path))
    assert code == 0
    assert read_hypergraph(str(out_path)).edge_count == 1


def test_induce_too_small_is_usage_error(capsys, fig5_path, tmp_path):
    code, _, err = run(capsys, "induce", fig5_path, "--vertices", "0,1", "-o", str(tmp_path / "x"))
    assert code == 2


@pytest.mark.parametrize("command", ["construct", "build", "complement"])
def test_unwritable_output_is_usage_error(capsys, tmp_path, fig5_path, command):
    mols_path = tmp_path / "mols4.txt"
    run(capsys, "construct", "mols", "-q", "4", "-o", str(mols_path))
    missing = tmp_path / "missing" / "out.txt"
    argv = {
        "construct": ["construct", "fano"],
        "build": ["build", "from-mols", "-i", str(mols_path)],
        "complement": ["complement", fig5_path],
    }[command]
    code, out, err = run(capsys, *argv, "-o", str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {missing}: ")


def test_written_files_recanonicalize_identically(capsys, tmp_path):
    # the writer's output, re-read and re-written, is byte-identical
    mols_path = tmp_path / "m.txt"
    hg_path = tmp_path / "h.txt"
    run(capsys, "construct", "mols", "-q", "4", "-o", str(mols_path))
    run(capsys, "build", "from-mols", "-i", str(mols_path), "-o", str(hg_path))
    from hyperec.hypergraph import format_hypergraph

    first = hg_path.read_text()
    body = "\n".join(l for l in first.splitlines() if not l.startswith("#")) + "\n"
    assert format_hypergraph(read_hypergraph(str(hg_path))) == body

    design_path = tmp_path / "d.txt"
    run(capsys, "construct", "pg", "-q", "3", "-o", str(design_path))
    text = design_path.read_text()
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#")) + "\n"
    assert designs.format_design(designs.read_design(str(design_path))) == body
