import json

import pytest

from hyperec import designs, read_hypergraph
from hyperec.cli import main


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
