"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

The pins in expected.json come from the optimized engine; the small pinned
instances are re-derived here with ``--engine naive``, the independent
oracle, so a wrong pin cannot hide behind the engine that produced it.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXPECTED = workloads.load_expected()


def _pins(workload, seed=workloads.DEFAULT_SEED):
    return workloads.pinned_ops(EXPECTED, workload, seed)


def _run_chains(workload, chains, work, seed=workloads.DEFAULT_SEED, tracer=None):
    steps = [s for s in workloads.prepare(workload, seed, work) if s.chain in chains]
    _, _, outcomes = run.timed_pass(steps, work, tracer)
    return outcomes


def _verify_chains(workload, outcomes, chains):
    """Verify against the pins of the given chains only."""
    expected = copy.deepcopy(EXPECTED)
    entry = expected["workloads"][workload]
    entry["ops"] = {k: v for k, v in entry["ops"].items() if k.split("/", 1)[0] in chains}
    return workloads.verify(workload, workloads.DEFAULT_SEED, outcomes, expected)


def _cli_lines(argv, work):
    step = workloads._cli("x", "y", argv, work)
    ((_, outcome),) = list(step.run())
    return outcome


# ---------------------------------------------------------------------------
# Span arithmetic


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent)


def test_self_time_on_synthetic_span_tree():
    spans = [
        _span("cli.main", 0.0, 10.0),                 # 0
        _span("checker.max_ec", 1.0, 7.0, 0),        # 1
        _span("checker.is_nec", 1.5, 3.5, 1),        # 2
        _span("checker.is_nec", 4.0, 6.5, 1),        # 3
        _span("checker.pool", 4.5, 6.0, 3),          # 4
        _span("hypergraph.io", 8.0, 9.0, 0),         # 5
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 2.0, 1.0, 1.5, 1.0])
    summary = tracing.summarise(spans)
    layers, names = summary["layers"], summary["names"]
    assert layers["cli"] == pytest.approx({"count": 1, "total_s": 10.0, "self_s": 3.0})
    # Nested checker spans count once in the layer total, and self times partition it.
    assert layers["checker"] == pytest.approx({"count": 4, "total_s": 6.0, "self_s": 6.0})
    assert names["checker.is_nec"] == pytest.approx({"count": 2, "total_s": 4.5, "self_s": 3.0})
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(10.0)


def test_self_time_clips_overlapping_and_overhanging_children():
    spans = [_span("a.x", 0.0, 4.0), _span("a.y", 1.0, 3.0, 0),
             _span("a.z", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Checking outcomes


def test_pinned_outcomes_match_a_run(tmp_path):
    outcomes = _run_chains("mols-maxec", {"mols4", "mols5"}, tmp_path)
    verdict = _verify_chains("mols-maxec", outcomes, {"mols4", "mols5"})
    assert verdict.failed == [] and verdict.attempted == 8


def test_injected_wrong_verdict_raises_error_rate(tmp_path, monkeypatch):
    from hyperec import checker

    original = checker.is_nec

    def flipped(*args, **kwargs):
        result = original(*args, **kwargs)
        return dataclasses.replace(result, holds=not result.holds)

    monkeypatch.setattr(checker, "is_nec", flipped)
    outcomes = _run_chains("mols-maxec", {"mols4"}, tmp_path)
    verdict = _verify_chains("mols-maxec", outcomes, {"mols4"})
    assert "mols4/check-n2" in verdict.failed
    assert len(verdict.failed) / verdict.attempted > 0


def test_raising_step_fails_its_operation_and_the_pass_goes_on(tmp_path, monkeypatch):
    from hyperec import checker

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(checker, "max_ec", broken)
    outcomes = _run_chains("mols-maxec", {"mols4", "mols5"}, tmp_path)
    verdict = _verify_chains("mols-maxec", outcomes, {"mols4", "mols5"})
    assert verdict.failed == ["mols4/maxec", "mols5/maxec"] and verdict.attempted == 8


def test_missing_operation_counts_as_failed(tmp_path):
    outcomes = _run_chains("mols-maxec", {"mols4"}, tmp_path)[:-1]
    verdict = _verify_chains("mols-maxec", outcomes, {"mols4"})
    assert verdict.failed == ["mols4/maxec"] and verdict.attempted == 4


def test_unpinned_seed_checks_report_form():
    pinned = _pins("random-threshold")["m14/random"]
    assert workloads._random_report_ok(pinned, "m14/random", 7)
    bad = copy.deepcopy(pinned)
    bad["stdout"] = ["trial_0: maybe" if line.startswith("trial_0:") else line
                     for line in bad["stdout"]]
    assert not workloads._random_report_ok(bad, "m14/random", 7)
    wrong_bound = copy.deepcopy(pinned)
    wrong_bound["stdout"][6] = "union_bound: 0.5"
    assert not workloads._random_report_ok(wrong_bound, "m14/random", 7)
    assert workloads.pinned_ops(EXPECTED, "random-threshold", 123456) is None


def test_both_random_seeds_are_pinned():
    seeds = EXPECTED["workloads"]["random-threshold"]["seeds"]
    assert set(seeds) == {str(workloads.DEFAULT_SEED), str(workloads.HELD_OUT_SEED)}
    for ops in seeds.values():
        assert set(ops) == {f"m{m}/random" for m in workloads.RANDOM_SIZES}


# ---------------------------------------------------------------------------
# Wrappers


def test_untraced_run_leaves_every_hook_original(tmp_path):
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr in tracing.hook_targets()]
    _run_chains("mols-maxec", {"mols4"}, tmp_path)
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr


def test_traced_run_records_layers_and_restores_hooks(tmp_path):
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr in tracing.hook_targets()]
    tracer = tracing.Tracer()
    outcomes = _run_chains("mols-maxec", {"mols4"}, tmp_path, tracer=tracer)
    assert _verify_chains("mols-maxec", outcomes, {"mols4"}).failed == []
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr
    metrics = tracing.per_layer_metrics(tracer)
    assert metrics["cli.commands"] == 4
    # check -n 2, then maxec's levels 1..3 and the CLI's re-run of level 3.
    assert metrics["checker.is_nec_calls"] == 5
    assert metrics["checker.index_sets_computed"] == 5 * 120  # C(16, 2) per call
    assert metrics["galois.fields_built"] == 1
    # complete_mols does its field arithmetic through GfField, which counts as galois.
    assert metrics["galois.self_s"] > 0
    assert metrics["builders.raw_edges"] == metrics["builders.unique_edges"] == 80


@pytest.mark.parametrize("threads,builds", [(1, 1), (2, 2)])
def test_index_counts_follow_the_chunks_each_worker_builds(tmp_path, threads, builds):
    # Each of the two trials checks C(14, 3) = 364 S-sets; with two threads
    # the S-range is split in two chunks and each worker builds the index.
    argv = ["random", "--h", "3", "--m", "14", "--p", "0.5", "-n", "3", "--trials", "2",
            "--seed", "7", "--threads", str(threads)]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert _cli_lines(argv, tmp_path)["exit"] == 0
    metrics = tracing.per_layer_metrics(tracer)
    assert metrics["checker.is_nec_calls"] == 2
    assert metrics["checker.s_sets_computed"] == 2 * 364
    assert metrics["checker.index_sets_computed"] == 2 * builds * 91  # C(14, 2)
    assert metrics["checker.pools_started"] == (2 if threads > 1 else 0)


def test_hooks_are_restored_when_a_pass_raises(tmp_path):
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr in tracing.hook_targets()]
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("boom")
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, attr


# ---------------------------------------------------------------------------
# Pins against the naive oracle


@pytest.mark.parametrize("workload,chain,label,argv", [
    ("mols-maxec", "mols4", "check-n2", ["check", "hl4.txt", "-n", "2"]),
    ("mols-maxec", "mols4", "maxec", ["maxec", "hl4.txt"]),
    ("mols-maxec", "mols5", "check-n2", ["check", "hl5.txt", "-n", "2"]),
    ("mols-maxec", "mols5", "maxec", ["maxec", "hl5.txt"]),
    ("design-certify", "fano", "maxec-h3", ["maxec", "fano-h3.txt"]),
])
def test_pins_agree_with_naive_engine(tmp_path, workload, chain, label, argv):
    _run_chains(workload, {chain}, tmp_path)
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    got = _cli_lines(argv + ["--engine", "naive"], tmp_path)
    assert got == _pins(workload)[f"{chain}/{label}"]


def test_pg4_engines_agree(tmp_path):
    """pg8 is too large for the naive engine; pg4 checks the same construction path."""
    design, hg = str(tmp_path / "pg4.txt"), str(tmp_path / "pg4-h4.txt")
    _cli_lines(["construct", "pg", "-q", "4", "-o", design], tmp_path)
    _cli_lines(["build", "from-design", "-i", design, "-o", hg, "--h", "4"], tmp_path)
    optimized = _cli_lines(["maxec", hg], tmp_path)
    assert optimized["exit"] == 0 and "max_ec: 2" in optimized["stdout"]
    assert _cli_lines(["maxec", hg, "--engine", "naive"], tmp_path) == optimized


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
def test_random_m14_pins_agree_with_naive_engine(seed):
    from hyperec import randomhg

    model = randomhg.RandomModel(3, 14, 0.5, seed)
    outcome = randomhg.estimate_ec_fraction(model, 3, workloads.RANDOM_TRIALS, engine="naive")
    lines = _pins("random-threshold", seed)["m14/random"]["stdout"]
    pinned = [line.split(": ")[1] == "true" for line in lines if line.startswith("trial_")]
    assert pinned == list(outcome.verdicts)
    assert f"fraction: {outcome.fraction!r}" in lines


def test_benchmark_json_lists_what_the_runs_report():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    names = tracing.per_layer_metrics(tracing.Tracer())
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {n: tracing.unit_of(n) for n in names}
