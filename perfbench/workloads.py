"""The three benchmark workloads and the checks of their outputs.

A workload is a list of steps run in order against one work directory.  A
step is one ``hyperec`` CLI command, called in-process through
``hyperec.cli.main`` with stdout captured, or the closure sweep, which
yields one outcome per ``is_nec`` check.  Every outcome is an *operation*:
it is compared with the pinned outcome in ``expected.json`` after the timed
section ends, so comparing costs no measured time.

Nothing here imports ``hyperec`` at module level: ``prepare`` does, so that
the import is part of the measured set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

EXPECTED_PATH = Path(__file__).with_name("expected.json")
BENCHMARK_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Why each workload exists, by name, as BENCHMARK.json states it for the
# workloads it lists.  design-certify runs only by hand: on a shared 2-vCPU
# host its runs spread wider than the benchmark's bounds (see README.md).
WORKLOADS = {w["name"]: w["why"] for w in
             json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))["workloads"]}
WORKLOADS["design-certify"] = (
    "inversive, PG and Fano designs validated, built and certified, plus complement "
    "and closure sweep; dense checks, designs layer dominates")
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009
RANDOM_SIZES = (14, 16, 18, 20, 22)
RANDOM_TRIALS = 100


@dataclass(frozen=True)
class Step:
    """One unit of the timed section; ``run`` yields (label, outcome) pairs."""

    chain: str
    run: Callable[[], Iterator[tuple[str, dict]]]


def prepare(workload: str, seed: int, work: Path) -> list[Step]:
    """Import hyperec and build the workload's steps."""
    import hyperec  # noqa: F401  (import cost belongs to set-up)
    import hyperec.cli  # noqa: F401

    builders = {
        "mols-maxec": _mols_maxec,
        "design-certify": _design_certify,
        "random-threshold": _random_threshold,
    }
    return builders[workload](seed, work)


def run_steps(steps: list[Step]) -> list[tuple[str, dict]]:
    """Run every step and collect outcomes; an exception becomes an outcome."""
    outcomes: list[tuple[str, dict]] = []
    for step in steps:
        try:
            for label, outcome in step.run():
                outcomes.append((label, outcome))
        except Exception:  # the benchmark keeps going and counts the failure
            outcomes.append((f"{step.chain}/<raised>", {"error": traceback.format_exc()}))
    return outcomes


# ---------------------------------------------------------------------------
# Steps


def _cli(chain: str, label: str, argv: list[str], work: Path) -> Step:
    def run():
        import hyperec.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = hyperec.cli.main(argv)
        yield f"{chain}/{label}", {"exit": code, "stdout": _normalise(buf.getvalue(), work)}

    return Step(chain, run)


def _normalise(stdout: str, work: Path) -> list[str]:
    """Report lines without timings and with the work directory abstracted."""
    prefix = str(work) + "/"
    return [
        line.replace(prefix, "<work>/")
        for line in stdout.splitlines()
        if not line.startswith("elapsed_ms:")
    ]


def _mols_maxec(seed: int, work: Path) -> list[Step]:
    steps = []
    for q in (4, 5, 7):
        chain, mols, hg = f"mols{q}", str(work / f"mols{q}.txt"), str(work / f"hl{q}.txt")
        steps.append(_cli(chain, "construct", ["construct", "mols", "-q", str(q), "-o", mols], work))
        steps.append(_cli(chain, "build", ["build", "from-mols", "-i", mols, "-o", hg], work))
        if q in (4, 5):
            steps.append(_cli(chain, "check-n2", ["check", hg, "-n", "2", "--threads", "1"], work))
        steps.append(_cli(chain, "maxec", ["maxec", hg, "--threads", "1"], work))
    return steps


DESIGNS = (("inv7", ["inversive", "-q", "7"], 4), ("inv5", ["inversive", "-q", "5"], 4),
           ("pg8", ["pg", "-q", "8"], 4), ("fano", ["fano"], 3))


def _design_certify(seed: int, work: Path) -> list[Step]:
    steps = []
    for name, kind, _ in DESIGNS:
        design = str(work / f"{name}.txt")
        steps.append(_cli(name, "construct", ["construct", *kind, "-o", design], work))
        steps.append(_cli(name, "validate", ["validate", design], work))
    for name, _, h in DESIGNS:
        design, hg = str(work / f"{name}.txt"), str(work / f"{name}-h{h}.txt")
        build = ["build", "from-design", "-i", design, "-o", hg, "--h", str(h)]
        steps.append(_cli(name, f"build-h{h}", build, work))
        steps.append(_cli(name, f"maxec-h{h}", ["maxec", hg, "--threads", "1"], work))
    comp = str(work / "inv7-h4-complement.txt")
    steps.append(_cli("inv7", "complement-h4", ["complement", str(work / "inv7-h4.txt"), "-o", comp], work))
    steps.append(_cli("inv7", "complement-check-n3", ["check", comp, "-n", "3", "--threads", "1"], work))
    steps.append(Step("inv5", lambda: _closure_sweep("inv5/sweep-n2", work / "inv5-h4.txt", 2)))
    return steps


def _closure_sweep(label: str, path: Path, n: int) -> Iterator[tuple[str, dict]]:
    """The one-level-down closure sweep of scripts/certify_constructions.py.

    For every vertex v: delete v, and induce on N(v) and on A(v) when they
    hold at least h vertices; each derived hypergraph is checked at level n.
    """
    from hyperec import checker, hypergraph

    hg = hypergraph.read_hypergraph(str(path))
    for v in range(hg.m):
        deleted, _ = hg.delete_vertex(v)
        yield f"{label}/delete-{v}", _check_outcome(checker.is_nec(deleted, n, threads=1))
        for tag, subset in (("N", hg.neighbourhood(v)), ("A", hg.anti_neighbourhood(v))):
            if len(subset) >= hg.h:
                induced, _ = hg.induced(subset)
                yield f"{label}/{tag}-{v}", _check_outcome(checker.is_nec(induced, n, threads=1))


def _check_outcome(result) -> dict:
    ce = result.counterexample
    return {
        "holds": result.holds,
        "counterexample": [list(ce[0]), list(ce[1])] if ce else None,
        "candidates_examined": result.stats.candidates_examined,
    }


def _random_threshold(seed: int, work: Path) -> list[Step]:
    return [
        _cli(f"m{m}", "random", ["random", "--h", "3", "--m", str(m), "--p", "0.5", "-n", "3",
                                 "--trials", str(RANDOM_TRIALS), "--seed", str(seed),
                                 "--threads", "2"], work)
        for m in RANDOM_SIZES
    ]


# ---------------------------------------------------------------------------
# Checking outcomes


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def pinned_ops(expected: dict, workload: str, seed: int) -> dict | None:
    """Pinned outcomes for this workload and seed, or None if the seed is unpinned.

    Only random-threshold depends on the seed; the constructions do not.
    """
    entry = expected["workloads"][workload]
    if workload == "random-threshold":
        return entry["seeds"].get(str(seed))
    return entry["ops"]


@dataclass
class Verdict:
    attempted: int
    failed: list[str]
    note: str


def verify(workload: str, seed: int, outcomes, expected: dict) -> Verdict:
    """Compare outcomes with the pins; every missing or differing op fails.

    For an unpinned random-threshold seed the reports can only be checked
    for exit code and well-formedness.
    """
    pins = pinned_ops(expected, workload, seed)
    if pins is None:
        failed = [label for label, o in outcomes
                  if "error" in o or not _random_report_ok(o, label, seed)]
        note = f"seed {seed} is unpinned: only exit codes and report well-formedness were checked"
        return Verdict(len(outcomes), failed, note)
    # A step that raised leaves its pinned labels missing, so they fail here.
    got = {label: o for label, o in outcomes if "error" not in o}
    failed = [label for label, want in pins.items() if got.get(label) != want]
    extra = [label for label in got if label not in pins]
    return Verdict(len(pins) + len(extra), failed + extra,
                   "all outcomes compared with pinned values")


REPORT_KEYS = (["h", "m", "p", "n", "trials", "seed", "union_bound", "union_bound_log",
                "fraction"] + [f"trial_{i}" for i in range(RANDOM_TRIALS)])


def _random_report_ok(outcome: dict, label: str, seed: int) -> bool:
    """Exit code 0, every key present in order, consistent values and bound."""
    pairs = [line.partition(": ") for line in outcome["stdout"]]
    if outcome["exit"] != 0 or [key for key, _, _ in pairs] != REPORT_KEYS:
        return False
    doc = {key: value for key, _, value in pairs}
    m = int(label.split("/", 1)[0][1:])
    head = {"h": "3", "m": str(m), "p": "0.5", "n": "3",
            "trials": str(RANDOM_TRIALS), "seed": str(seed)}
    if any(doc[k] != v for k, v in head.items()):
        return False
    verdicts = [doc[f"trial_{i}"] for i in range(RANDOM_TRIALS)]
    if any(v not in ("true", "false") for v in verdicts):
        return False
    if doc["fraction"] != repr(verdicts.count("true") / RANDOM_TRIALS):
        return False
    log_bound = (math.log(math.comb(m, 3)) + 3 * math.log(2.0)
                 + math.comb(m - 3, 2) * math.log1p(-(0.5 ** 3)))
    try:
        got_log, got_bound = float(doc["union_bound_log"]), float(doc["union_bound"])
    except ValueError:
        return False
    return (math.isclose(got_log, log_bound, rel_tol=1e-12)
            and math.isclose(got_bound, math.exp(log_bound), rel_tol=1e-9))
