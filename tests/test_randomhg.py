import itertools
import math
import multiprocessing
import os
import sys
from math import comb

import mpmath
import pytest

from hyperec import checker, cli, hypergraph, randomhg
from hyperec.checker import CheckerUsageError, is_nec
from hyperec.hypergraph import new_hypergraph
from hyperec.randomhg import (
    EcFractionResult,
    RandomModel,
    RandomModelError,
    derive_seed,
    estimate_ec_fraction,
    expected_failures_log,
    sample,
    sample_trial,
    union_bound,
    union_bound_log,
)


def oracle_log_bound(n, h, m, p):
    """High-precision evaluation of C(m,n) * 2^n * (1-q^n)^C(m-n,h-1), q = min(p, 1-p)."""
    with mpmath.workdps(60):
        q = min(mpmath.mpf(p), 1 - mpmath.mpf(p))
        value = (
            mpmath.binomial(m, n)
            * mpmath.mpf(2) ** n
            * (1 - q**n) ** int(comb(m - n, h - 1))
        )
        return float(mpmath.log(value))


# --- model and sampling


def test_model_validation():
    with pytest.raises(RandomModelError):
        RandomModel(1, 5, 0.5, 0)
    with pytest.raises(RandomModelError):
        RandomModel(3, 2, 0.5, 0)
    with pytest.raises(RandomModelError):
        RandomModel(3, 5, 0.0, 0)
    with pytest.raises(RandomModelError):
        RandomModel(3, 5, 1.0, 0)
    # A wrong type is a usage error, not a TypeError from sampling or math.comb.
    for h, m, p, seed in [(3, 14, 0.5, 7.5), (3, 14, 0.5, "7"), (3, 14, 0.5, True),
                          (3.0, 14, 0.5, 7), (True, 14, 0.5, 7), (3, 14.0, 0.5, 7),
                          (3, "14", 0.5, 7), (3, 14, "0.5", 7), (3, 14, None, 7)]:
        with pytest.raises(RandomModelError, match="must be"):
            RandomModel(h, m, p, seed)


def test_same_seed_same_sample():
    model = RandomModel(3, 10, 0.5, 123)
    assert sample(model) == sample(model)


def test_different_seed_differs():
    a = sample(RandomModel(3, 10, 0.5, 1))
    b = sample(RandomModel(3, 10, 0.5, 2))
    assert a != b


def test_h2_samples_are_graphs():
    hg = sample(RandomModel(2, 6, 0.5, 5))
    assert hg.h == 2
    assert all(len(e) == 2 for e in hg.edges)


def test_edge_count_mean_within_4_sigma():
    model = RandomModel(3, 10, 0.5, 99)
    trials = 100
    counts = [sample_trial(model, i).edge_count for i in range(trials)]
    expected = 0.5 * comb(10, 3)
    sigma_mean = math.sqrt(comb(10, 3) * 0.25) / math.sqrt(trials)
    assert abs(sum(counts) / trials - expected) < 4 * sigma_mean


def test_derive_seed_frozen_vectors():
    # pinned SplitMix64 outputs; a change here breaks recorded experiments
    assert derive_seed(7, 0) == 7191089600892374487
    assert derive_seed(7, 1) == 309689372594955804
    assert derive_seed(7, 2) == 16616101746815609346
    assert derive_seed(7, 0) != derive_seed(8, 0)


def test_trial_sampling_reproducible():
    model = RandomModel(3, 9, 0.4, 77)
    first = [sample_trial(model, i) for i in range(4)]
    second = [sample_trial(model, i) for i in range(4)]
    assert first == second
    assert len({hg.edges for hg in first}) > 1
    with pytest.raises(RandomModelError):
        sample_trial(model, -1)


# --- union bound


def test_union_bound_small_instance():
    # oracle-resolved: 3 * 2 * (1/2)^C(2,1) = 1.5, a legal vacuous bound
    assert union_bound(1, 2, 3, 0.5) == pytest.approx(1.5, rel=1e-12)
    assert union_bound(1, 2, 3, 0.5) == pytest.approx(math.exp(oracle_log_bound(1, 2, 3, 0.5)), rel=1e-9)


def test_union_bound_below_1e15_at_m20():
    value = union_bound(2, 3, 20, 0.5)
    assert value < 1e-15
    assert value == pytest.approx(190 * 4 * 0.75**153, rel=1e-12)


@pytest.mark.parametrize(
    "n, h, m, p",
    [(2, 3, 20, 0.5), (2, 3, 30, 0.5), (3, 4, 40, 0.3), (1, 2, 3, 0.5), (4, 3, 200, 0.7)],
)
def test_union_bound_log_matches_high_precision(n, h, m, p):
    ours = union_bound_log(n, h, m, p)
    reference = oracle_log_bound(n, h, m, p)
    assert ours == pytest.approx(reference, rel=1e-6)


@pytest.mark.parametrize("h, m", [(2, 5), (3, 5)])
def test_bounds_cap_the_exact_failure_probability(h, m):
    """Every one of the 1024 h-uniform hypergraphs on 5 vertices, weighted by
    its probability: P(not 1-e.c.) <= expected failing pairs <= union bound,
    the last two equal at p = 1/2.  A hypergraph is n-e.c. iff its complement
    is (swap T and S minus T), so P(fail) is the same at p and 1 - p."""
    h_sets = list(itertools.combinations(range(m), h))
    failing = [len(edges) for r in range(len(h_sets) + 1)
               for edges in itertools.combinations(h_sets, r)
               if not is_nec(new_hypergraph(h, m, edges), 1).holds]

    def p_fail(p):
        return sum(p**e * (1 - p) ** (len(h_sets) - e) for e in failing)

    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        expected = math.exp(expected_failures_log(1, h, m, p))
        bound = union_bound(1, h, m, p)
        assert p_fail(p) <= expected * (1 + 1e-12)
        assert expected <= bound * (1 + 1e-12)
        assert p_fail(p) == pytest.approx(p_fail(1 - p), rel=1e-12)
    assert math.exp(expected_failures_log(1, h, m, 0.5)) == pytest.approx(
        union_bound(1, h, m, 0.5), rel=1e-12)


@pytest.mark.parametrize("n, h, m, p", [(2, 3, 20, 0.5), (3, 4, 40, 0.3), (4, 3, 200, 0.7)])
def test_expected_failures_log_matches_high_precision(n, h, m, p):
    with mpmath.workdps(60):
        p = mpmath.mpf(p)
        value = mpmath.binomial(m, n) * sum(
            mpmath.binomial(n, j) * (1 - p**j * (1 - p) ** (n - j)) ** int(comb(m - n, h - 1))
            for j in range(n + 1))
        reference = float(mpmath.log(value))
    assert expected_failures_log(n, h, m, float(p)) == pytest.approx(reference, rel=1e-9)


def test_union_bound_above_the_largest_float_is_infinite():
    """C(1200, 300) * 2^300 is about e^879: the log is finite, the bound is not."""
    log = union_bound_log(300, 2, 1200, 1e-9)
    assert log > math.log(sys.float_info.max)
    assert log == pytest.approx(oracle_log_bound(300, 2, 1200, 1e-9), rel=1e-9)
    assert union_bound(300, 2, 1200, 1e-9) == math.inf


def test_union_bound_log_strictly_decreasing_in_m():
    values = [union_bound_log(2, 3, m, 0.5) for m in range(50, 201)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_union_bound_argument_checks():
    with pytest.raises(RandomModelError):
        union_bound_log(0, 3, 10, 0.5)
    with pytest.raises(RandomModelError):
        union_bound_log(2, 3, 2, 0.5)
    with pytest.raises(RandomModelError):
        union_bound_log(2, 3, 10, 1.0)


# --- empirical fraction


def test_fraction_single_trial_is_zero_or_one():
    outcome = estimate_ec_fraction(RandomModel(3, 8, 0.5, 3), 1, trials=1)
    assert outcome.fraction in (0.0, 1.0)
    assert len(outcome.verdicts) == 1


def test_fraction_at_minimum_size_is_zero():
    # m == h leaves no room for X outside a nonempty S
    outcome = estimate_ec_fraction(RandomModel(3, 3, 0.5, 11), 1, trials=4)
    assert outcome == EcFractionResult(0.0, (False, False, False, False))


def test_fraction_reproducible():
    model = RandomModel(3, 12, 0.5, 21)
    a = estimate_ec_fraction(model, 1, trials=10)
    b = estimate_ec_fraction(model, 1, trials=10)
    assert a == b


def test_trials_argument_checked():
    with pytest.raises(RandomModelError):
        estimate_ec_fraction(RandomModel(3, 8, 0.5, 3), 1, trials=0)


def test_model_counts_the_points_of_its_h_sets(monkeypatch):
    """A sample of (3, 6) draws once for each of C(6, 3) = 20 triples, 60
    points: the model is refused as it is built, before any sample."""
    monkeypatch.setattr(hypergraph, "MAX_SETS", 60)
    assert sample(RandomModel(3, 6, 0.5, 1)).m == 6
    monkeypatch.setattr(hypergraph, "MAX_SETS", 59)
    with pytest.raises(RandomModelError, match=(r"^listing the 1 \* C\(6, 3\) = 20 3-subsets "
                                                "of the vertices, 60 points, is above the limit")):
        RandomModel(3, 6, 0.5, 1)


@pytest.mark.parametrize("seed", [7, 1009])
@pytest.mark.parametrize("m", [14, 22])
def test_random_reports_do_not_depend_on_threads(capsys, seed, m):
    """Across the closure threshold, the trials of one command share their
    kept workers; the report is the serial one, byte for byte."""
    reports = []
    for threads in ("1", "2", "5000"):
        assert cli.main(["random", "--h", "3", "--m", str(m), "--p", "0.5", "-n", "3",
                         "--trials", "20", "--seed", str(seed), "--threads", threads]) == 0
        reports.append(capsys.readouterr())
    assert reports[0].err == ""
    assert reports[1:] == reports[:1] * 2


def test_trials_share_one_fork(forks):
    model = RandomModel(3, 14, 0.5, 7)
    serial = estimate_ec_fraction(model, 3, trials=6)
    assert forks == []
    assert estimate_ec_fraction(model, 3, trials=6, threads=2) == serial
    assert len(forks) == 1


def test_worker_error_on_a_later_trial_reaches_the_caller(monkeypatch, forks):
    """The kept worker's scan of trial 2 raises: the estimate raises that
    error, with no child left and the file descriptors that were open
    before, and the next estimate forks afresh and gives the serial
    verdicts.  The caller waits to scan trial 2 until the worker has taken
    a vertex of it."""
    model, caller = RandomModel(3, 14, 0.5, 7), os.getpid()
    target, scan = sample_trial(model, 2), checker._scan_optimized
    serial = estimate_ec_fraction(model, 3, trials=4)
    worker_scanned = multiprocessing.Event()

    def scanner(hg, n, head, record):
        if hg == target:
            if os.getpid() != caller:
                worker_scanned.set()
                raise ArithmeticError(f"worker scan of least vertex {head[0]}")
            assert worker_scanned.wait(timeout=60)
        return scan(hg, n, head, record)

    before = sorted(os.listdir("/dev/fd"))
    monkeypatch.setitem(checker._SCANNERS, "optimized", scanner)
    with pytest.raises(ArithmeticError, match="worker scan of least vertex"):
        estimate_ec_fraction(model, 3, trials=4, threads=2)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/dev/fd")) == before
    monkeypatch.setitem(checker._SCANNERS, "optimized", scan)
    assert estimate_ec_fraction(model, 3, trials=4, threads=2) == serial
    assert len(forks) == 2


@pytest.mark.parametrize("args, message", [
    ({"n": 0}, "^n must be >= 1, got 0$"),
    ({"engine": "bogus"}, "^unknown engine 'bogus', expected one of"),
    ({"threads": 0}, "^threads must be >= 1, got 0$"),
], ids=["n", "engine", "threads"])
def test_check_arguments_are_refused_before_the_first_sample(monkeypatch, args, message):
    """A sample of this model draws C(204, 3) = 1 394 204 h-sets, about a
    second of work; the check's own arguments are refused before any of it."""
    def no_sample(*_):
        raise AssertionError("a trial was sampled before the check's arguments were checked")

    monkeypatch.setattr(randomhg, "sample_trial", no_sample)
    with pytest.raises(CheckerUsageError, match=message):
        estimate_ec_fraction(RandomModel(3, 204, 0.5, 1), **{"n": 1, "trials": 2, **args})


def test_observed_failures_within_bound_slack():
    # the bound is far below 1/trials here, so no failures may appear
    model = RandomModel(3, 25, 0.5, 2024)
    outcome = estimate_ec_fraction(model, 2, trials=50)
    assert union_bound(2, 3, 25, 0.5) < 1 / 50
    assert outcome.fraction == 1.0
