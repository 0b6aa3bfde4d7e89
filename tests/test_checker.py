import itertools
import os
import random

import pytest

from hyperec import checker
from hyperec.checker import (
    CheckerUsageError,
    correctly_joined,
    find_witness,
    is_nec,
    max_ec,
    min_edges_bound,
    min_vertices_bound,
)
from hyperec.hypergraph import complete_hypergraph, empty_hypergraph, new_hypergraph
from hyperec.randomhg import RandomModel, sample


# --- lower bounds


def test_min_edges_bound():
    assert min_edges_bound(1) == 1
    assert min_edges_bound(2) == 4
    assert min_edges_bound(5) == 80


def smallest_l(n, h):
    # independent scan used to pin the vertex-bound values
    from math import comb

    l = 1
    while comb(l, h - 1) < 2**n:
        l += 1
    return l


def test_min_vertices_bound_examples():
    assert min_vertices_bound(3, 2) == 3 + 8
    assert min_vertices_bound(1, 3) == 1 + smallest_l(1, 3) == 4
    assert min_vertices_bound(4, 4) == 4 + smallest_l(4, 4) == 10


@pytest.mark.parametrize("n", range(1, 7))
def test_vertex_bound_graph_case(n):
    assert min_vertices_bound(n, 2) == n + 2**n


def test_bounds_reject_bad_arguments():
    with pytest.raises(CheckerUsageError):
        min_edges_bound(0)
    with pytest.raises(CheckerUsageError):
        min_vertices_bound(1, 1)


# --- correctly_joined


def test_correctly_joined_two_triple(two_triple):
    # {0,2} forms an edge with both 1 and 3, so it is wrong for T={1}
    assert not correctly_joined(two_triple, [0, 2], [1], [1, 3])
    assert correctly_joined(two_triple, [0, 2], [1, 3], [1, 3])


def test_correctly_joined_vacuous_empty_t():
    hg = new_hypergraph(3, 6, [(0, 1, 2)])
    assert correctly_joined(hg, [4, 5], [], [0])


def test_correctly_joined_complete(two_triple):
    full = complete_hypergraph(3, 6)
    assert correctly_joined(full, [2, 3], [0, 1], [0, 1])


def test_correctly_joined_precondition_errors(two_triple):
    with pytest.raises(CheckerUsageError):
        correctly_joined(two_triple, [1], [3], [3])  # |X| != h-1
    with pytest.raises(CheckerUsageError):
        correctly_joined(two_triple, [0, 3], [3], [3])  # X meets S
    with pytest.raises(CheckerUsageError):
        correctly_joined(two_triple, [0, 2], [1], [3])  # T not inside S
    with pytest.raises(CheckerUsageError):
        correctly_joined(two_triple, [0, 9], [3], [3])  # out of range


# --- find_witness


def test_find_witness_two_triple(two_triple):
    assert find_witness(two_triple, [3], [3]) == (0, 2)


def test_find_witness_none_in_empty():
    assert find_witness(empty_hypergraph(3, 5), [0], [0]) is None


def test_find_witness_none_in_complete():
    assert find_witness(complete_hypergraph(3, 5), [0], []) is None


def test_find_witness_is_lex_first(two_triple):
    witness = find_witness(two_triple, [3], [])
    scan = [
        x
        for x in itertools.combinations([0, 1, 2], 2)
        if tuple(sorted(x + (3,))) not in two_triple.edge_set
    ]
    assert witness == scan[0] == (0, 1)


@pytest.mark.parametrize(
    "s, t, message",
    [
        ([9], [9], "vertex 9 out of range"),
        ([-1], [], "vertex -1 out of range"),
        ([3], [1], "T must be a subset of S"),
    ],
)
def test_find_witness_rejects_what_correctly_joined_rejects(two_triple, s, t, message):
    with pytest.raises(CheckerUsageError, match=message):
        find_witness(two_triple, s, t)
    with pytest.raises(CheckerUsageError, match=message):
        correctly_joined(two_triple, [0, 2], t, s)


# --- is_nec verdicts


def test_two_triple_is_1ec(two_triple):
    assert is_nec(two_triple, 1).holds


def test_rook_graph_is_2ec(k3k3):
    assert is_nec(k3k3, 2).holds


def test_complete_fails_with_empty_t():
    result = is_nec(complete_hypergraph(3, 5), 1)
    assert not result.holds
    assert result.counterexample == ((0,), ())


def test_counterexample_is_least_pair(two_triple):
    result = is_nec(two_triple, 2)
    assert result.counterexample == ((0, 1), ())


def test_n_beyond_candidates_is_false_not_error():
    hg = new_hypergraph(3, 4, [(0, 1, 2)])
    result = is_nec(hg, 3)  # m - h + 1 = 2 < 3
    assert not result.holds
    assert "no candidate X exists" in result.stats.note
    assert result.counterexample == ((0, 1, 2), ())


def test_n_beyond_m_is_false_with_note():
    hg = new_hypergraph(3, 4, [(0, 1, 2)])
    result = is_nec(hg, 9)
    assert not result.holds
    assert result.counterexample is None
    assert "no n-subset" in result.stats.note


def test_is_nec_rejects_bad_n(two_triple):
    with pytest.raises(CheckerUsageError):
        is_nec(two_triple, 0)
    with pytest.raises(CheckerUsageError):
        is_nec(two_triple, 1, engine="wat")
    for threads in (0, -3):
        with pytest.raises(CheckerUsageError, match="threads"):
            is_nec(two_triple, 1, threads=threads)


# --- max_ec


def test_max_ec_values(two_triple, k3k3):
    assert max_ec(two_triple) == 1
    assert max_ec(k3k3) == 2
    assert max_ec(empty_hypergraph(3, 5)) == 0
    assert max_ec(complete_hypergraph(2, 4)) == 0


# --- witness log


def test_witness_log_entries_reverify(two_triple):
    result = is_nec(two_triple, 1, record_witnesses=True)
    assert result.holds
    assert len(result.witness_log) == 4 * 2
    for (s, t), x in result.witness_log.items():
        assert correctly_joined(two_triple, x, t, s)
        assert find_witness(two_triple, s, t) == x


def test_witness_log_default_off(two_triple):
    assert is_nec(two_triple, 1).witness_log is None


# --- engine equivalence and schedule independence


def random_instance(rng, m, h):
    edges = [e for e in itertools.combinations(range(m), h) if rng.random() < 0.5]
    return new_hypergraph(h, m, edges)


def test_engines_agree_on_random_instances():
    rng = random.Random(20240817)
    for _ in range(60):
        h = rng.choice([2, 3])
        m = rng.randint(h + 1, 8)
        hg = random_instance(rng, m, h)
        for n in (1, 2):
            fast = is_nec(hg, n, engine="optimized")
            slow = is_nec(hg, n, engine="naive")
            assert fast.holds == slow.holds
            assert fast.counterexample == slow.counterexample
            assert fast.stats.candidates_examined == slow.stats.candidates_examined


def test_engines_agree_on_witness_logs():
    rng = random.Random(7)
    for _ in range(10):
        hg = random_instance(rng, 6, 3)
        fast = is_nec(hg, 1, engine="optimized", record_witnesses=True)
        slow = is_nec(hg, 1, engine="naive", record_witnesses=True)
        assert fast.witness_log == slow.witness_log


@pytest.mark.parametrize("engine", ["optimized", "naive"])
def test_parallel_matches_serial(mols4_build, engine):
    hg = mols4_build.hypergraph
    serial = is_nec(hg, 2, engine=engine, threads=1)
    parallel = is_nec(hg, 2, engine=engine, threads=4)
    assert serial.holds == parallel.holds
    assert serial.counterexample == parallel.counterexample
    assert serial.stats.candidates_examined == parallel.stats.candidates_examined


@pytest.mark.parametrize("engine", ["optimized", "naive"])
def test_parallel_matches_serial_on_failure(two_triple, engine):
    serial = is_nec(two_triple, 2, engine=engine, threads=1)
    parallel = is_nec(two_triple, 2, engine=engine, threads=3)
    assert (serial.holds, serial.counterexample) == (parallel.holds, parallel.counterexample)
    assert serial.stats.candidates_examined == parallel.stats.candidates_examined


def test_pool_size_capped_at_cpu_count(mols4_build, monkeypatch):
    sizes = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records its size, runs map in-process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    hg = mols4_build.hypergraph
    monkeypatch.setattr(checker, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    serial = is_nec(hg, 2, threads=1)
    many = is_nec(hg, 2, threads=10_000)  # C(16, 2) = 120 chunks
    assert sizes == [3]
    assert (many.holds, many.counterexample) == (serial.holds, serial.counterexample)
    assert many.stats.candidates_examined == serial.stats.candidates_examined


def test_sampled_model_instances_agree_across_engines():
    for seed in range(5):
        hg = sample(RandomModel(2, 8, 0.45, 1000 + seed))
        for n in (1, 2):
            fast = is_nec(hg, n, engine="optimized")
            slow = is_nec(hg, n, engine="naive")
            assert (fast.holds, fast.counterexample) == (slow.holds, slow.counterexample)


# --- structural closure properties on a certified instance


def test_rook_graph_closures(k3k3):
    # certified 2-e.c.: every one-smaller derived structure is 1-e.c.
    assert is_nec(k3k3, 1).holds
    comp = k3k3.complement()
    assert is_nec(comp, 2).holds
    for v in range(k3k3.m):
        smaller, _ = k3k3.delete_vertex(v)
        assert is_nec(smaller, 1).holds
        neighbourhood = k3k3.neighbourhood(v)
        if len(neighbourhood) >= k3k3.h:
            induced, _ = k3k3.induced(neighbourhood)
            assert is_nec(induced, 1).holds
        avoid = k3k3.anti_neighbourhood(v)
        if len(avoid) >= k3k3.h:
            induced, _ = k3k3.induced(avoid)
            assert is_nec(induced, 1).holds


def test_bound_consistency_on_certified_instances(k3k3, mols4_build):
    for hg, n in [(k3k3, 2), (mols4_build.hypergraph, 2)]:
        assert is_nec(hg, n).holds
        assert hg.edge_count >= min_edges_bound(n)
        assert hg.m >= min_vertices_bound(n, hg.h)
