import itertools
import multiprocessing
import os
import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from math import comb
from multiprocessing import RawValue

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hyperec import builders, checker, hypergraph
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


def test_engines_agree_on_witness_logs(two_triple, k3k3, mols4_build):
    rng = random.Random(7)
    instances = [random_instance(rng, 6, 3) for _ in range(10)]
    for hg in instances + [two_triple, k3k3, mols4_build.hypergraph]:
        for n in (1, 2, 3):
            fast = is_nec(hg, n, engine="optimized", record_witnesses=True)
            slow = is_nec(hg, n, engine="naive", record_witnesses=True)
            assert fast.witness_log == slow.witness_log


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size, the initializer's
    arguments and the reports it is asked for, runs the initializer and map
    in-process.

    The initializer's arguments stay in this process, as they do under fork;
    each report goes through pickle, as it would on its way back.  A barrier
    of two or more workers cannot be met in one process, so the stand-in
    serves one worker only.
    """

    sizes: list[int] = []
    chunks: list[int] = []
    initargs: list[tuple] = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        assert max_workers == 1, "the in-process stand-in serves one worker"
        self.sizes.append(max_workers)
        self.initargs.append(initargs)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        calls = list(zip(*iterables))  # submitted at once, as the real pool does
        self.chunks.append(len(calls))
        return (pickle.loads(pickle.dumps(fn(*args))) for args in calls)


@pytest.fixture
def monkeypatch_pool(monkeypatch):
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(InProcessPool, "chunks", [])
    monkeypatch.setattr(InProcessPool, "initargs", [])
    monkeypatch.setattr(checker, "ProcessPoolExecutor", InProcessPool)
    # Two CPUs give at most one worker, the one the stand-in can serve.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # Restored after the stand-in's initializer sets them in this process.
    for name in ("_reports_due", "_outcome"):
        monkeypatch.setattr(checker, name, None)


@st.composite
def sparse_hypergraphs(draw):
    """h = 2..5, m <= 9 and at most 6 edges, so the (h-1)-shadow is mostly incomplete."""
    h = draw(st.integers(2, 5))
    m = draw(st.integers(h, 9))
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(range(m), h))), max_size=6))
    return new_hypergraph(h, m, edges)


# The pool stand-in only records sizes, so it can serve every example.
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sparse_hypergraphs())
def test_engines_agree_on_sparse_shadows(monkeypatch_pool, hg):
    for n in (1, 2, 3):
        slow = is_nec(hg, n, engine="naive", record_witnesses=True)
        for threads in (1, 2):
            fast = is_nec(hg, n, threads=threads, record_witnesses=True)
            assert fast.holds == slow.holds
            assert fast.counterexample == slow.counterexample
            assert fast.stats.candidates_examined == slow.stats.candidates_examined
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


class CountedPool(ProcessPoolExecutor):
    """A real process pool that records the size of each one started and the
    reports it is asked for."""

    sizes: list[int] = []
    chunks: list[int] = []

    def __init__(self, max_workers, **kwargs):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        calls = list(zip(*iterables))
        self.chunks.append(len(calls))
        return super().map(fn, *zip(*calls), **kwargs)


@pytest.fixture
def counted_pool(monkeypatch):
    monkeypatch.setattr(CountedPool, "sizes", [])
    monkeypatch.setattr(CountedPool, "chunks", [])
    monkeypatch.setattr(checker, "ProcessPoolExecutor", CountedPool)


def test_pool_size_capped_at_cpu_count(mols4_build, counted_pool, monkeypatch):
    """The pool's workers plus the calling process fit the CPUs, with one worker at least,
    and each worker gets one chunk, so none waits for a second round."""
    hg = mols4_build.hypergraph
    serial = is_nec(hg, 2, threads=1)
    for threads in (2, 3, 10_000):
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            many = is_nec(hg, 2, threads=threads)  # C(16, 2) = 120 S-sets
            assert (many.holds, many.counterexample) == (serial.holds, serial.counterexample)
            assert many.stats.candidates_examined == serial.stats.candidates_examined
    # One worker per chunk after the caller's, and at most CPUs - 1 of them.
    assert CountedPool.sizes == CountedPool.chunks == [1, 1, 1, 1, 1, 2, 1, 1, 2]


# Draws of RandomModel(3, 8, 0.5, seed), found by scanning seeds from 0: at
# seed 3 with n = 2 only the second chunk (least vertex 2..6) fails, and at
# seed 0 with n = 3 both chunks do, so the caller's failure in the first must win.
@pytest.mark.parametrize("engine", ["optimized", "naive"])
@pytest.mark.parametrize("seed, n, first_half_fails", [(3, 2, False), (0, 3, True)])
def test_real_pool_reduces_chunks_in_order(counted_pool, engine, seed, n, first_half_fails):
    hg = sample(RandomModel(3, 8, 0.5, seed))
    halves = checker._chunk_bounds(hg.m, n, 2)
    assert len(halves) == 2
    first, second = (checker._scan_chunk_naive(hg, n, lo, hi, False)[0] for lo, hi in halves)
    assert (first is not None, second is not None) == (first_half_fails, True)
    serial = is_nec(hg, n, engine=engine, threads=1)
    parallel = is_nec(hg, n, engine=engine, threads=2)
    assert CountedPool.sizes == [1]
    assert parallel.counterexample == (first or second)
    assert (parallel.holds, parallel.counterexample, parallel.stats.candidates_examined) == (
        serial.holds, serial.counterexample, serial.stats.candidates_examined)


def test_caller_chunk_failure_matches_serial_on_a_real_pool(counted_pool):
    """The caller's chunk fails at the first S-set and the worker's holds no
    failure, so the worker gives up unread; the report is the serial one."""
    drawn = sample(RandomModel(3, 60, 0.5, 1))
    edges = [e for e in drawn.edges if 0 not in e]  # vertex 0 forms no edge
    serial = is_nec(new_hypergraph(3, 60, edges), 3, threads=1, record_witnesses=True)
    parallel = is_nec(new_hypergraph(3, 60, edges), 3, threads=2, record_witnesses=True)
    assert CountedPool.sizes == [1]
    assert serial.counterexample == ((0, 1, 2), (0,))
    assert (parallel.holds, parallel.counterexample, parallel.stats.candidates_examined,
            parallel.witness_log) == (serial.holds, serial.counterexample,
                                      serial.stats.candidates_examined, serial.witness_log)


# Draws of RandomModel(3, 8, 0.5, seed) whose first of three chunks (least
# vertex 0, 1..2 and 3..6 at n = 2) passes, found by scanning seeds from 0:
# seed 0 fails in neither worker's chunk, 3 in chunk 1 only, 6 in chunk 2
# only and 12 in both.
@pytest.mark.parametrize("engine", ["optimized", "naive"])
@pytest.mark.parametrize("seed, fails", [(0, (False, False)), (3, (True, False)),
                                         (6, (False, True)), (12, (True, True))])
def test_two_workers_report_their_chunks_in_order(counted_pool, monkeypatch, engine, seed, fails):
    """Each worker claims one chunk as it starts and answers one report; the
    caller puts the reports back in chunk order, whichever worker ran which."""
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    hg = sample(RandomModel(3, 8, 0.5, seed))
    thirds = checker._chunk_bounds(hg.m, 2, 3)
    assert thirds == [(0, 1), (1, 3), (3, 7)]
    chunk_fails = [checker._scan_chunk_naive(hg, 2, lo, hi, False)[0] is not None
                   for lo, hi in thirds]
    assert chunk_fails == [False, *fails]
    serial = is_nec(hg, 2, engine=engine, threads=1, record_witnesses=True)
    parallel = is_nec(hg, 2, engine=engine, threads=3, record_witnesses=True)
    assert CountedPool.sizes == CountedPool.chunks == [2]
    assert (parallel.holds, parallel.counterexample, parallel.stats.candidates_examined,
            parallel.witness_log) == (serial.holds, serial.counterexample,
                                      serial.stats.candidates_examined, serial.witness_log)


def test_more_workers_than_cores_claim_distinct_chunks(counted_pool, monkeypatch):
    """Five workers, more than a small host has cores, claim one chunk each: a
    lost update of the claim counter would scan one chunk twice and leave
    another out of the witness log."""
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    hg = sample(RandomModel(3, 12, 0.5, 0))
    assert len(checker._chunk_bounds(hg.m, 2, 6)) == 6
    serial = is_nec(hg, 2, threads=1, record_witnesses=True)
    assert serial.holds
    for _ in range(3):
        parallel = is_nec(hg, 2, threads=6, record_witnesses=True)
        assert (parallel.holds, parallel.stats.candidates_examined, parallel.witness_log) == (
            serial.holds, serial.stats.candidates_examined, serial.witness_log)
    assert CountedPool.sizes == CountedPool.chunks == [5, 5, 5]


def test_worker_exception_reaches_the_caller(mols4_build, counted_pool, monkeypatch):
    """A scan that raises in a worker raises the same exception from is_nec,
    not a broken pool; the caller's chunk passes, so the worker scans."""
    caller = os.getpid()
    scan = checker._scan_chunk_optimized

    def scanner(hg, n, lo, hi, record):
        if os.getpid() != caller:
            raise ArithmeticError(f"worker scan of least vertex {lo}")
        return scan(hg, n, lo, hi, record)

    monkeypatch.setitem(checker._SCANNERS, "optimized", scanner)
    hg = mols4_build.hypergraph  # 2-e.c.
    assert checker._chunk_bounds(hg.m, 2, 2) == [(0, 5), (5, 15)]
    with pytest.raises(ArithmeticError, match="worker scan of least vertex 5"):
        is_nec(hg, 2, threads=2)
    assert CountedPool.sizes == [1]


class UnpicklableHypergraph(hypergraph.Hypergraph):
    """A hypergraph that refuses to be pickled."""

    def __reduce_ex__(self, protocol):
        raise TypeError("this hypergraph refuses to be pickled")


@pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                    reason="the job reaches a worker unpickled only under fork")
def test_workers_check_a_hypergraph_that_cannot_be_pickled(mols4_build, counted_pool):
    """Under fork the job travels with the fork, so the hypergraph is never pickled."""
    built = mols4_build.hypergraph
    hg = UnpicklableHypergraph(built.h, built.m, built.edges)
    with pytest.raises(TypeError, match="refuses"):
        pickle.dumps(hg)
    serial = is_nec(hg, 2, threads=1, record_witnesses=True)
    parallel = is_nec(hg, 2, threads=2, record_witnesses=True)
    assert CountedPool.sizes == [1]
    assert serial.holds
    assert (parallel.holds, parallel.stats.candidates_examined, parallel.witness_log) == (
        serial.holds, serial.stats.candidates_examined, serial.witness_log)


def test_caller_failure_is_shared_with_the_pool(two_triple, mols4_build, monkeypatch_pool):
    """The shared index is the first of the pool initializer's arguments: 0
    once the caller's chunk fails, and the chunk count, above every chunk,
    while all pass."""
    assert checker._chunk_bounds(two_triple.m, 2, 2)[0] == (0, 1)
    assert is_nec(two_triple, 2, threads=2).counterexample == ((0, 1), ())
    assert InProcessPool.initargs[-1][0].value == 0
    assert is_nec(mols4_build.hypergraph, 2, threads=2).holds
    assert InProcessPool.initargs[-1][0].value == 2


def test_later_chunk_gives_up_after_a_lower_chunk_failed():
    calls = []

    def scanner(hg, n, lo, hi, record):
        calls.append((lo, hi))
        return (((lo,), ()) if lo == 7 else None), 1, None

    assert checker._scan_chunk(RawValue("i", 1), scanner, None, 1, 2, 5, 9, False) == (
        None, 0, None)
    assert calls == []
    # Not below: one least vertex per call, and the failure lowers the index.
    failed = RawValue("i", 3)
    assert checker._scan_chunk(failed, scanner, None, 1, 2, 5, 9, False) == (
        ((7,), ()), 3, None)
    assert calls == [(5, 6), (6, 7), (7, 8)]
    assert failed.value == 2
    # Chunk 0, the caller's, has no lower chunk: it never gives up, and its
    # failure lowers the index to 0, below a later chunk that failed first.
    calls.clear()
    failed = RawValue("i", 1)
    assert checker._scan_chunk(failed, scanner, None, 1, 0, 5, 9, False) == (
        ((7,), ()), 3, None)
    assert calls == [(5, 6), (6, 7), (7, 8)]
    assert failed.value == 0


@st.composite
def dense_hypergraphs(draw):
    """h = 2..5, m <= 9, each h-set an edge with probability p >= 0.5."""
    h = draw(st.integers(2, 5))
    m = draw(st.integers(h, 9))
    p = draw(st.floats(0.5, 1.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return new_hypergraph(h, m, [e for e in itertools.combinations(range(m), h) if rng.random() < p])


@pytest.mark.parametrize("hypergraphs", [sparse_hypergraphs, dense_hypergraphs])
@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), lo=st.sampled_from([0, 1]))
def test_scanner_matches_naive_chunk(hypergraphs, data, n, lo):
    """The prefix-shared T-split gives the naive scan's failure, count and witness log."""
    hg = data.draw(hypergraphs())
    assume(n <= hg.m)
    hi = hg.m - n + 1
    assert checker._scan_chunk_optimized(hg, n, lo, hi, True) == checker._scan_chunk_naive(
        hg, n, lo, hi, True)


def test_part_emptied_below_the_last_vertex_fails_at_its_t(monkeypatch):
    """Every neighbour of vertex 0 is one of vertex 1, so the prefix (0, 1)
    has an empty part at T = {0}: its list is cut after that part, and the
    prefix (0, 1, 2) keeps the same two parts.  S = (0, 1, 2, 3) then fails
    at that T, after T = {} passes."""
    extended = []
    extend = checker._extend

    def spied(*args):
        extended.append(extend(*args))
        return extended[-1]

    monkeypatch.setattr(checker, "_extend", spied)
    hg = new_hypergraph(2, 8, [(0, 4), (1, 4), (1, 5)])  # 6 and 7 form no edge
    fast = checker._scan_chunk_optimized(hg, 4, 0, 5, True)
    assert [len(parts) for parts in extended] == [2, 2, 2]
    assert not extended[1][1] and not extended[2][1]
    assert fast[0] == ((0, 1, 2, 3), (0,))
    assert fast[2] == {((0, 1, 2, 3), ()): (6,)}
    assert fast == checker._scan_chunk_naive(hg, 4, 0, 5, True)


def test_empty_part_0_of_a_complete_shadow_fails_at_t_empty(monkeypatch):
    """Vertex 0 is joined to every other vertex, so the shadow is complete and
    the prefix (0,) has an empty part 0.  Part 0 never cuts, so the list keeps
    growing, within the shadow's size plus two parts, and the first S under
    the prefix fails at T = {}, as the naive scan finds."""
    extended = []
    extend = checker._extend

    def spied(*args):
        extended.append(extend(*args))
        return extended[-1]

    monkeypatch.setattr(checker, "_extend", spied)
    hg = new_hypergraph(2, 6, [(0, v) for v in range(1, 6)])
    shadow = len(checker._shadow_index(hg).sets)
    assert checker._shadow_index(hg).complete
    for n, s_tuple in [(1, (0,)), (2, (0, 1)), (3, (0, 1, 2))]:
        extended.clear()
        fast = is_nec(hg, n, record_witnesses=True)
        slow = is_nec(hg, n, engine="naive", record_witnesses=True)
        assert fast.counterexample == slow.counterexample == (s_tuple, ())
        assert fast.stats.candidates_examined == slow.stats.candidates_examined
        assert fast.witness_log == slow.witness_log
        assert all(len(parts) <= shadow + 2 for parts in extended)
    assert [len(parts) for parts in extended] == [2, 3]


@given(st.integers(1, 200), st.integers(1, 200), st.integers(1, 64))
def test_chunk_bounds_tile_the_range_in_order(m, n, parts):
    """At most ``parts`` non-empty least-vertex ranges, contiguous, covering every S."""
    assume(n <= m)
    bounds = checker._chunk_bounds(m, n, parts)
    assert 1 <= len(bounds) <= parts
    assert bounds[0][0] == 0 and bounds[-1][1] == m - n + 1
    assert all(lo < hi for lo, hi in bounds)
    assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
    # Each cut is nearest to some i-th equal share: the S-set count below a
    # cut grows with it, so moving it one vertex either way takes it no closer.
    total = comb(m, n)
    for _, cut in bounds[:-1]:
        gaps = [[abs(parts * (total - comb(m - b, n)) - total * i) for b in (cut - 1, cut, cut + 1)]
                for i in range(1, parts)]
        assert any(here <= min(lower, higher) for lower, here, higher in gaps)


def test_index_is_built_once_per_value(mols4_build, monkeypatch_pool, monkeypatch):
    builds = []
    build = checker._ShadowIndex.__init__

    def counted(index, hg):
        builds.append(hg)
        build(index, hg)

    monkeypatch.setattr(checker._ShadowIndex, "__init__", counted)
    built = mols4_build.hypergraph
    hg = new_hypergraph(built.h, built.m, built.edges)  # a value with no index yet
    assert max_ec(hg, threads=2) == 2
    assert not is_nec(hg, 3, threads=4).holds
    # Under a start method other than fork the workers get the hypergraph
    # pickled: the per-vertex tables ride along, since unpickling skips
    # __init__, so they would get the parent's index, not a rebuild.
    index = vars(hg)["_shadow_index"]
    copy = vars(pickle.loads(pickle.dumps(hg)))["_shadow_index"]
    for table in ("free", "unjoined", "joined"):
        assert getattr(copy, table) == getattr(index, table)
    assert len(builds) == 1
    # Bit i of each table stands for sets[i].
    for v in range(hg.m):
        for i, key in enumerate(index.sets):
            free = v not in key
            joined = free and tuple(sorted(key + (v,))) in hg.edge_set
            assert bool(index.free[v] >> i & 1) == free
            assert bool(index.joined[v] >> i & 1) == joined
            assert bool(index.unjoined[v] >> i & 1) == (free and not joined)


@pytest.mark.parametrize("threads", [1, 2, 5000])
def test_index_over_size_limit_is_refused(two_triple, monkeypatch, threads):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started before the size check")

    monkeypatch.setattr(checker, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(hypergraph, "MAX_SETS", 4)  # the shadow has 5 pairs
    hg = new_hypergraph(3, 4, two_triple.edges)  # a value with no index yet
    with pytest.raises(CheckerUsageError, match="limit"):
        is_nec(hg, 1, threads=threads)


@pytest.mark.parametrize("m, refused", [(85, False), (86, True)])
def test_index_tables_over_size_limit_are_refused(monkeypatch, m, refused):
    """The index keeps m bitmaps over the shadow, so m * |U| is bounded too."""
    monkeypatch.setattr(hypergraph, "MAX_SETS", 4)  # budget 64 * 4 = 256 set-vertex pairs
    hg = new_hypergraph(3, m, [(0, 1, 2)])  # a 3-pair shadow: 255 pairs at m = 85
    if refused:
        with pytest.raises(CheckerUsageError, match="set-vertex pairs"):
            is_nec(hg, 1)
    else:
        assert not is_nec(hg, 1).holds


@pytest.mark.parametrize("threads", [1, 2])
def test_mols8_is_2ec_within_the_limit(mols8_build, threads):
    hg = mols8_build.hypergraph
    assert max_ec(hg, threads=threads) == 2
    failing = is_nec(hg, 3, threads=threads)
    assert failing.counterexample == ((0, 1, 2), (0, 1))


@pytest.mark.parametrize("n", [30, 57])
def test_large_n_matches_naive(mols8_build, n):
    """Large n stays a lazy walk over T: at n = 30 a table of all 2^n T-parts
    would hold 2^30 shadow bitmaps of 2016 bits."""
    hg = mols8_build.hypergraph
    fast = is_nec(hg, n)
    slow = is_nec(hg, n, engine="naive")
    # n = 30 fails at T = {0}: no edge through vertex 0 avoids the rest of S.
    # n = 57 fails at T = empty: each of the 7 free 6-sets forms an edge with S.
    assert fast.counterexample == (tuple(range(n)), (0,) if n == 30 else ())
    assert (fast.holds, fast.counterexample, fast.stats.candidates_examined) == (
        slow.holds, slow.counterexample, slow.stats.candidates_examined)


@pytest.fixture(scope="module")
def pg4_h4(pg4):
    return builders.build_from_design(pg4, 4).hypergraph


@pytest.mark.parametrize("name", ["mols5", "pg4-h4"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_larger_incomplete_shadows_match_naive(mols5_build, pg4_h4, name, n):
    """mols5 (25 vertices, a 300-set shadow) and pg4-h4 (21 vertices, 420
    sets) are past the sizes the generated hypergraphs reach: many T-parts
    per S, and T = {} walks past shadow sets joined to S."""
    hg = mols5_build.hypergraph if name == "mols5" else pg4_h4
    assert not checker._shadow_index(hg).complete
    slow = is_nec(hg, n, engine="naive", record_witnesses=True)
    for threads in (1, 2):
        fast = is_nec(hg, n, threads=threads, record_witnesses=True)
        assert fast.counterexample == slow.counterexample
        assert fast.stats.candidates_examined == slow.stats.candidates_examined
        assert fast.witness_log == slow.witness_log


@pytest.mark.parametrize("name, counts", [
    ("mols7", (4_756_297, 1_134_916_412, 2_541_818)),
    ("mols8", (238_432_352, 75_726_602_963, 105_820_982)),
])
def test_counts_beyond_the_naive_engine(mols7_build, mols8_build, name, counts):
    """Candidate counts the naive engine cannot reach in a test's time,
    pinned from the per-T rank that the rank table replaced."""
    hg = (mols7_build if name == "mols7" else mols8_build).hypergraph
    for n, count in enumerate(counts, 1):
        result = is_nec(hg, n)
        assert result.stats.candidates_examined == count
        assert result.counterexample == (None if n < 3 else ((0, 1, 2), (0, 1)))


def test_rank_table_gives_each_free_set_its_lex_position():
    """For m <= 14, k <= 6 and a random S of each size, including those that
    leave fewer than k free vertices: the table rank of each free k-set is
    its 1-based position in ``combinations(free, k)``."""
    rng = random.Random(13)
    for m in range(1, 15):
        for n in range(1, m + 1):
            s_tuple = tuple(sorted(rng.sample(range(m), n)))
            free = [x for x in range(m) if x not in s_tuple]
            above = checker._free_above(s_tuple, m)
            assert [above[x] for x in free] == list(range(m - n - 1, -1, -1))
            for k in range(1, 7):
                tails = [checker._RankRow(k - i) for i in range(k)]
                xs = list(itertools.combinations(free, k))
                ranks = [checker._rank_sum(tails, comb(m - n, k), above, [x]) for x in xs]
                assert ranks == list(range(1, len(xs) + 1))
                assert checker._rank_sum(tails, comb(m - n, k), above, xs) == sum(ranks)


@pytest.mark.parametrize("prefix, m", [((), 6), ((1,), 9), ((0, 4), 11)])
def test_free_counts_follow_the_last_vertex(prefix, m):
    """The scan keeps one count list per prefix: lowering the old last
    vertex's entry by one gives the counts for the next S."""
    start = prefix[-1] + 1 if prefix else 0
    above = checker._free_above(prefix + (start,), m)
    for v in range(start, m):
        s_tuple = prefix + (v,)
        fresh = checker._free_above(s_tuple, m)
        assert [above[x] for x in range(m) if x not in s_tuple] == [
            fresh[x] for x in range(m) if x not in s_tuple]
        above[v] -= 1


def test_rank_rows_hold_only_the_entries_read():
    """The rank rows fill as ranks read them, so many vertices under a large h
    cost no k x m table of binomials: an edgeless hypergraph gets no rows and
    fails at once, and one edge of 200 vertices among 20 000 fills one entry
    per row, not 20 000."""
    edgeless = hypergraph.parse_hypergraph(["60 100000"])
    result = is_nec(edgeless, 1)
    assert result.counterexample == ((0,), (0,))
    assert checker._shadow_index(edgeless).tails == []
    one_edge = new_hypergraph(200, 20_000, [range(200)])
    assert is_nec(one_edge, 1).counterexample == ((200,), (200,))
    tails = checker._shadow_index(one_edge).tails
    assert [row.r for row in tails] == list(range(199, 0, -1))
    assert list(map(len, tails)) == [1] * 199


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
