import dataclasses
import itertools
import multiprocessing
import os
import pickle
import random
from math import comb

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hyperec import builders, checker, designs, hypergraph
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
from hyperec.randomhg import RandomModel, estimate_ec_fraction, sample


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


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("h", range(2, 7))
def test_vertex_bound_matches_the_linear_scan(n, h):
    assert min_vertices_bound(n, h) == n + smallest_l(n, h)


def test_vertex_bound_takes_few_binomials(monkeypatch):
    """A linear scan would count l up to 2**64; the search stays far below 10 000 binomials."""
    calls = []

    def counted(a, b):
        calls.append(a)
        if len(calls) > 10_000:
            raise AssertionError("min_vertices_bound took over 10 000 binomials")
        return comb(a, b)

    monkeypatch.setattr(checker, "comb", counted)
    assert min_vertices_bound(64, 2) == 64 + 2**64


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


@pytest.mark.parametrize("n, threads", [(100.5, 1), (2.0, 1), (True, 1), ("2", 1), (None, 1),
                                        (2, 2.0), (2, True), (2, "2")])
def test_is_nec_refuses_n_and_threads_that_are_not_int(two_triple, n, threads):
    """A float, bool, str or None is a caller bug: it is refused before the
    range checks, never turned into a verdict or a bare ``TypeError``."""
    with pytest.raises(CheckerUsageError, match="must be int"):
        is_nec(two_triple, n, threads=threads)


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
    """Stands in for ``checker.ProcessPoolExecutor``: records its size and job,
    and runs ``fn(*args)`` once per worker in this process.

    The job stays in this process, as it does under fork; each result goes
    through pickle, as it would on its way back.  The workers scan one after
    another as the pool starts, before the caller, or with ``worker_first``
    false as their results are read, after the caller.
    """

    sizes: list[int] = []
    jobs: list[tuple] = []
    worker_first = True

    def __init__(self, max_workers, fn, args):
        self.sizes.append(max_workers)
        self.jobs.append(args)
        run = (pickle.loads(pickle.dumps(fn(*args))) for _ in range(max_workers))
        self.answers = list(run) if self.worker_first else run

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def results(self):
        yield from self.answers


@pytest.fixture
def monkeypatch_pool(monkeypatch):
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(InProcessPool, "jobs", [])
    monkeypatch.setattr(checker, "ProcessPoolExecutor", InProcessPool)


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


class CountedPool(checker.ProcessPoolExecutor):
    """A real process pool that records the size of each one started."""

    sizes: list[int] = []

    def __init__(self, max_workers, fn, args):
        self.sizes.append(max_workers)
        super().__init__(max_workers, fn, args)


@pytest.fixture
def counted_pool(monkeypatch):
    monkeypatch.setattr(CountedPool, "sizes", [])
    monkeypatch.setattr(checker, "ProcessPoolExecutor", CountedPool)


def test_pool_size_capped_at_cpu_count(mols4_build, counted_pool, monkeypatch):
    """The pool's workers plus the calling process fit the CPUs, with one worker at least."""
    hg = mols4_build.hypergraph
    serial = is_nec(hg, 2, threads=1)
    for threads in (2, 3, 10_000):
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            many = is_nec(hg, 2, threads=threads)  # C(16, 2) = 120 S-sets
            assert (many.holds, many.counterexample) == (serial.holds, serial.counterexample)
            assert many.stats.candidates_examined == serial.stats.candidates_examined
    # At most CPUs - 1 workers.
    assert CountedPool.sizes == [1, 1, 1, 1, 1, 2, 1, 1, 2]


class HookedPool(checker.ProcessPoolExecutor):
    """Subclasses the checker's pool name as a tracer does: ``__init__`` and
    ``shutdown`` record an event and call through to the real pool."""

    events: list[str] = []

    def __init__(self, *args, **kwargs):
        self.events.append("init")
        super().__init__(*args, **kwargs)

    def shutdown(self, *args, **kwargs):
        super().shutdown(*args, **kwargs)
        self.events.append("shutdown")


def test_pool_name_takes_a_subclass(mols4_build, monkeypatch):
    """A subclass patched over ``checker.ProcessPoolExecutor`` is built once
    per pooled check, its ``shutdown`` runs before the check returns, and the
    report is the serial one."""
    monkeypatch.setattr(HookedPool, "events", [])
    monkeypatch.setattr(checker, "ProcessPoolExecutor", HookedPool)
    hg = mols4_build.hypergraph
    serial = is_nec(hg, 2, threads=1, record_witnesses=True)
    assert HookedPool.events == []
    parallel = is_nec(hg, 2, threads=2, record_witnesses=True)
    assert HookedPool.events == ["init", "shutdown"]
    assert_no_children()  # shutdown reaped the worker
    assert (parallel.holds, parallel.counterexample, parallel.stats.candidates_examined,
            parallel.witness_log) == (serial.holds, serial.counterexample,
                                      serial.stats.candidates_examined, serial.witness_log)


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pool_left_unread_ends_its_workers(capfd):
    """Results the caller never reads, each larger than a pipe holds, do not
    keep a worker blocked: leaving the pool ends every worker, quietly, and
    closes its pipes."""
    before = sorted(os.listdir("/dev/fd"))
    with pytest.raises(ArithmeticError, match="the caller's own scan"):
        with checker.ProcessPoolExecutor(2, bytes, (1 << 20,)):
            raise ArithmeticError("the caller's own scan")
    assert sorted(os.listdir("/dev/fd")) == before
    assert_no_children()
    assert capfd.readouterr().err == ""


def test_pool_read_outside_a_scope_reaps_its_workers():
    """With no ``_kept_workers`` block open, a pool whose every result was
    read still ends its workers and closes their pipes as it shuts down."""
    before = sorted(os.listdir("/dev/fd"))
    with checker.ProcessPoolExecutor(2, bytes, (8,)) as pool:
        assert list(pool.results()) == [bytes(8)] * 2
    assert sorted(os.listdir("/dev/fd")) == before
    assert_no_children()


def test_every_pool_path_closes_its_pipes(mols4_build, two_triple, monkeypatch):
    """A holding check, a failing one, a worker's exception and a pool whose
    second fork fails leave open the file descriptors that were open before,
    and no child."""
    before = sorted(os.listdir("/dev/fd"))
    assert is_nec(mols4_build.hypergraph, 2, threads=2).holds
    assert not is_nec(two_triple, 2, threads=2).holds
    with pytest.raises(TypeError), checker.ProcessPoolExecutor(1, bytes, ("no encoding",)) as pool:
        list(pool.results())
    fork, forks = os.fork, []

    def second_fork_fails():
        forks.append(len(forks))
        if len(forks) > 1:
            raise BlockingIOError("fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    with pytest.raises(BlockingIOError, match="fork refused"):
        checker.ProcessPoolExecutor(3, bytes, (8,))
    assert forks == [0, 1]
    assert sorted(os.listdir("/dev/fd")) == before
    assert_no_children()


def counted_scans(monkeypatch, engine: str, stop: int):
    """Make ``engine`` count its scans of each least vertex below ``stop``.

    The counts sit in shared memory, so forked workers count into them too.
    """
    scans = multiprocessing.Array("i", stop)
    scan = checker._SCANNERS[engine]

    def scanner(hg, n, head, record):
        with scans.get_lock():
            scans[head[0]] += 1
        return scan(hg, n, head, record)

    monkeypatch.setitem(checker._SCANNERS, engine, scanner)
    return scans


def assert_claimed_once(scans, failure):
    """Each least vertex up to the failure's, or every one if none fails, was
    scanned exactly once, and no vertex twice."""
    last = failure[0][0] if failure else len(scans) - 1
    assert scans[:last + 1] == [1] * (last + 1)
    assert max(scans) == 1


# Draws of RandomModel(3, 8, 0.5, seed), found by scanning seeds from 0: at
# seed 3 with n = 2 only least vertex 2 fails, and at seed 0 with n = 3 every
# least vertex does, so the failure at 0 must win, whichever process finds a
# failure first.
@pytest.mark.parametrize("engine", ["optimized", "naive"])
@pytest.mark.parametrize("seed, n, fails_at_0", [(3, 2, False), (0, 3, True)])
def test_real_pool_reduces_chunks_in_order(counted_pool, monkeypatch, engine, seed, n,
                                           fails_at_0):
    hg = sample(RandomModel(3, 8, 0.5, seed))
    stop = hg.m - n + 1
    failures = [checker._scan_naive(hg, n, (v,), False)[0] for v in range(stop)]
    assert [f is not None for f in failures] == ([True] * stop if fails_at_0 else
                                                 [False, False, True] + [False] * (stop - 3))
    serial = is_nec(hg, n, engine=engine, threads=1)
    scans = counted_scans(monkeypatch, engine, stop)
    parallel = is_nec(hg, n, engine=engine, threads=2)
    assert CountedPool.sizes == [1]
    assert parallel.counterexample == next(filter(None, failures))
    assert_claimed_once(scans, parallel.counterexample)
    assert (parallel.holds, parallel.counterexample, parallel.stats.candidates_examined) == (
        serial.holds, serial.counterexample, serial.stats.candidates_examined)


def test_caller_chunk_failure_matches_serial_on_a_real_pool(counted_pool):
    """Least vertex 0 fails at the first S-set and no other least vertex
    fails; whichever process takes 0, the report is the serial one."""
    drawn = sample(RandomModel(3, 60, 0.5, 1))
    edges = [e for e in drawn.edges if 0 not in e]  # vertex 0 forms no edge
    serial = is_nec(new_hypergraph(3, 60, edges), 3, threads=1, record_witnesses=True)
    parallel = is_nec(new_hypergraph(3, 60, edges), 3, threads=2, record_witnesses=True)
    assert CountedPool.sizes == [1]
    assert serial.counterexample == ((0, 1, 2), (0,))
    assert (parallel.holds, parallel.counterexample, parallel.stats.candidates_examined,
            parallel.witness_log) == (serial.holds, serial.counterexample,
                                      serial.stats.candidates_examined, serial.witness_log)


# Draws of RandomModel(3, 8, 0.5, seed) in which least vertex 0 passes at n = 2,
# found by scanning seeds from 0.  ``fails`` says whether a least vertex in
# 1..2, taken by the three processes' first claims along with 0, fails, and
# whether one in 3..6, taken only after a first scan ends, does: seed 0 fails
# at none, 3 at 2, 6 at 3 and 12 at 1 and 4.
@pytest.mark.parametrize("engine", ["optimized", "naive"])
@pytest.mark.parametrize("seed, fails", [(0, (False, False)), (3, (True, False)),
                                         (6, (False, True)), (12, (True, True))])
def test_two_workers_report_their_chunks_in_order(counted_pool, monkeypatch, engine, seed, fails):
    """Each worker takes least vertices as it starts and sends one result;
    the caller puts the outcomes back in vertex order, whichever process
    scanned which vertex."""
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    hg = sample(RandomModel(3, 8, 0.5, seed))
    vertex_fails = [checker._scan_naive(hg, 2, (v,), False)[0] is not None for v in range(7)]
    assert (vertex_fails[0], any(vertex_fails[1:3]), any(vertex_fails[3:])) == (False, *fails)
    serial = is_nec(hg, 2, engine=engine, threads=1, record_witnesses=True)
    scans = counted_scans(monkeypatch, engine, 7)
    parallel = is_nec(hg, 2, engine=engine, threads=3, record_witnesses=True)
    assert CountedPool.sizes == [2]
    assert_claimed_once(scans, parallel.counterexample)
    assert (parallel.holds, parallel.counterexample, parallel.stats.candidates_examined,
            parallel.witness_log) == (serial.holds, serial.counterexample,
                                      serial.stats.candidates_examined, serial.witness_log)


def test_more_workers_than_cores_claim_distinct_chunks(counted_pool, monkeypatch):
    """Five workers, more than a small host has cores, and the caller share
    the counter: a lost update would scan one least vertex twice."""
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    hg = sample(RandomModel(3, 12, 0.5, 0))
    serial = is_nec(hg, 2, threads=1, record_witnesses=True)
    assert serial.holds
    scans = counted_scans(monkeypatch, "optimized", hg.m - 1)
    for _ in range(3):
        scans[:] = [0] * len(scans)
        parallel = is_nec(hg, 2, threads=6, record_witnesses=True)
        assert_claimed_once(scans, None)
        assert (parallel.holds, parallel.stats.candidates_examined, parallel.witness_log) == (
            serial.holds, serial.stats.candidates_examined, serial.witness_log)
    assert CountedPool.sizes == [5, 5, 5]


def test_worker_exception_reaches_the_caller(mols4_build, counted_pool, monkeypatch):
    """A scan that raises in a worker raises the same exception from is_nec,
    not a broken pool.  The caller waits to scan until the worker has taken
    a vertex, so the worker cannot find the counter used up."""
    caller = os.getpid()
    scan = checker._scan_optimized
    worker_scanned = multiprocessing.Event()

    def scanner(hg, n, head, record):
        if os.getpid() != caller:
            worker_scanned.set()
            raise ArithmeticError(f"worker scan of least vertex {head[0]}")
        assert worker_scanned.wait(timeout=60)
        return scan(hg, n, head, record)

    monkeypatch.setitem(checker._SCANNERS, "optimized", scanner)
    hg = mols4_build.hypergraph  # 2-e.c.
    with pytest.raises(ArithmeticError, match="worker scan of least vertex") as raised:
        is_nec(hg, 2, threads=2)
    assert 0 <= int(str(raised.value).split()[-1]) < hg.m - 1
    assert CountedPool.sizes == [1]


def test_worker_that_dies_without_a_result_fails_the_check(mols4_build, counted_pool,
                                                           monkeypatch):
    """A worker that exits before it sends its result, as a killed one does,
    raises an error naming its exit code: the check neither hangs nor returns
    a verdict.  The caller waits to scan until the worker has taken a vertex."""
    caller = os.getpid()
    scan = checker._scan_optimized
    worker_scanned = multiprocessing.Event()

    def scanner(hg, n, head, record):
        if os.getpid() != caller:
            worker_scanned.set()
            os._exit(3)
        assert worker_scanned.wait(timeout=60)
        return scan(hg, n, head, record)

    monkeypatch.setitem(checker._SCANNERS, "optimized", scanner)
    with pytest.raises(RuntimeError, match="exited with code 3 before it sent its result"):
        is_nec(mols4_build.hypergraph, 2, threads=2)
    assert CountedPool.sizes == [1]
    assert_no_children()


def test_worker_that_raises_system_exit_never_runs_the_callers_code(mols4_build, counted_pool,
                                                                    monkeypatch):
    """A scan that raises a ``BaseException`` other than an ``Exception`` in
    a worker ends that worker where it was forked: the check raises the error
    of a worker that sent nothing, and only the caller runs on past it."""
    caller = os.getpid()
    scan = checker._scan_optimized
    worker_scanned = multiprocessing.Event()

    def scanner(hg, n, head, record):
        if os.getpid() != caller:
            worker_scanned.set()
            raise SystemExit(0)
        assert worker_scanned.wait(timeout=60)
        return scan(hg, n, head, record)

    monkeypatch.setitem(checker._SCANNERS, "optimized", scanner)
    reader, writer = os.pipe()
    with open(reader, "rb") as arrived:
        try:
            with pytest.raises(RuntimeError,
                               match="exited with code 1 before it sent its result"):
                is_nec(mols4_build.hypergraph, 2, threads=2)
        finally:
            # Every process that gets here says so; a worker then leaves at once.
            os.write(writer, os.getpid().to_bytes(8, "little"))
            if os.getpid() != caller:
                os._exit(0)
            os.close(writer)
        assert arrived.read() == caller.to_bytes(8, "little")
    assert CountedPool.sizes == [1]
    assert_no_children()


def test_n_1_scans_in_the_caller_at_any_thread_count(counted_pool):
    """Each least vertex holds one S-set at n = 1, so a pool would only rebuild
    the per-S tables once per vertex, m times over: no pool starts."""
    matching = new_hypergraph(3, 3000, [(v, v + 1, v + 2) for v in range(0, 3000, 3)])
    serial = is_nec(matching, 1, threads=1, record_witnesses=True)
    parallel = is_nec(matching, 1, threads=2, record_witnesses=True)
    assert CountedPool.sizes == []
    assert serial.holds
    assert (parallel.holds, parallel.stats.candidates_examined, parallel.witness_log) == (
        serial.holds, serial.stats.candidates_examined, serial.witness_log)


def test_without_fork_the_caller_scans_alone(mols4_build, counted_pool, monkeypatch):
    """Where ``os.fork`` is missing no pool starts, whatever ``threads`` asks."""
    hg = mols4_build.hypergraph
    serial = is_nec(hg, 2, threads=1, record_witnesses=True)
    monkeypatch.delattr(os, "fork")
    parallel = is_nec(hg, 2, threads=2, record_witnesses=True)
    assert CountedPool.sizes == []
    assert (parallel.holds, parallel.stats.candidates_examined, parallel.witness_log) == (
        serial.holds, serial.stats.candidates_examined, serial.witness_log)


class UnpicklableHypergraph(hypergraph.Hypergraph):
    """A hypergraph that refuses to be pickled."""

    def __reduce_ex__(self, protocol):
        raise TypeError("this hypergraph refuses to be pickled")


def test_workers_check_a_hypergraph_that_cannot_be_pickled(mols4_build, counted_pool):
    """The job travels with the fork, so the hypergraph is never pickled."""
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


def report(result):
    return (result.holds, result.counterexample, result.stats.candidates_examined,
            result.witness_log)


def test_max_ec_levels_share_one_fork(mols5_build, forks, counted_pool):
    """Levels 2 and 3 of the MOLS q = 5 hypergraph, whose shadow is
    incomplete, are pooled checks on one worker, forked at level 2; it
    holds the hypergraph from then on, so level 3 never pickles it."""
    built = mols5_build.hypergraph
    hg = UnpicklableHypergraph(built.h, built.m, built.edges)
    serial = max_ec(hg, threads=1)
    assert forks == []
    assert max_ec(hg, threads=2) == serial == 2
    assert CountedPool.sizes == [1, 1]
    assert len(forks) == 1


def test_reused_worker_that_dies_fails_the_check(mols4_build, forks, monkeypatch):
    """A kept worker that exits on its second job fails that check with its
    exit code and is reaped; the next check of the scope forks afresh and
    gives the serial report."""
    caller = os.getpid()
    scan = checker._scan_optimized
    worker_scanned = multiprocessing.Event()

    def scanner(hg, n, head, record):
        if n == 3:
            if os.getpid() != caller:
                worker_scanned.set()
                os._exit(3)
            assert worker_scanned.wait(timeout=60)
        return scan(hg, n, head, record)

    hg = mols4_build.hypergraph
    serial = [is_nec(hg, n, record_witnesses=True) for n in (2, 3)]
    monkeypatch.setitem(checker._SCANNERS, "optimized", scanner)
    with checker._kept_workers:
        assert report(is_nec(hg, 2, threads=2, record_witnesses=True)) == report(serial[0])
        with pytest.raises(RuntimeError, match="exited with code 3 before it sent its result"):
            is_nec(hg, 3, threads=2)
        assert len(forks) == 1
        assert_no_children()
        monkeypatch.setitem(checker._SCANNERS, "optimized", scan)
        assert report(is_nec(hg, 3, threads=2, record_witnesses=True)) == report(serial[1])
        assert len(forks) == 2


def test_scope_serves_on_after_a_pool_left_unread(mols4_build, two_triple, forks):
    """A pool of kept workers left before its results are read ends them and
    the token pipe; the scope's next checks fork anew and give the serial
    reports, and its end leaves the file descriptors that were open before."""
    hg = mols4_build.hypergraph
    serial = [is_nec(g, 2, record_witnesses=True) for g in (hg, two_triple)]
    before = sorted(os.listdir("/dev/fd"))
    with checker._kept_workers:
        assert report(is_nec(hg, 2, threads=2, record_witnesses=True)) == report(serial[0])
        with pytest.raises(ArithmeticError, match="the caller's own scan"):
            with checker.ProcessPoolExecutor(1, bytes, (1 << 20,)):
                raise ArithmeticError("the caller's own scan")
        assert len(forks) == 1
        assert_no_children()
        for g, result in zip((hg, two_triple), serial):
            assert report(is_nec(g, 2, threads=2, record_witnesses=True)) == report(result)
        assert len(forks) == 2
    assert sorted(os.listdir("/dev/fd")) == before


def test_scope_left_by_an_exception_reaps_its_workers(mols4_build, forks):
    """A caller that raises inside a scope, between two checks, leaves no
    child and none of the scope's pipes open."""
    before = sorted(os.listdir("/dev/fd"))
    with pytest.raises(ArithmeticError, match="between two checks"):
        with checker._kept_workers:
            assert is_nec(mols4_build.hypergraph, 2, threads=2).holds
            raise ArithmeticError("the caller, between two checks")
    assert len(forks) == 1
    assert_no_children()
    assert sorted(os.listdir("/dev/fd")) == before


@pytest.fixture
def claims():
    """A token pipe as ``is_nec`` makes one, holding least vertex 0.  Its read
    end does not block, so a lost token fails a test instead of hanging it."""
    reader, writer = os.pipe()
    os.set_blocking(reader, False)
    with open(reader, "rb", 0) as reader, open(writer, "wb", 0) as writer:
        writer.write(bytes(8))
        yield reader, writer


def token(claims, value=None) -> int:
    """The token in ``claims``; it stays there, or ``value`` takes its place."""
    held = claims[0].read(8)
    assert held is not None and len(held) == 8, "the token is lost"
    v = int.from_bytes(held, "little")
    claims[1].write((v if value is None else value).to_bytes(8, "little"))
    return v


def test_caller_failure_is_shared_with_the_pool(two_triple, mols4_build, monkeypatch_pool,
                                                monkeypatch):
    """The token pipe is the first argument of the pool's job.  The caller
    scans first here: its failure at least vertex 0 moves the token to stop,
    past every vertex, so the worker starting after it takes none; with no
    failure the caller takes them all."""
    monkeypatch.setattr(InProcessPool, "worker_first", False)
    taken = []
    claim = checker._scan_claims

    def spied(*job):
        outcomes = claim(*job)
        taken.append((list(outcomes), token(job[0])))
        return outcomes

    monkeypatch.setattr(checker, "_scan_claims", spied)
    assert is_nec(two_triple, 2, threads=2).counterexample == ((0, 1), ())
    assert taken == [([0], 3), ([], 3)]  # the caller's vertices, then the worker's
    taken.clear()
    assert is_nec(mols4_build.hypergraph, 2, threads=2).holds
    assert taken == [(list(range(15)), 15), ([], 15)]


def test_later_chunk_gives_up_after_a_lower_chunk_failed(claims):
    """A process that takes a vertex scans it in full, though a later vertex
    fails meanwhile, and then takes no other: here the process that takes 5
    lets a second process take 6 and 7, which fails, while it scans."""
    calls = []
    token(claims, 5)

    def scanner(hg, n, head, record):
        calls.append(head[0])
        if head[0] == 5:
            assert checker._scan_claims(claims, scanner, None, 1, 9, False) == {
                6: (None, 1, None), 7: (((7,), ()), 1, None)}
        return ((head, ()) if head[0] == 7 else None), 1, None

    first = checker._scan_claims(claims, scanner, None, 1, 9, False)
    assert first == {5: (None, 1, None)}
    assert calls == [5, 6, 7]
    assert token(claims) == 9


def test_scan_claims_hands_out_least_vertices_in_order(claims):
    """Vertices go out in order, none above a failure, and a second caller
    on the used-up counter gets nothing."""
    calls = []

    def scanner(hg, n, head, record):
        calls.append(head)
        return ((head, ()) if head[0] == 3 else None), 1, None

    outcomes = checker._scan_claims(claims, scanner, None, 1, 9, False)
    assert calls == [(0,), (1,), (2,), (3,)]
    assert list(outcomes) == [0, 1, 2, 3]
    assert checker._merge(outcomes.values(), False) == (((3,), ()), 4, None)
    assert token(claims) == 9
    assert checker._scan_claims(claims, scanner, None, 1, 9, False) == {}
    assert len(calls) == 4
    # With no failure every vertex below stop goes out once.
    calls.clear()
    token(claims, 4)
    assert list(checker._scan_claims(claims, scanner, None, 1, 9, False)) == [4, 5, 6, 7, 8]
    assert token(claims) == 9


def test_scan_claims_stops_the_counter_on_an_exception(claims):
    """A scan that raises ends the hand-out as a failure does, so no process
    scans on before the error reaches the caller."""
    calls = []

    def scanner(hg, n, head, record):
        calls.append(head[0])
        if head[0] == 3:
            raise RuntimeError("scan broke")
        return None, 1, None

    with pytest.raises(RuntimeError, match="scan broke"):
        checker._scan_claims(claims, scanner, None, 1, 9, False)
    assert calls == [0, 1, 2, 3]
    assert token(claims) == 9
    assert checker._scan_claims(claims, scanner, None, 1, 9, False) == {}
    assert calls == [0, 1, 2, 3]


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
@given(data=st.data(), n=st.integers(1, 5), head=st.sampled_from([(), (0,), (1,)]))
def test_scanner_matches_naive_chunk(hypergraphs, data, n, head):
    """The prefix-shared T-split gives the naive scan's failure, count and
    witness log; unrecorded, its failure and count, with no log."""
    hg = data.draw(hypergraphs())
    assume(len(head) < n <= hg.m)
    for record in (True, False):
        assert checker._scan_optimized(hg, n, head, record) == checker._scan_naive(
            hg, n, head, record)


def assert_complement_dual(hg, n):
    """X is joined to exactly T in H iff it is joined to exactly S - T in the
    complement, so both give the same verdict and least failing S; a holding
    check also gives the same count and, under (S, T) -> (S, S - T), the same
    log.  A failing T is not compared: complementing reverses T's bitmask
    order, so each side may fail at a different T of that S."""
    result = is_nec(hg, n, record_witnesses=True)
    dual = is_nec(hg.complement(), n, record_witnesses=True)
    assert result.holds == dual.holds
    assert (result.counterexample or [None])[0] == (dual.counterexample or [None])[0]
    if result.holds:
        assert result.stats.candidates_examined == dual.stats.candidates_examined
        assert dual.witness_log == {
            (s, tuple(v for v in s if v not in t)): x for (s, t), x in result.witness_log.items()}


@pytest.mark.parametrize("hypergraphs", [sparse_hypergraphs, dense_hypergraphs])
@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_complement_gives_the_dual_check(hypergraphs, data, n):
    assert_complement_dual(data.draw(hypergraphs()), n)


def test_complement_of_mols4_gives_the_dual_check(mols4_build):
    hg = mols4_build.hypergraph
    result = is_nec(hg, 2)
    assert (result.holds, result.stats.candidates_examined) == (True, 7538)
    assert_complement_dual(hg, 2)


@pytest.mark.parametrize("record", [True, False])
def test_complete_shadow_fails_in_the_joined_half(record):
    """Every vertex lies in an edge, so the shadow of this graph is complete.
    S = (0, 1) has the parts of T = {} and {0}, and fails at T = {1}, the
    first T of the joined half.  T = {} finds X = (3,), 2nd of the free
    (2,), (3,), (4,); T = {0} finds (2,), 1st; the failing T tests all 3."""
    hg = new_hypergraph(2, 5, [(0, 1), (0, 2), (3, 4)])
    assert checker._shadow_index(hg).complete
    log = {((0, 1), ()): (3,), ((0, 1), (0,)): (2,)} if record else None
    expected = ((0, 1), (1,)), 2 + 1 + 3, log
    assert checker._scan_optimized(hg, 2, (), record) == expected
    assert checker._scan_naive(hg, 2, (), record) == expected


@st.composite
def complete_shadows(draw):
    """h = 2..4, m <= 10: h-sets drawn at random, then one edge through each
    (h-1)-set that no edge holds yet, so the (h-1)-shadow is complete."""
    h = draw(st.integers(2, 4))
    m = draw(st.integers(h, 10))
    p = draw(st.floats(0.0, 1.0))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = {e for e in itertools.combinations(range(m), h) if rng.random() < p}
    for x in itertools.combinations(range(m), h - 1):
        if not any(set(x) < set(e) for e in edges):
            edges.add(tuple(sorted(x + (rng.choice([v for v in range(m) if v not in x]),))))
    return new_hypergraph(h, m, edges)


MOLS4 = builders.build_from_mols(designs.complete_mols(4)).hypergraph  # 120 shadow sets


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(complete_shadows(), st.just(MOLS4)), st.integers(1, 4), st.data())
def test_packed_scan_matches_naive_on_complete_shadows(monkeypatch_pool, monkeypatch, hg, n, data):
    """Drawn with the hypergraph, a cap on packed shadows.  Under a cap of 0
    or |U| - 1 every S takes the list walk and the exact per-T path; under
    |U| or the default an unrecorded check takes the packed walk, and the S
    that fails the packed test the exact path, unless 2^(n-1) - 1 > |U|,
    where every list is cut; recorded, every S takes the list walk.  Either
    way the verdict, counterexample, count and log are the naive scan's, at
    one thread and two, and only a packed walk builds tables."""
    assume(n <= hg.m)
    hg = new_hypergraph(hg.h, hg.m, hg.edges)  # a value with no index yet
    index = checker._shadow_index(hg)
    assert index.complete
    size = len(index.sets)
    cap = data.draw(st.sampled_from([0, size - 1, size, checker._PACKED_MAX_SETS]), "cap")
    monkeypatch.setattr(checker, "_PACKED_MAX_SETS", cap)
    for record in (False, True):
        slow = report(is_nec(hg, n, engine="naive", record_witnesses=record))
        for threads in (1, 2):
            assert report(is_nec(hg, n, threads=threads, record_witnesses=record)) == slow
    assert list(index.packed) == ([n] if size <= cap and 1 << n - 1 <= size + 1 else [])


@pytest.mark.parametrize("threads", [1, 2])
def test_packed_pass_then_failure_in_the_joined_half(threads):
    """Every vertex lies in an edge, so the shadow is complete.  The prefix
    (0,) is uncut, with parts {1, 5, 6} and {2, 3, 4}.  S = (0, 1) passes
    the packed test, its witnesses 6, 2, 5 and 3 of ranks 5, 1, 4 and 2
    among the free 2..6.  S = (0, 2) fails it and takes the exact path:
    T = {} finds 1 and T = {0} finds 4, of ranks 1 and 3 among 1, 3..6, and
    T = {2}, the first T of the joined half, finds none, as each neighbour
    of 2 but 0 is one of 0, and tests all 5."""
    hg = new_hypergraph(2, 7, [(0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (2, 3), (5, 6)])
    result = is_nec(hg, 2, threads=threads)
    assert (result.counterexample, result.stats.candidates_examined) == (((0, 2), (2,)), 21)
    assert report(result) == report(is_nec(hg, 2, engine="naive"))
    if threads == 1:
        assert checker._shadow_index(hg).packed[2] is not None


def test_failure_under_a_cut_prefix_takes_the_exact_path(mols4_build):
    """Each neighbour of 0 but 1 is one of 1, so over this complete shadow
    the prefix (0, 1) has an empty part at T = {0}: the list walk cuts it,
    and the packed walk, which cuts nothing, has S = (0, 1, 2), the first S,
    fail the packed test.  Either way that S takes the exact path, passes
    T = {} with X = (3,), rank 1, and fails at T = {0} after the 2 free
    vertices.  mols4's shadow is complete too, but at n = 8 its 2^7 parts
    exceed the 120 shadow sets plus two, so every list is cut and no packed
    table is built."""
    hg = new_hypergraph(2, 5, [(0, 2), (1, 2), (3, 4)])
    built = mols4_build.hypergraph
    mols4 = new_hypergraph(built.h, built.m, built.edges)  # a value with no index yet
    for hg, n, count in [(hg, 3, 3), (mols4, 8, 29)]:
        assert checker._shadow_index(hg).complete
        for record in (False, True):
            result = is_nec(hg, n, record_witnesses=record)
            assert result.counterexample == (tuple(range(n)), (0,))
            assert result.stats.candidates_examined == count
            assert report(result) == report(is_nec(hg, n, engine="naive", record_witnesses=record))
        packed = checker._shadow_index(hg).packed
        assert list(packed) == ([] if hg is mols4 else [3]) and None not in packed.values()


def untimed(result):
    return dataclasses.replace(result, stats=dataclasses.replace(result.stats, elapsed_ms=0.0))


@pytest.mark.parametrize("threads", [1, 2])
def test_packed_tables_over_the_limit_fall_back_to_the_exact_path(mols4_build, monkeypatch,
                                                                    threads):
    """mols4's index needs 240 shadow points and tables of 30 words.  The
    packed tables for n hold 3 * 2^n - 2 fields of 128 bits, 120 and a
    guard in whole bytes, per vertex, 16 vertices: 128 words at n = 1 and
    320 at n = 2.  At a limit of 241 the n >= 2 checks take the exact path
    for every S, with the same results and no error."""
    built = mols4_build.hypergraph
    want = [is_nec(new_hypergraph(built.h, built.m, built.edges), n) for n in (1, 2, 3)]
    monkeypatch.setattr(hypergraph, "MAX_SETS", 241)
    hg = new_hypergraph(built.h, built.m, built.edges)  # a value with no index yet
    got = [is_nec(hg, n, threads=threads) for n in (1, 2, 3)]
    assert list(map(untimed, got)) == list(map(untimed, want))
    packed = checker._shadow_index(hg).packed
    assert packed[1] is not None
    if threads == 1:
        assert packed[2] is None


@pytest.mark.parametrize("cap, packs", [(119, False), (120, True)])
def test_shadows_past_the_cap_take_the_exact_path(mols4_build, monkeypatch_pool, monkeypatch,
                                                   cap, packs):
    """mols4's complete shadow holds 120 sets: under a cap of 119 its checks
    build no packed table, and every S takes the list walk and the exact
    path; under one of 120 its unrecorded checks take the packed walk.
    Either way each result, witness log included, is the one at the real
    cap, at n = 1 to 3 and at one thread and two."""
    built = mols4_build.hypergraph

    def checks():
        hg = new_hypergraph(built.h, built.m, built.edges)  # a value with no index yet
        results = [is_nec(hg, n, threads=threads, record_witnesses=record)
                   for n in (1, 2, 3) for threads in (1, 2) for record in (False, True)]
        return hg, [(untimed(r), r.witness_log) for r in results]

    want = checks()[1]
    monkeypatch.setattr(checker, "_PACKED_MAX_SETS", cap)
    hg, got = checks()
    assert got == want
    assert (checker._shadow_index(hg).packed != {}) == packs


def test_wide_random_shadow_takes_the_exact_path(monkeypatch):
    """A seed-7 sample of 100 vertices at h = 3 has a complete shadow of
    C(100, 2) = 4 950 sets, past the cap: its n = 2 check builds no packed
    table, and gives the result that the packed scan gives past the cap."""
    hg = sample(RandomModel(3, 100, 0.5, 7))
    index = checker._shadow_index(hg)
    assert index.complete and len(index.sets) == 4950 > checker._PACKED_MAX_SETS
    exact = is_nec(hg, 2)
    assert (exact.holds, exact.stats.candidates_examined) == (True, 82455)
    assert index.packed == {}
    monkeypatch.setattr(checker, "_PACKED_MAX_SETS", 4950)
    assert untimed(is_nec(hg, 2)) == untimed(exact)
    assert index.packed[2] is not None


def test_kept_worker_is_sent_no_packed_table(monkeypatch):
    """The tables are built by the scan that needs them, in each process, so
    the hypergraph that a kept worker is sent for the next trial, pickled,
    holds none, though the caller has built its own by then."""
    sent, send = [], checker._Worker.send

    def spied(worker, job):
        sent.append([dict(vars(x)["_shadow_index"].packed) for x in job
                     if isinstance(x, hypergraph.Hypergraph)])
        send(worker, job)

    monkeypatch.setattr(checker._Worker, "send", spied)
    model = RandomModel(3, 14, 0.5, 7)
    assert estimate_ec_fraction(model, 3, trials=6, threads=2) == estimate_ec_fraction(
        model, 3, trials=6)
    assert sent == [[{}]] * 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_isolated_vertices_share_the_index_tables(n):
    """Vertices in no edge share one free, joined and unjoined entry, and the
    check still matches the naive engine's verdict, count and log."""
    hg = new_hypergraph(3, 9, [(0, 2, 4), (0, 2, 5), (0, 4, 5), (2, 4, 5), (1, 4, 6)])
    index = checker._shadow_index(hg)
    assert [v for v in range(9) if index.free[v] == index.full] == [3, 7, 8]
    assert {(index.joined[v], index.unjoined[v]) for v in (3, 7, 8)} == {(0, index.full)}
    fast = is_nec(hg, n, record_witnesses=True)
    slow = is_nec(hg, n, engine="naive", record_witnesses=True)
    assert (fast.holds, fast.counterexample, fast.stats.candidates_examined) == (
        slow.holds, slow.counterexample, slow.stats.candidates_examined)
    assert fast.witness_log == slow.witness_log


@pytest.mark.parametrize("engine", ["optimized", "naive"])
@pytest.mark.parametrize("hypergraphs", [sparse_hypergraphs, dense_hypergraphs, complete_shadows])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 5))
def test_least_vertex_scans_merge_to_the_full_scan(hypergraphs, engine, data, n):
    """What a pool relies on, with no pool: the scans of heads (v,), merged
    in vertex order, give the scan of head () its failure, count and log.
    Recorded, every scan takes the list walk; unrecorded, a complete
    shadow's take the packed walk."""
    hg = data.draw(hypergraphs())
    assume(n <= hg.m)
    scanner = checker._SCANNERS[engine]
    for record in (True, False):
        heads = ((v,) for v in range(hg.m - n + 1))
        assert checker._merge((scanner(hg, n, head, record) for head in heads), record) == scanner(
            hg, n, (), record)


@pytest.mark.parametrize("hypergraphs", [sparse_hypergraphs, dense_hypergraphs])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_prefixes_match_combinations_extended_vertex_by_vertex(hypergraphs, data, n):
    """Every head of fewer than n vertices, () and (v,) included, and those
    with no room left for S: the walk gives the (n-1)-subsets P of the
    vertices below the last that start with the head, as ``combinations``
    lists them, each with the parts that ``_extend`` builds vertex by vertex
    and the shadow sets free of P."""
    hg = data.draw(hypergraphs())
    assume(n <= hg.m)
    index = checker._shadow_index(hg)
    for size in range(n):
        for head in itertools.combinations(range(hg.m), size):
            want = []
            for prefix in itertools.combinations(range(hg.m - 1), n - 1):
                if prefix[:size] == head:
                    parts, allowed = [index.full], index.full
                    for v in prefix:
                        parts = checker._extend(parts, index.unjoined[v], index.joined[v])
                        allowed &= index.free[v]
                    want.append((prefix, parts, allowed))
            assert list(checker._prefixes(index, n, head, hg.m)) == want, head


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
    fast = checker._scan_optimized(hg, 4, (), True)
    assert [len(parts) for parts in extended] == [2, 2, 2]
    assert not extended[1][1] and not extended[2][1]
    assert fast[0] == ((0, 1, 2, 3), (0,))
    assert fast[2] == {((0, 1, 2, 3), ()): (6,)}
    assert fast == checker._scan_naive(hg, 4, (), True)


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
    # A pickled copy of the value carries the per-vertex tables along, since
    # unpickling skips __init__: it gets the parent's index, not a rebuild.
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


def test_shadow_is_counted_in_points_as_it_is_listed(monkeypatch):
    """25 disjoint triples have a shadow of 75 pairs, 150 points; the first
    column of edges alone lists 25 of them, 50 points, so a limit of 49
    stops the listing there, before the rest of the shadow is listed."""
    edges = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(25)]
    monkeypatch.setattr(hypergraph, "MAX_SETS", 150)
    assert len(checker._shadow_index(new_hypergraph(3, 75, edges)).sets) == 75
    hg = new_hypergraph(3, 75, edges)  # a value with no index yet
    monkeypatch.setattr(hypergraph, "MAX_SETS", 49)
    with pytest.raises(CheckerUsageError, match=(
            r"^listing the \(h-1\)-shadow, 25 sets of 2 so far, 50 points, is above the "
            "limit of 49$")):
        is_nec(hg, 1)


@pytest.mark.parametrize("m, refused", [(85, False), (86, True)])
def test_index_tables_over_size_limit_are_refused(monkeypatch, m, refused):
    """The index keeps m bitmaps over the shadow, so its ceil(m * |U| / 64)
    64-bit words per table are bounded too.  The words pass the shadow's
    (h-1) |U| points only when m > 64 (h-1), so this is a graph, h = 2."""
    monkeypatch.setattr(hypergraph, "MAX_SETS", 100)
    # A path on 0..74: a 75-vertex shadow of 75 points, 6375 bits in 100 words
    # at m = 85 and 6450 bits in 101 words at m = 86.
    hg = new_hypergraph(2, m, [(i, i + 1) for i in range(74)])
    if refused:
        with pytest.raises(CheckerUsageError, match=(
                "^a table of 86 bitmaps of 75 bits, 101 64-bit words, is above the limit of 100$")):
            is_nec(hg, 1)
    else:
        assert not is_nec(hg, 1).holds


@pytest.mark.parametrize("threads", [1, 2])
def test_index_over_vertex_limit_is_refused(monkeypatch, threads):
    """An edgeless hypergraph has an empty shadow, so its tables hold no bits,
    but each still lists one bitmap per vertex.  A value over the vertex limit
    cannot be built, so no index or pool is sized by one; a value at the
    limit is checked with tables of one entry per vertex."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool started at n = 1")

    monkeypatch.setattr(checker, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(hypergraph, "MAX_SETS", 8)
    with pytest.raises(hypergraph.HypergraphError,
                       match="^a hypergraph on 9 vertices is above the limit of 8$"):
        empty_hypergraph(3, 9)
    hg = empty_hypergraph(3, 8)
    assert is_nec(hg, 1, threads=threads).counterexample == ((0,), (0,))
    assert len(checker._shadow_index(hg).free) == 8


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
    if n == 30:  # 2^29 parts exceed the shadow's 2016 plus two: every prefix is cut
        assert checker._shadow_index(hg).packed == {}


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
    its 1-based position in ``combinations(free, k)``, and ``_unrank`` gives
    the set back from it."""
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
                assert [checker._unrank(tails, comb(m - n, k), m, s_tuple, r) for r in ranks] == xs


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
    cost no k x m table of binomials: an edgeless hypergraph fails at once
    and reads no row, and one edge of 200 vertices among 20 000 fills one
    entry per row, not 20 000."""
    edgeless = hypergraph.parse_hypergraph(["60 100000"])
    result = is_nec(edgeless, 1)
    assert result.counterexample == ((0,), (0,))
    assert list(map(len, checker._shadow_index(edgeless).tails)) == [0] * 59
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
