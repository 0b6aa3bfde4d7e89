"""Exhaustive n-existential-closure checking.

A hypergraph is n-e.c. when every n-set S and every T inside S admit an
(h-1)-set X outside S that forms an edge with each vertex of T and with no
vertex of S minus T.  The checker decides this by exhaustive search and
reports either success or the least counterexample.

Determinism contract (independent of engine and thread count):

* S ranges over n-subsets of the vertices in lexicographic order.
* T ranges over subsets of S in bitmask order, bit i standing for the i-th
  smallest vertex of S.
* The witness reported for a pair is the lexicographically first X.
* The counterexample reported is the first failing (S, T) in that order, and
  ``candidates_examined`` counts the X sets a sequential lexicographic scan
  would have tested up to that point.

Two engines.  ``optimized`` indexes the (h-1)-shadow of the edges, the
(h-1)-sets that lie inside some edge, at most h times the edge count.  The
index is built once per hypergraph value, before any process pool starts,
and kept on the value, so every level of :func:`max_ec` and every pool worker
shares it.  Only a shadow set forms an edge with anything, so the witnesses
of T non-empty lie in the shadow.  The S-sets that share an (n-1)-prefix P
share its T-split, a list of parts, one per T inside P, each holding the
shadow sets joined to exactly the vertices of that T; each S under P then
costs one AND per T.  A non-empty T whose part is empty fails for every S
under P, so the list is cut after the first such part and grows no more: it
never holds more than two parts beyond the shadow's size.  Part 0 never
cuts.  With T empty the witness may lie outside the shadow, so that part
counts only when the shadow holds every (h-1)-set; otherwise the query tests
the lex-first free (h-1)-set in one step and, only when that set is joined to
S, walks on past the shadow sets joined to S.  ``candidates_examined`` adds
up each witness's lex rank: over a complete shadow a popcount per T,
otherwise a sum from a table of binomials, taken once per S over the
witnesses of all its T.  ``naive`` is the direct three-level loop kept as an
independent oracle.

A pooled check, ``threads`` > 1 at n >= 2 where ``os.fork`` exists, forks
its workers and shares work and results with them through pipes; only it
imports ``pickle``, once per process.
"""

from __future__ import annotations

import itertools
import os
import time
from bisect import bisect_right
from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain
from math import comb
from operator import getitem
from typing import Iterable, Optional

from . import hypergraph
from .errors import CheckerUsageError
from .hypergraph import Hypergraph

Pair = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class CheckStats:
    candidates_examined: int
    elapsed_ms: float
    note: str = ""


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    n: int
    counterexample: Optional[Pair]
    stats: CheckStats
    witness_log: Optional[dict[Pair, tuple[int, ...]]] = field(default=None, compare=False)


def min_edges_bound(n: int) -> int:
    """Fewest edges any n-e.c. hypergraph can have: n * 2**(n-1)."""
    if n < 1:
        raise CheckerUsageError(f"n must be >= 1, got {n}")
    return n * 2 ** (n - 1)


def min_vertices_bound(n: int, h: int) -> int:
    """Fewest vertices: n plus the least l with C(l, h-1) >= 2**n."""
    if n < 1:
        raise CheckerUsageError(f"n must be >= 1, got {n}")
    if h < 2:
        raise CheckerUsageError(f"h must be >= 2, got {h}")
    need = 2**n
    lo, hi = 0, 1  # C(l, h-1) grows with l: keep C(lo, h-1) < need <= C(hi, h-1)
    while comb(hi, h - 1) < need:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if comb(mid, h - 1) < need else (lo, mid)
    return n + hi


def correctly_joined(
    hg: Hypergraph, x: Iterable[int], t: Iterable[int], s: Iterable[int]
) -> bool:
    """True iff X forms an edge with every vertex of T and none of S minus T.

    Precondition violations (wrong |X|, X meeting S, T not inside S, members
    out of range) raise :class:`CheckerUsageError` so a caller bug is never
    mistaken for a false verdict.
    """
    xs = tuple(sorted(x))
    if len(xs) != hg.h - 1 or len(set(xs)) != len(xs):
        raise CheckerUsageError(f"X must be {hg.h - 1} distinct vertices, got {xs}")
    ss, ts = _query_sets(hg, s, t, xs)
    if ss.intersection(xs):
        raise CheckerUsageError("X must be disjoint from S")
    return _joined_raw(hg.edge_set, xs, ts, ss)


def _query_sets(hg: Hypergraph, s, t, x=()) -> tuple[frozenset[int], frozenset[int]]:
    """S and T as sets, once every vertex of X, T and S is in range and T is inside S."""
    ss, ts = frozenset(s), frozenset(t)
    for v in itertools.chain(x, ts, ss):
        if not 0 <= v < hg.m:
            raise CheckerUsageError(f"vertex {v} out of range [0, {hg.m})")
    if not ts <= ss:
        raise CheckerUsageError("T must be a subset of S")
    return ss, ts


def _joined_raw(edge_set, xs, ts, ss) -> bool:
    for z in ts:
        if tuple(sorted(xs + (z,))) not in edge_set:
            return False
    for v in ss:
        if v not in ts and tuple(sorted(xs + (v,))) in edge_set:
            return False
    return True


def find_witness(
    hg: Hypergraph, s: Iterable[int], t: Iterable[int]
) -> Optional[tuple[int, ...]]:
    """Lexicographically first correctly-joined X outside S, or None.

    Out-of-range vertices and T not inside S raise :class:`CheckerUsageError`,
    as in :func:`correctly_joined`.
    """
    ss, ts = _query_sets(hg, s, t)
    free = [v for v in range(hg.m) if v not in ss]
    edge_set = hg.edge_set
    for xs in itertools.combinations(free, hg.h - 1):
        if _joined_raw(edge_set, xs, ts, ss):
            return xs
    return None


# ---------------------------------------------------------------------------
# Optimized engine: the (h-1)-shadow of the edges, per-vertex bitmaps over it.


class _ShadowIndex:
    """Bitmaps over the shadow U, the (h-1)-sets that lie inside some edge.

    Only a member of U forms an edge with any vertex, so when T is non-empty
    every witness lies in U.  ``sets`` lists U in lexicographic order, and bit
    i of each bitmap stands for ``sets[i]``.  Per vertex v, ``free[v]`` holds
    the sets without v, ``joined[v]`` those of them that form an edge with v
    and ``unjoined[v]`` the rest.  ``complete`` says that U holds every
    (h-1)-set of the vertices; when it does not, ``tails`` holds the
    ``_RankRow`` rows of the scan's witness ranks.
    """

    def __init__(self, hg: Hypergraph):
        # Each edge in one pass: its (h-1)-subsets in lex order omit its
        # vertices from the last to the first.
        links: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
        for e in hg.edges:
            for key, v in zip(itertools.combinations(e, hg.h - 1), reversed(e)):
                links[key].append(v)
        # Bound the shadow, and the 64-bit words of each table below of m bitmaps over it.
        size, words = len(links), -(-hg.m * len(links) // 64)
        hypergraph.check_listing(size, f"the (h-1)-shadow, {size} sets,", CheckerUsageError)
        hypergraph.check_listing(words, f"a table of {hg.m} bitmaps of {size} bits, {words} "
                                 "64-bit words,", CheckerUsageError)
        self.sets = sorted(links)
        nbytes = (len(self.sets) + 7) // 8 or 1
        join_bits = [bytearray(nbytes) for _ in range(hg.m)]
        touch_bits = [bytearray(nbytes) for _ in range(hg.m)]
        for i, key in enumerate(self.sets):
            byte, bit = i >> 3, 1 << (i & 7)
            for v in links[key]:
                join_bits[v][byte] |= bit
            for v in key:
                touch_bits[v][byte] |= bit
        self.full = (1 << len(self.sets)) - 1
        self.complete = len(self.sets) == comb(hg.m, hg.h - 1)
        self.free = [self.full & ~int.from_bytes(b, "little") for b in touch_bits]
        # A set that forms an edge with v does not hold v.
        self.joined = [int.from_bytes(b, "little") for b in join_bits]
        self.unjoined = [f & ~j for f, j in zip(self.free, self.joined)]
        # The rank rows start empty and fill as ranks read them.  An empty
        # shadow ranks no witness and gets none; otherwise there are fewer
        # rows than shadow sets, since one edge has h of them.
        k = hg.h - 1
        self.tails = None if self.complete else [
            _RankRow(k - i) for i in range(k if self.sets else 0)]


def _shadow_index(hg: Hypergraph) -> _ShadowIndex:
    """The index of ``hg``, built on first use and kept on the value.

    It sits in the instance ``__dict__``, as a ``cached_property`` would, so
    every later check of the same value reuses it, and pool workers, forked
    with the value, carry it; so does a pickled copy.  Raises
    :class:`CheckerUsageError`, before any table is listed, when the shadow's
    sets or a table's 64-bit words, ceil(m * |U| / 64), number more than
    ``hypergraph.MAX_SETS``.  :func:`is_nec` has bounded the vertices already.
    """
    index = vars(hg).get("_shadow_index")
    if index is None:
        index = vars(hg)["_shadow_index"] = _ShadowIndex(hg)
    return index


def _subset(s_tuple: tuple[int, ...], tmask: int) -> tuple[int, ...]:
    """The members of S whose bits are set in ``tmask``."""
    return tuple(v for i, v in enumerate(s_tuple) if (tmask >> i) & 1)


def _first_unjoined(sets, free_p, j: int, k: int, allowed: int, w: int):
    """(lex position + 1, X) of the first free k-set X joined to no vertex of S, or None.

    The free vertices of S are ``free_p`` less its entry j.  X qualifies
    when it lies outside the shadow or its bit is set in ``w``.  ``allowed``
    holds the free members of the shadow, whose lex order is the order of
    their bits: walking the free k-sets in lex order, the lowest unconsumed
    bit is the next shadow set, and any X before it lies outside.  The first
    X is sliced from ``free_p``; the free vertices of S are listed only when
    the walk goes past it.
    """
    if len(free_p) <= k:
        return None  # fewer than k free vertices
    xs = free_p[:k] if j >= k else free_p[:j] + free_p[j + 1:k + 1]
    later = None
    for steps in itertools.count(1):
        low = allowed & -allowed
        if not low or sets[low.bit_length() - 1] != xs or w & low:
            return steps, xs
        allowed ^= low
        if later is None:
            later = itertools.islice(
                itertools.combinations(free_p[:j] + free_p[j + 1:], k), 1, None)
        xs = next(later, None)
        if xs is None:
            return None


def _extend(parts: list[int], unjoined: int, joined: int) -> list[int]:
    """The T-parts of a prefix of S extended by one vertex v, from v's two tables.

    The parts without v come first, since v takes the next bit of T.  The
    list ends at its first empty part at index 1 or above: every S-set under
    the prefix fails at or before that T.  An empty part stays empty, so a
    list cut once is cut again within its unjoined half.  Part 0 never cuts:
    each S tests T = {} first.
    """
    parts = [p & unjoined for p in parts] + [p & joined for p in parts]
    for t in range(1, len(parts)):
        if not parts[t]:
            return parts[: t + 1]
    return parts


def _prefixes(index: _ShadowIndex, n: int, lo: int, hi: int, m: int):
    """(P, parts, allowed) for the (n-1)-prefixes P of the S-sets with least vertex in [lo, hi).

    In lex order.  ``allowed`` holds the shadow sets without a vertex of P,
    and ``parts[t]`` those of them joined to exactly the vertices of P whose
    bits are set in t.  A walk with an explicit stack, so any n fits.
    """
    if n == 1:
        yield (), [index.full], index.full
        return
    stack = [((), [index.full], index.full)]
    nexts = [iter(range(lo, hi))]
    while nexts:
        v = next(nexts[-1], None)
        if v is None:
            nexts.pop()
            stack.pop()
            continue
        prefix, parts, allowed = stack[-1]
        prefix += (v,)
        child = (prefix, _extend(parts, index.unjoined[v], index.joined[v]),
                 allowed & index.free[v])
        if len(prefix) == n - 1:
            yield child
        else:
            stack.append(child)
            nexts.append(iter(range(v + 1, m - n + len(prefix) + 1)))


class _RankRow(dict):
    """C(a, r) by a: row i of the rank table, with r = k - i, for free k-sets.

    By the combinatorial number system, a free k-set whose i-th member has
    a_i free vertices above it has the sum over i of C(a_i, k - i) free
    k-sets after it in lex order.  An entry is worked out when a rank first
    reads it and kept, so the rows hold only the entries the scans read, at
    most one per free vertex count, and serve every S and every n.
    """

    __slots__ = ("r",)

    def __init__(self, r: int):
        super().__init__()
        self.r = r

    def __missing__(self, a: int) -> int:
        value = self[a] = comb(a, self.r)
        return value


def _free_above(s_tuple: tuple[int, ...], m: int) -> list[int]:
    """For each vertex x, the vertices above x less the members of S above x.

    For x outside S that is the number of free vertices above it.  When the
    last vertex v of S moves on to v + 1, v becomes free and its entry drops
    by one; no other free vertex's entry changes.
    """
    return [m - 1 - x - (len(s_tuple) - bisect_right(s_tuple, x)) for x in range(m)]


def _rank_sum(tails: list[_RankRow], total: int, above: list[int], found) -> int:
    """The sum of the 1-based lex ranks of the free k-sets in ``found``, in one C-level chain.

    ``total`` is C(m - n, k), the number of free k-sets, and ``above`` is
    ``_free_above`` of S.  A set's rank is ``total`` less the sum of its
    members' entries of ``tails``, row i at the count in ``above`` of its
    i-th member.
    """
    r = len(found)
    return r * total - sum(
        map(getitem, tails * r, map(above.__getitem__, chain.from_iterable(found))))


def _scan_chunk_optimized(hg: Hypergraph, n: int, lo: int, hi: int, record: bool):
    """Scan the S-sets whose least vertex is in [lo, hi); stop early at the first failure.

    Returns (failure, examined, log) where failure is the first failing
    (S, T) or None, and examined counts candidates tested up to the stop
    point.  The S-sets that share an (n-1)-prefix P share its T-split: a list
    whose part t holds the allowed shadow sets joined to exactly the vertices
    of P in t, so the witnesses of all T for one S cost one AND per T.  A
    part empty at index 1 or above fails every S under P, so the list is cut
    after it, and the longer prefixes keep only its unjoined side.  Until
    then its parts from index 1 on are non-empty disjoint subsets of the
    shadow, so it never holds more than the shadow's size plus two parts:
    mols8 at n = 30 builds no 2^29 of them.  Part 0 never cuts: each S tests
    T = {} first, in the shadow or, when it is incomplete, past it.

    A witness found in the shadow counts its 1-based lex rank among the free
    (h-1)-sets.  From a complete shadow that is a popcount per T; otherwise
    ``_rank_sum`` takes it from the ``_RankRow`` table, once per S for the
    witnesses of T = 1, 2, ... up to the first empty part.  T = {} goes to
    ``_first_unjoined``, which tests the lex-first free (h-1)-set before it
    lists the free vertices of S.  The table and the walk are exact for a
    complete shadow too, but a dense random sample, whose shadow is nearly
    always complete, checks two to three times faster by popcount.
    """
    index = _shadow_index(hg)
    sets, complete = index.sets, index.complete
    unjoined, joined = index.unjoined, index.joined
    m, k = hg.m, hg.h - 1
    nfree = m - n
    total = comb(nfree, k)  # free (h-1)-sets of every S
    tails = index.tails
    examined = 0
    log: dict[Pair, tuple[int, ...]] | None = {} if record else None
    for prefix, parts, allowed_p in _prefixes(index, n, lo, hi, m):
        vs = range(prefix[-1] + 1, m) if prefix else range(lo, hi)
        if not complete:
            # The free vertices of S are the prefix's without v, its free
            # vertex number v - len(prefix); ``above`` counts them above each
            # vertex and moves on with v, as ``_free_above`` says.
            free_p = tuple(u for u in range(m) if u not in prefix)
            above = _free_above(prefix + (vs.start,), m)
        for v in vs:
            s_tuple = prefix + (v,)
            allowed = allowed_p & index.free[v]
            # Not cut: ws[t] is the witness set of T = t.  Cut: the scan stops
            # at the list's empty last part, before the joined half, where
            # the list's missing parts would shift the indices.
            un, jo = unjoined[v], joined[v]
            ws = [p & un for p in parts] + [p & jo for p in parts]
            if complete:
                for tmask, w in enumerate(ws):
                    if not w:
                        return (s_tuple, _subset(s_tuple, tmask)), examined + total, log
                    low = w & -w
                    examined += (allowed & (low - 1)).bit_count() + 1
                    if record:
                        log[(s_tuple, _subset(s_tuple, tmask))] = sets[low.bit_length() - 1]
                continue
            # T is empty, where X need not lie in the shadow.
            hit = _first_unjoined(sets, free_p, v - len(prefix), k, allowed, ws[0])
            if hit is None:
                return (s_tuple, ()), examined + total, log
            examined += hit[0]
            if record:
                log[(s_tuple, ())] = hit[1]
            # T = 1, 2, ... up to the first empty part, where S fails.
            end = (ws + [0]).index(0, 1)
            found = [sets[(w & -w).bit_length() - 1] for w in ws[1:end]]
            examined += _rank_sum(tails, total, above, found)
            above[v] -= 1  # v is free in the next S, below its last vertex
            if record:
                for tmask, witness in enumerate(found, 1):
                    log[(s_tuple, _subset(s_tuple, tmask))] = witness
            if end < len(ws):
                return (s_tuple, _subset(s_tuple, end)), examined + total, log
    return None, examined, log


def _scan_chunk_naive(hg: Hypergraph, n: int, lo: int, hi: int, record: bool):
    """Reference scan: direct loops over S, T, and X, shared with nothing."""
    examined = 0
    log: dict[Pair, tuple[int, ...]] | None = {} if record else None
    edge_set = hg.edge_set
    for s_tuple in ((v,) + rest for v in range(lo, hi)
                    for rest in itertools.combinations(range(v + 1, hg.m), n - 1)):
        s_set = set(s_tuple)
        free = [v for v in range(hg.m) if v not in s_set]
        for tmask in range(1 << n):
            ts = frozenset(s_tuple[i] for i in range(n) if (tmask >> i) & 1)
            witness = None
            for xs in itertools.combinations(free, hg.h - 1):
                examined += 1
                if _joined_raw(edge_set, xs, ts, s_set):
                    witness = xs
                    break
            t_tuple = tuple(sorted(ts))
            if witness is None:
                return (s_tuple, t_tuple), examined, log
            if record:
                log[(s_tuple, t_tuple)] = witness
    return None, examined, log


_SCANNERS = {"optimized": _scan_chunk_optimized, "naive": _scan_chunk_naive}
ENGINES = tuple(_SCANNERS)


def _merge(outcomes, record: bool):
    """(failure, examined, log) of consecutive least vertices' outcomes, up to the first failure.

    A failure at one least vertex precedes any at the vertices after it, so
    those are never read.
    """
    examined = 0
    log: dict[Pair, tuple[int, ...]] | None = {} if record else None
    for failure, vertex_examined, vertex_log in outcomes:
        examined += vertex_examined
        if vertex_log:
            log.update(vertex_log)
        if failure is not None:
            return failure, examined, log
    return None, examined, log


def _take(claims, stop: int, jump: bool) -> int:
    """Take the token v from ``claims``; put back ``stop`` if ``jump``, else v + 1 up to it."""
    v = int.from_bytes(claims[0].read(8), "little")
    claims[1].write((stop if jump else min(v + 1, stop)).to_bytes(8, "little"))
    return v


def _scan_claims(claims, scanner, hg: Hypergraph, n: int, stop: int, record: bool) -> dict:
    """{v: outcome} for each least vertex v this process takes from ``claims``, below ``stop``.

    ``claims``, an unbuffered pipe's (reader, writer), is shared by the
    calling process and the pool's workers, which all run this loop.  It
    holds one 8-byte token, the next least vertex: a process reads it and
    writes the next one back before it scans.  On a failure, or an exception
    that a scan raises, the token jumps to ``stop``, so no process takes
    another vertex.  The token only grows, so every vertex below a failure
    was handed out before it and is scanned in full, whichever process found
    the failure: ``_merge`` over the sorted vertices gives the serial outcome.
    """
    outcomes = {}
    while (v := _take(claims, stop, False)) < stop:
        try:
            outcomes[v] = scanner(hg, n, v, v + 1, record)
        except BaseException:
            _take(claims, stop, True)
            raise
        if outcomes[v][0] is not None:
            _take(claims, stop, True)
            break
    return outcomes


def _send(reader, writer, fn, args) -> None:
    """A forked pool worker: pickle ``fn(*args)``, or the exception it raised,
    down ``writer``.  It leaves through ``os._exit`` whatever happens, so it
    never returns into the caller's frames nor flushes the stdio it inherited."""
    code = 1  # unless the whole result is sent
    try:
        import pickle
        reader.close()  # so that a send the caller no longer reads fails, not blocks
        try:
            result = fn(*args)
        except Exception as exc:
            result = exc
        with writer:
            writer.write(pickle.dumps(result))
        code = 0
    finally:
        os._exit(code)


class ProcessPoolExecutor:
    """``max_workers`` forked processes that each run ``fn(*args)`` once, from
    their start, and send the result back on a one-way pipe of their own.

    A stand-in or a subclass replaces the pool at this name; leaving a
    ``with`` block calls ``self.shutdown()``, so a subclass's override runs.
    """

    def __init__(self, max_workers: int, fn, args: tuple):
        import pickle  # noqa: F401  (here, not at set-up; the workers inherit it)
        self._pids, self._readers = [], []
        try:
            for _ in range(max_workers):
                reader, writer = map(open, os.pipe(), ("rb", "wb"))
                self._readers.append(reader)
                with writer:  # the caller's copy closes on every path
                    if not (pid := os.fork()):
                        _send(reader, writer, fn, args)
                    self._pids.append(pid)
        except BaseException:
            self.shutdown()
            raise

    def results(self):
        """The workers' results in worker order; raises the exception a worker sent."""
        import pickle
        for pid, reader in zip(self._pids, self._readers):
            try:
                result = pickle.loads(reader.read())
            except (EOFError, pickle.UnpicklingError):  # the worker exited before it sent all
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"a pool worker exited with code {code} "
                                   "before it sent its result") from None
            if isinstance(result, Exception):
                raise result
            yield result

    def shutdown(self) -> None:
        """Close every reader, then reap every worker, so RUSAGE_CHILDREN holds their CPU."""
        for reader in self._readers:
            reader.close()
        # Only now: a worker forked later holds copies of the readers made before it.
        for pid in self._pids:
            with suppress(ChildProcessError):  # reaped already by results()
                os.waitpid(pid, 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


def is_nec(
    hg: Hypergraph,
    n: int,
    engine: str = "optimized",
    threads: int = 1,
    record_witnesses: bool = False,
) -> CheckResult:
    """Decide whether the hypergraph is n-existentially closed.

    n larger than m-h+1 makes every witness query unsatisfiable, so the
    verdict is False (with a note) rather than an error.  ``threads`` > 1
    forks a pool of workers, so that with the calling process at most
    ``threads`` and at most the CPUs but at least two processes scan.  Each
    takes the next least vertex of S from a token in one shared pipe and
    scans its S-sets; once one fails, no process takes another.  The workers
    scan from their start and each sends its outcomes back down a pipe.
    n = 1 scans in the calling process, as each least vertex holds a single
    S-set, and so does a check where ``os.fork`` is missing.  The first
    pooled check imports ``pickle``, and its ``elapsed_ms`` includes that
    import.  Results, including the counterexample and candidate count, do
    not depend on ``threads``.
    """
    if n < 1:
        raise CheckerUsageError(f"n must be >= 1, got {n}")
    if threads < 1:
        raise CheckerUsageError(f"threads must be >= 1, got {threads}")
    if engine not in _SCANNERS:
        raise CheckerUsageError(f"unknown engine {engine!r}, expected one of {ENGINES}")
    started = time.perf_counter()
    note = ""
    if n > hg.m - (hg.h - 1):
        note = f"no candidate X exists: n={n} exceeds m-h+1={hg.m - hg.h + 1}"
    if n > hg.m:
        elapsed = (time.perf_counter() - started) * 1000.0
        stats = CheckStats(0, elapsed, note + "; no n-subset of vertices exists")
        return CheckResult(False, n, None, stats, {} if record_witnesses else None)

    # However few the edges, each index table holds a bitmap per vertex and the
    # naive scan lists the vertices outside each S: bound them before any pool.
    if engine == "optimized":
        hypergraph.check_listing(hg.m, f"a table of {hg.m} bitmaps, one per vertex,",
                                 CheckerUsageError)
        _shadow_index(hg)  # refuse an oversized shadow here, before any pool starts
    else:
        hypergraph.check_listing(hg.m - n, f"listing the {hg.m - n} vertices outside each S-set",
                                 CheckerUsageError)
    scanner = _SCANNERS[engine]
    stop = hg.m - n + 1  # the least vertices of the S-sets are [0, stop)
    # No more processes than CPUs: a worker waiting for a CPU holds back the
    # vertex it took, and the outcome waits for every vertex taken.
    workers = min(threads, max(2, os.cpu_count() or 1), stop) - 1
    if n == 1 or not workers or not hasattr(os, "fork"):
        failure, examined, log = scanner(hg, n, 0, stop, record_witnesses)
    else:
        reader, writer = os.pipe()
        with open(reader, "rb", 0) as reader, open(writer, "wb", 0) as writer:
            writer.write(bytes(8))  # the token: least vertex 0 goes out first
            job = ((reader, writer), scanner, hg, n, stop, record_witnesses)
            with ProcessPoolExecutor(workers, _scan_claims, job) as pool:
                outcomes = _scan_claims(*job)
                for report in pool.results():
                    outcomes.update(report)
        failure, examined, log = _merge(map(outcomes.get, sorted(outcomes)), record_witnesses)
    elapsed = (time.perf_counter() - started) * 1000.0
    return CheckResult(failure is None, n, failure, CheckStats(examined, elapsed, note), log)


def max_ec(hg: Hypergraph, engine: str = "optimized", threads: int = 1) -> int:
    """Largest n for which the hypergraph is n-e.c., or 0.

    Ascending search is sound because the property at n implies it at every
    smaller level.
    """
    n = 0
    while is_nec(hg, n + 1, engine=engine, threads=threads).holds:
        n += 1
    return n

