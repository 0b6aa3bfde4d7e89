"""Exhaustive n-existential-closure checking.

A hypergraph is n-e.c. when every n-set S and every T inside S admit an
(h-1)-set X outside S that forms an edge with each vertex of T and with no
vertex of S minus T.  The checker decides this by exhaustive search and
reports either success or the least counterexample.

Determinism contract (independent of engine and worker count):

* S ranges over n-subsets of the vertices in lexicographic order.
* T ranges over subsets of S in bitmask order, bit i standing for the i-th
  smallest vertex of S.
* The witness reported for a pair is the lexicographically first X.
* The counterexample reported is the first failing (S, T) in that order, and
  ``candidates_examined`` counts the X sets a sequential lexicographic scan
  would have tested up to that point.

Two engines: ``optimized`` indexes all (h-1)-subsets once and turns each
witness query into a handful of bitwise operations on large integers;
``naive`` is the direct three-level loop kept as an independent oracle.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Optional

from .hypergraph import Hypergraph

Pair = tuple[tuple[int, ...], tuple[int, ...]]


class CheckerUsageError(ValueError):
    """Caller violated an operation precondition (not a property verdict)."""


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
    l = 1
    while comb(l, h - 1) < need:
        l += 1
    return n + l


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
# Optimized engine: one global index of (h-1)-subsets, per-vertex bitmaps.


class _BitmapContext:
    """Per-hypergraph tables for O(n)-word witness queries.

    Candidate i is the i-th (h-1)-subset of the vertex set in lexicographic
    order.  ``joins[v]`` has bit i set when candidate i forms an edge with v;
    ``touches[v]`` when candidate i contains v.  Restricting to X outside S
    and intersecting the right ``joins`` masks answers a witness query.
    """

    def __init__(self, hg: Hypergraph):
        m, h = hg.m, hg.h
        self.cands = tuple(itertools.combinations(range(m), h - 1))
        ncand = len(self.cands)
        index = {c: i for i, c in enumerate(self.cands)}
        nbytes = (ncand + 7) // 8 or 1
        join_bits = [bytearray(nbytes) for _ in range(m)]
        for e in hg.edges:
            for j, v in enumerate(e):
                i = index[e[:j] + e[j + 1 :]]
                join_bits[v][i >> 3] |= 1 << (i & 7)
        self.joins = [int.from_bytes(b, "little") for b in join_bits]
        touch_bits = [bytearray(nbytes) for _ in range(m)]
        for i, c in enumerate(self.cands):
            byte, bit = i >> 3, 1 << (i & 7)
            for v in c:
                touch_bits[v][byte] |= bit
        self.touches = [int.from_bytes(b, "little") for b in touch_bits]
        self.full = (1 << ncand) - 1


def _scan_chunk_optimized(hg: Hypergraph, n: int, start: int, stop: int, record: bool):
    """Scan S-indices [start, stop); stop early at the first failure.

    Returns (failure, examined, log) where failure is
    (s_index, S, tmask) or None, and examined counts candidates tested up to
    the stop point.
    """
    ctx = _BitmapContext(hg)
    examined = 0
    log: dict[Pair, tuple[int, ...]] | None = {} if record else None
    subsets = itertools.islice(itertools.combinations(range(hg.m), n), start, stop)
    for offset, s_tuple in enumerate(subsets):
        allowed = ctx.full
        for v in s_tuple:
            allowed &= ~ctx.touches[v]
        joins = [ctx.joins[v] for v in s_tuple]
        for tmask in range(1 << n):
            w = allowed
            for i in range(n):
                w &= joins[i] if (tmask >> i) & 1 else ~joins[i]
                if not w:
                    break
            if w:
                low = w & -w
                examined += (allowed & (low - 1)).bit_count() + 1
                if record:
                    t_tuple = tuple(s_tuple[i] for i in range(n) if (tmask >> i) & 1)
                    log[(s_tuple, t_tuple)] = ctx.cands[low.bit_length() - 1]
            else:
                examined += allowed.bit_count()
                return (start + offset, s_tuple, tmask), examined, log
    return None, examined, log


def _scan_chunk_naive(hg: Hypergraph, n: int, start: int, stop: int, record: bool):
    """Reference scan: direct loops over S, T, and X, shared with nothing."""
    examined = 0
    log: dict[Pair, tuple[int, ...]] | None = {} if record else None
    edge_set = hg.edge_set
    subsets = itertools.islice(itertools.combinations(range(hg.m), n), start, stop)
    for offset, s_tuple in enumerate(subsets):
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
            if witness is None:
                return (start + offset, s_tuple, tmask), examined, log
            if record:
                log[(s_tuple, tuple(sorted(ts)))] = witness
    return None, examined, log


_SCANNERS = {"optimized": _scan_chunk_optimized, "naive": _scan_chunk_naive}
ENGINES = tuple(_SCANNERS)


def _chunk_bounds(total: int, parts: int) -> list[tuple[int, int]]:
    parts = min(parts, total)
    size, extra = divmod(total, parts)
    bounds = []
    lo = 0
    for i in range(parts):
        hi = lo + size + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


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
    splits the S-range into up to that many chunks, scanned by a process
    pool of at most one worker per CPU.  Results, including the
    counterexample and candidate count, do not depend on ``threads``.
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

    scanner = _SCANNERS[engine]
    chunks = _chunk_bounds(comb(hg.m, n), threads)
    lows, highs = zip(*chunks)
    calls = (itertools.repeat(hg), itertools.repeat(n), lows, highs,
             itertools.repeat(record_witnesses))
    if len(chunks) == 1:
        outcomes = list(map(scanner, *calls))
    else:
        # Under fork the pool starts all its workers at once, so cap it at the CPUs.
        with ProcessPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1)) as pool:
            outcomes = list(pool.map(scanner, *calls))

    failure = None
    examined = 0
    log: dict[Pair, tuple[int, ...]] | None = {} if record_witnesses else None
    for chunk_failure, chunk_examined, chunk_log in outcomes:
        if failure is not None:
            break  # later chunks cannot precede an already-found failure
        examined += chunk_examined
        if record_witnesses and chunk_log:
            log.update(chunk_log)
        if chunk_failure is not None:
            failure = chunk_failure

    elapsed = (time.perf_counter() - started) * 1000.0
    if failure is None:
        return CheckResult(True, n, None, CheckStats(examined, elapsed, note), log)
    _, s_tuple, tmask = failure
    t_tuple = tuple(s_tuple[i] for i in range(n) if (tmask >> i) & 1)
    stats = CheckStats(examined, elapsed, note)
    return CheckResult(False, n, (s_tuple, t_tuple), stats, log)


def max_ec(hg: Hypergraph, engine: str = "optimized", threads: int = 1) -> int:
    """Largest n for which the hypergraph is n-e.c., or 0.

    Ascending search is sound because the property at n implies it at every
    smaller level.
    """
    n = 0
    while is_nec(hg, n + 1, engine=engine, threads=threads).holds:
        n += 1
    return n

