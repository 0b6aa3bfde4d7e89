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
shares it; the vertices in no edge share one entry per table.  Only a shadow
set forms an edge with anything, so the witnesses of T non-empty lie in the
shadow.  The S-sets that share an (n-1)-prefix P share its T-split, a list
of parts, one per T inside P, each holding the shadow sets joined to exactly
the vertices of that T; each S under P then costs one AND per T.  A
non-empty T whose part is empty fails for every S under P, so the list is
cut after the first such part and grows no more: it never holds more than
two parts beyond the shadow's size.  Part 0 never cuts.  With T empty the
witness may lie outside the shadow, so that part counts only when the
shadow holds every (h-1)-set.  ``candidates_examined`` adds up each
witness's lex rank among the free (h-1)-sets: over a complete shadow a
popcount per T, in one loop over the parts that lists the witness sets only
for a failing S or a recorded log; otherwise a table of binomials, the
combinatorial number system.  There T empty walks the free shadow sets in
lex order and stops at step i when the set's rank is not i, so the i-th
free set lies outside the shadow, or the set is joined to no vertex of S.
``naive`` is the direct three-level loop kept as an independent oracle.

A pooled check, ``threads`` > 1 at n >= 2 where ``os.fork`` exists, shares
work and results through pipes with workers that a ``_kept_workers`` block,
such as :func:`max_ec`'s levels, forks at its first pooled check and reaps
at its end; only it imports ``pickle``, once per process.
"""

from __future__ import annotations

import itertools
import os
import time
from _thread import _local
from bisect import bisect_right
from collections import defaultdict
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain
from math import comb
from operator import getitem
from typing import Iterable, Optional

from . import hypergraph
from .errors import CheckerUsageError, check_int
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
    check_int(n, "n", CheckerUsageError, 1)
    return n * 2 ** (n - 1)


def min_vertices_bound(n: int, h: int) -> int:
    """Fewest vertices: n plus the least l with C(l, h-1) >= 2**n."""
    check_int(n, "n", CheckerUsageError, 1)
    check_int(h, "h", CheckerUsageError, 2)
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

    Precondition violations (a member that is not an ``int`` vertex in range,
    wrong |X|, X meeting S, T not inside S) raise :class:`CheckerUsageError`
    so a caller bug is never mistaken for a false verdict.
    """
    ss, ts, xs = _query_sets(hg, s, t, x)
    if len(xs) != hg.h - 1 or len(set(xs)) != len(xs):
        raise CheckerUsageError(f"X must be {hg.h - 1} distinct vertices, got {xs}")
    if ss.intersection(xs):
        raise CheckerUsageError("X must be disjoint from S")
    return _joined_raw(hg.edge_set, xs, ts, ss)


def _query_sets(hg: Hypergraph, s, t, x=()):
    """S and T as sets and X sorted, once each member is an in-range ``int`` vertex and T <= S."""
    s, t, x = tuple(s), tuple(t), tuple(x)  # checked as given: a set would fold a True into a 1
    for v in itertools.chain(x, t, s):
        check_int(v, "vertex", CheckerUsageError, 0, hg.m)
    ss, ts = frozenset(s), frozenset(t)
    if not ts <= ss:
        raise CheckerUsageError("T must be a subset of S")
    return ss, ts, tuple(sorted(x))


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

    A member that is not an ``int`` vertex in range, and T not inside S,
    raise :class:`CheckerUsageError`, as in :func:`correctly_joined`.
    """
    ss, ts, _ = _query_sets(hg, s, t)
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
    and ``unjoined[v]`` the rest; a vertex in no edge lies in no set of U and
    joins none, so it gets no bitmaps of its own but the shared ``full``, 0
    and ``full``.  ``complete`` says that U holds every (h-1)-set of the
    vertices.  ``tails`` holds the h - 1 ``_RankRow`` rows of the scan's
    witness ranks, empty until a rank reads them.  Two counts are bounded by
    ``hypergraph.MAX_SETS`` before they are listed, in this order: the
    shadow's points, (h-1) per set, counted after each column of edges as
    the shadow is listed, and a table's 64-bit words.  The m entries of a
    table need no count here: a :class:`Hypergraph` holds at most that many
    vertices.
    """

    def __init__(self, hg: Hypergraph):
        # Column by column: each edge's (h-1)-set without its j-th vertex links
        # to that vertex.  A link list's order does not matter; it only sets bits.
        cols = list(zip(*hg.edges))
        links: defaultdict[tuple[int, ...], list[int]] = defaultdict(list)
        # The shadow's points are counted after each column, which adds at most
        # one set per edge: no more than the edges already hold.
        for j, col in enumerate(cols):
            for key, v in zip(zip(*cols[:j], *cols[j + 1:]), col):
                links[key].append(v)
            points = len(links) * (hg.h - 1)
            hypergraph.check_listing(points, f"listing the (h-1)-shadow, {len(links)} sets of "
                                     f"{hg.h - 1} so far, {points} points,", CheckerUsageError)
        size, words = len(links), -(-hg.m * len(links) // 64)
        hypergraph.check_listing(words, f"a table of {hg.m} bitmaps of {size} bits, {words} "
                                 "64-bit words,", CheckerUsageError)
        self.sets = sorted(links)
        nbytes = (len(self.sets) + 7) // 8
        touched = set().union(*cols)
        join_bits = {v: bytearray(nbytes) for v in touched}
        touch_bits = {v: bytearray(nbytes) for v in touched}
        for i, key in enumerate(self.sets):
            byte, bit = i >> 3, 1 << (i & 7)
            for v in links[key]:
                join_bits[v][byte] |= bit
            for v in key:
                touch_bits[v][byte] |= bit
        self.full = full = (1 << len(self.sets)) - 1
        self.complete = len(self.sets) == comb(hg.m, hg.h - 1)
        self.free, self.joined, self.unjoined = [full] * hg.m, [0] * hg.m, [full] * hg.m
        for v in touched:
            self.free[v] = free = full & ~int.from_bytes(touch_bits[v], "little")
            # A set that forms an edge with v does not hold v.
            self.joined[v] = join = int.from_bytes(join_bits[v], "little")
            self.unjoined[v] = free & ~join
        self.tails = [_RankRow(hg.h - 1 - i) for i in range(hg.h - 1)]


def _shadow_index(hg: Hypergraph) -> _ShadowIndex:
    """The index of ``hg``, built on first use and kept on the value.

    It sits in the instance ``__dict__``, as a ``cached_property`` would, so
    every later check of the same value reuses it, and pool workers, forked
    with the value, carry it; so does a pickled copy.  Raises
    :class:`CheckerUsageError` when the shadow's points, (h-1) |U|, pass
    ``hypergraph.MAX_SETS`` as it is listed, or, before any table is listed,
    when a table's 64-bit words, ceil(m * |U| / 64), do.
    """
    index = vars(hg).get("_shadow_index")
    if index is None:
        index = vars(hg)["_shadow_index"] = _ShadowIndex(hg)
    return index


def _subset(s_tuple: tuple[int, ...], tmask: int) -> tuple[int, ...]:
    """The members of S whose bits are set in ``tmask``."""
    return tuple(v for i, v in enumerate(s_tuple) if (tmask >> i) & 1)


def _first_unjoined(sets, tails, total: int, above, allowed: int, w: int) -> int:
    """The 1-based lex rank of the first free k-set joined to no vertex of S, or ``total`` + 1.

    A free k-set qualifies when it lies outside the shadow or its bit is set
    in ``w``.  ``allowed`` holds the free shadow sets, in lex order by bit,
    ranked as ``_rank_sum`` ranks them.  At step i the sets of rank below i
    are the shadow sets walked past, so the i-th qualifies when the walk's
    set has its bit in ``w`` or a rank other than i, or ``allowed`` is spent.
    """
    step = 1
    while allowed:
        low = allowed & -allowed
        if w & low or total - sum(map(getitem, tails, map(
                above.__getitem__, sets[low.bit_length() - 1]))) != step:
            break
        allowed ^= low
        step += 1
    return step


def _unrank(tails, total: int, m: int, s_tuple: tuple[int, ...], rank: int) -> tuple[int, ...]:
    """The free k-set of 1-based lex rank ``rank``, ``_rank_sum`` inverted: member i
    has the most free vertices above it, a, fewer than member i - 1 has, whose
    entry of row i is at most what is left of the count of sets after the rank."""
    after, a, xs = total - rank, m - len(s_tuple), []
    for row in tails:
        a -= 1
        while row[a] > after:
            a -= 1
        after -= row[a]
        x = m - len(s_tuple) - 1 - a  # its number among the free vertices, then past S
        for s in s_tuple:
            x += s <= x
        xs.append(x)
    return tuple(xs)


def _extend(parts: list[int], unjoined: int, joined: int) -> list[int]:
    """The T-parts of a prefix of S extended by one vertex v, from v's two tables.

    The parts without v come first, since v takes the next bit of T.  The
    list ends at its first empty part at index 1 or above: every S-set under
    the prefix fails at or before that T.  An empty part stays empty, so a
    list cut once is cut again within its unjoined half.  Part 0 never cuts:
    each S tests T = {} first.
    """
    parts = [p & unjoined for p in parts] + [p & joined for p in parts]
    return parts[:(parts + [0]).index(0, 1) + 1]


def _prefixes(index: _ShadowIndex, n: int, head: tuple[int, ...], m: int):
    """(P, parts, allowed) for the (n-1)-prefixes P of the S-sets that start with ``head``.

    In lex order; ``len(head) < n``.  ``allowed`` holds the shadow sets
    without a vertex of P, and ``parts[t]`` those of them joined to exactly
    the vertices of P whose bits are set in t.  A depth-first walk over one
    list, ``prefix``, with ``states[d]`` the two for its first d vertices,
    so any n fits in memory linear in n: depth d takes the head's vertex d,
    or else each vertex above P's last up to m - n + d, leaving room for S.
    """
    prefix, states = [], [([index.full], index.full)]
    v = head[0] if head else 0  # the next vertex to try at depth len(prefix)
    while True:
        if (d := len(prefix)) == n - 1:
            yield (tuple(prefix), *states[d])
        elif v <= m - n + d:
            parts, allowed = states[d]
            prefix.append(v)
            states[d + 1:] = [(_extend(parts, index.unjoined[v], index.joined[v]),
                               allowed & index.free[v])]  # and drops a spent deeper one
            v = head[d + 1] if d + 1 < len(head) else v + 1
            continue
        if d <= len(head):  # the vertex to pop is the head's, or there is none
            return
        v = prefix.pop() + 1


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


def _scan_optimized(hg: Hypergraph, n: int, head: tuple[int, ...], record: bool):
    """Scan the S-sets that start with ``head``, in lex order; stop early at the first failure.

    ``len(head) < n``, and the head () scans them all.  Returns (failure,
    examined, log) where failure is the first failing (S, T) or None, and
    examined counts candidates tested up to the stop point.  The S-sets that
    share an (n-1)-prefix P share its T-split from ``_prefixes``: a list
    whose part t holds the allowed shadow sets joined to exactly the vertices
    of P in t, so the witnesses of all T for one S cost one AND per T.  The
    list is cut as ``_extend`` says; until then its parts from index 1 on are
    non-empty disjoint subsets of the shadow, so it never holds more than
    the shadow's size plus two parts: mols8 at n = 30 builds no 2^29 of them.

    A witness found in the shadow counts its 1-based lex rank among the free
    (h-1)-sets.  From a complete shadow that is a popcount per T, summed by
    one loop over the parts ANDed with v's unjoined, then joined table, which
    lists the witness sets only to name a failing T or for the log.  Otherwise
    ``_rank_sum`` takes it from the ``_RankRow`` table, once per S for the
    witnesses of T = 1, 2, ... up to the first empty part, and
    ``_first_unjoined`` ranks T = {}'s walk from the same table; a recorded
    log names that witness by ``_unrank``.  Per prefix the branch lists only
    ``_free_above``, at its first S that allows a shadow set, so an S that
    allows none, as in an edgeless hypergraph, lists nothing m long.  The
    table and the walk are exact for a complete shadow too, but the 500
    seed-7 random-threshold samples at n = 3 (498 complete) scan about four
    times faster by popcount: 0.9-1.6 s against 4.7-5.8 s, serial, 2 vCPUs.
    """
    index = _shadow_index(hg)
    sets, complete = index.sets, index.complete
    free, unjoined, joined = index.free, index.unjoined, index.joined
    m = hg.m
    total = comb(m - n, hg.h - 1)  # free (h-1)-sets of every S
    tails = index.tails
    examined = 0
    log: dict[Pair, tuple[int, ...]] | None = {} if record else None
    for prefix, parts, allowed_p in _prefixes(index, n, head, m):
        above = None  # listed at the first S that allows a shadow set, then moved on with v
        for v in range(prefix[-1] + 1 if prefix else 0, m):
            allowed = allowed_p & free[v]
            un, jo = unjoined[v], joined[v]
            if complete:
                # The parts' witness sets in T order, up to the first empty
                # one.  The allowed bits that w ^ (w - 1) keeps, up to w's
                # lowest, are the witness's 1-based lex rank.
                for mask in (un, jo):
                    for p in parts:
                        if not (w := p & mask):
                            break
                        examined += (allowed & (w ^ (w - 1))).bit_count()
                    if not w:
                        break
                if w and not record:
                    continue  # S passes, counted
            s_tuple = prefix + (v,)
            # Not cut: ws[t] is the witness set of T = t.  Cut: the scan stops
            # at the list's empty last part, before the joined half, where
            # the list's missing parts would shift the indices.
            ws = [p & un for p in parts] + [p & jo for p in parts]
            first = 0 if complete else 1  # the first T whose witness ``found`` lists
            if not complete:
                # T is empty, where X need not lie in the shadow.
                if above is None and allowed:
                    above = _free_above(s_tuple, m)
                rank = _first_unjoined(sets, tails, total, above, allowed, ws[0])
                if rank > total:
                    return (s_tuple, ()), examined + total, log
                examined += rank
                if record:
                    log[(s_tuple, ())] = _unrank(tails, total, m, s_tuple, rank)
            # T = first, first + 1, ... up to the first empty part, where S fails.
            end = (ws + [0]).index(0, first)
            found = [sets[(w & -w).bit_length() - 1] for w in ws[first:end]]
            if above:  # listed, so the shadow is incomplete
                examined += _rank_sum(tails, total, above, found)
                above[v] -= 1  # v is free in the next S, below its last vertex
            if record:
                for tmask, witness in enumerate(found, first):
                    log[(s_tuple, _subset(s_tuple, tmask))] = witness
            if end < len(ws):
                return (s_tuple, _subset(s_tuple, end)), examined + total, log
    return None, examined, log


def _scan_naive(hg: Hypergraph, n: int, head: tuple[int, ...], record: bool):
    """Reference scan of the S-sets that start with ``head``, ``len(head) < n``:
    direct loops over S, T, and X, shared with nothing."""
    examined = 0
    log: dict[Pair, tuple[int, ...]] | None = {} if record else None
    edge_set = hg.edge_set
    rests = itertools.combinations(range(head[-1] + 1 if head else 0, hg.m), n - len(head))
    for s_tuple in (head + rest for rest in rests):
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


_SCANNERS = {"optimized": _scan_optimized, "naive": _scan_naive}
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


def _take(claims, stop: int) -> int:
    """Take the token v from ``claims`` and put back v + 1, up to ``stop``."""
    v = int.from_bytes(claims[0].read(8), "little")
    claims[1].write(min(v + 1, stop).to_bytes(8, "little"))
    return v


def _scan_claims(claims, scanner, hg: Hypergraph, n: int, stop: int, record: bool) -> dict:
    """{v: outcome} for each least vertex v this process takes from ``claims``, below ``stop``.

    ``claims``, an unbuffered pipe's (reader, writer), is shared by the
    calling process and the pool's workers, which all run this loop.  It
    holds one 8-byte token, the next least vertex v: a process reads it and
    writes the next one back before it scans the S-sets with head (v,).
    However the loop ends, on a failure, an exception or the last vertex,
    the token jumps to ``stop``, so no process takes another vertex.  The
    token only grows, so every vertex below a failure was handed out before
    it and is scanned in full, whichever process found the failure:
    ``_merge`` over the sorted vertices gives the serial outcome.
    """
    outcomes = {}
    try:
        while (v := _take(claims, stop)) < stop:
            outcomes[v] = scanner(hg, n, (v,), record)
            if outcomes[v][0] is not None:
                break
    finally:
        claims[0].read(8)
        claims[1].write(stop.to_bytes(8, "little"))
    return outcomes


def _serve(job: tuple, jobs, results) -> None:
    """A forked pool worker: run ``job``, (fn, *args), then each one sent to
    ``jobs`` until it closes, and pickle each result, or the exception raised,
    down ``results``.  It leaves through ``os._exit``, so it never returns
    into the caller's frames nor flushes the stdio it inherited."""
    code = 1  # unless ``jobs`` closes after every result is sent
    try:
        import pickle
        while job:
            try:
                result = job[0](*job[1:])
            except Exception as exc:
                result = exc
            results.write(pickle.dumps(result))
            results.flush()
            size, sent = pickle.load(jobs) if jobs.peek(1) else (0, {})  # () once it closes
            job = tuple(sent[i] if i in sent else job[i] for i in range(size))
        code = 0
    finally:
        os._exit(code)


class _Worker:
    """A forked process that runs ``_serve``: its pid, the caller's ends of
    its two pipes, and the job it holds, which it inherits at the fork."""

    def __init__(self, job: tuple):
        self.held = job
        taken, self.jobs = map(open, os.pipe(), ("rb", "wb"))
        self.results, sent = map(open, os.pipe(), ("rb", "wb"))
        with taken, sent:  # the caller's copies close on every path
            try:
                self.pid = os.fork()
            except BaseException:
                self.close()
                raise
            if not self.pid:
                self.close()  # so that a send the caller no longer reads fails, not blocks
                _serve(job, taken, sent)

    def send(self, job: tuple) -> None:
        """Pickle ``job``, less each entry the worker holds as the same object."""
        import pickle
        sent = {i: new for i, new in enumerate(job)
                if i >= len(self.held) or self.held[i] is not new}
        self.jobs.write(pickle.dumps((len(job), sent)))
        self.jobs.flush()
        self.held = job

    def close(self) -> None:
        self.jobs.close()
        self.results.close()


class _Scope(_local):
    """This thread's workers, kept idle between the pooled checks of one
    ``with`` block, and the token pipe they share with the caller; each is
    made at first need.  A block opened inside another joins it."""

    def __init__(self):
        self.idle, self.pipe, self.depth = [], None, 0

    def __enter__(self):
        self.depth += 1

    def __exit__(self, *exc):
        self.depth -= 1
        if not self.depth:
            self.close()

    def claims(self):
        """The token pipe, holding least vertex 0."""
        if self.pipe is None:
            self.pipe = tuple(map(open, os.pipe(), ("rb", "wb"), (0, 0)))
        else:
            self.pipe[0].read(8)  # the last check's token
        self.pipe[1].write(bytes(8))
        return self.pipe

    def close(self) -> None:
        """Close every pipe, then reap every worker, so RUSAGE_CHILDREN holds
        their CPU: only then, as a worker holds copies of the pipes made
        before it.  The scope is left empty, to serve again."""
        workers, self.idle = self.idle, []
        for pipe in chain(self.pipe or (), *((w.jobs, w.results) for w in workers)):
            pipe.close()
        self.pipe = None
        for worker in workers:
            with suppress(ChildProcessError):  # reaped already by results()
                os.waitpid(worker.pid, 0)


_kept_workers = _Scope()


class ProcessPoolExecutor:
    """``max_workers`` processes that each run ``fn(*args)`` once and send
    the result back on a one-way pipe of their own: the scope's idle workers,
    each sent the job, then new ones forked with it.

    A stand-in or a subclass replaces the pool at this name; leaving a
    ``with`` block calls ``self.shutdown()``, so a subclass's override runs.
    """

    def __init__(self, max_workers: int, fn, args: tuple):
        import pickle  # noqa: F401  (here, not at set-up; the workers inherit it)
        self._workers, self._read = [], False
        try:
            for _ in range(max_workers):
                if _kept_workers.idle:
                    self._workers.append(_kept_workers.idle.pop())
                    self._workers[-1].send((fn, *args))
                else:
                    self._workers.append(_Worker((fn, *args)))
        except BaseException:
            self.shutdown()
            raise

    def results(self):
        """The workers' results in worker order; raises the exception a worker sent."""
        import pickle
        for worker in self._workers:
            try:
                result = pickle.load(worker.results)
            except (EOFError, pickle.UnpicklingError):  # the worker exited before it sent all
                code = os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])
                raise RuntimeError(f"a pool worker exited with code {code} "
                                   "before it sent its result") from None
            if isinstance(result, Exception):
                raise result
            yield result
        self._read = True

    def shutdown(self) -> None:
        """Hand the workers back to the open scope once every result is read;
        otherwise close the scope, so that no stale token or result is left."""
        _kept_workers.idle += self._workers
        self._workers = []
        if not (self._read and _kept_workers.depth):
            _kept_workers.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()


def _check_args(n: int, engine: str, threads: int) -> None:
    """Refuse an ``is_nec`` call's n or threads below 1, or an unknown engine."""
    check_int(n, "n", CheckerUsageError, 1)
    check_int(threads, "threads", CheckerUsageError, 1)
    if engine not in _SCANNERS:
        raise CheckerUsageError(f"unknown engine {engine!r}, expected one of {ENGINES}")


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
    runs a pool of workers, so that with the calling process at most
    ``threads`` and at most the CPUs but at least two processes scan.  Each
    takes the next least vertex of S from a token in one shared pipe and
    scans its S-sets; once one fails, no process takes another.  The workers
    are kept for the open ``_kept_workers`` block, or for this check alone,
    and each sends its outcomes back down a pipe of its own.
    n = 1 scans in the calling process, as each least vertex holds a single
    S-set, and so does a check where ``os.fork`` is missing.  The first
    pooled check imports ``pickle``, and its ``elapsed_ms`` includes that
    import.  Results, including the counterexample and candidate count, do
    not depend on ``threads``.  With ``record_witnesses``, a log that could
    hold more than ``hypergraph.MAX_SETS`` pairs (S, T) is refused before
    the index is built.
    """
    _check_args(n, engine, threads)
    started = time.perf_counter()
    note = ""
    if n > hg.m - (hg.h - 1):
        note = f"no candidate X exists: n={n} exceeds m-h+1={hg.m - hg.h + 1}"
    if n > hg.m:
        elapsed = (time.perf_counter() - started) * 1000.0
        stats = CheckStats(0, elapsed, note + "; no n-subset of vertices exists")
        return CheckResult(False, n, None, stats, {} if record_witnesses else None)

    # A log holds up to C(m, n) * 2^n pairs (S, T).  From n = 23 on, with n <= m,
    # 2^n alone is over the limit, and C(m, n) may take seconds to compute.
    if record_witnesses:
        pairs = comb(hg.m, n) << n if n <= 22 else 1 << 23
        hypergraph.check_listing(pairs, f"a witness log of C({hg.m}, {n}) * 2^{n} pairs (S, T)",
                                 CheckerUsageError)
    # The index's shadow and tables are bounded as it is built: build it before
    # any pool.  Per-vertex listings, the naive scan's included, need no count:
    # a Hypergraph holds at most hypergraph.MAX_SETS vertices.
    if engine == "optimized":
        _shadow_index(hg)
    scanner = _SCANNERS[engine]
    stop = hg.m - n + 1  # the least vertices of the S-sets are [0, stop)
    # No more processes than CPUs: a worker waiting for a CPU holds back the
    # vertex it took, and the outcome waits for every vertex taken.
    workers = min(threads, max(2, os.cpu_count() or 1), stop) - 1
    if n == 1 or not workers or not hasattr(os, "fork"):
        failure, examined, log = scanner(hg, n, (), record_witnesses)
    else:
        with _kept_workers:
            job = (_kept_workers.claims(), scanner, hg, n, stop, record_witnesses)
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
    smaller level.  The pooled levels share one scope's workers.
    """
    n = 0
    with _kept_workers:
        while is_nec(hg, n + 1, engine=engine, threads=threads).holds:
            n += 1
    return n

