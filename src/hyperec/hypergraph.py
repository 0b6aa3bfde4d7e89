"""Immutable h-uniform hypergraph values and their derived structures.

A hypergraph is a set of h-element edges over vertices 0..m-1.  Values are
canonicalized on construction (edges sorted, deduplicated) so structurally
equal inputs compare equal, and they are hashable and safe to share across
workers.  Derived structures: complement, vertex deletion, induced subgraph,
neighbourhood N(v), and the co-non-edge set A(v).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import lt
from typing import Iterable, Iterator, Sequence

from .errors import HypergraphError, HypergraphFormatError, check_int, int_tuples

MAX_SETS = 2**22


def check_listing(count: int, what: str, error=HypergraphError) -> None:
    """Refuse a listing of ``count`` items over ``MAX_SETS``, as "<what> is above the limit".

    The one place the limit is read.  Its users count before they list: a
    hypergraph's m vertices, which every per-vertex table, scan and listing
    of a value then stays within; the points of every listing of sets,
    through :func:`check_subsets`; the points of the checker's (h-1)-shadow
    (mols7 1176 sets of 5, mols8 2016 of 6), counted as it is listed, the
    64-bit words of each index table and of the scan's packed tables, which
    the scan does without past the limit, and the C(m, n) 2^n pairs (S, T)
    of a witness log; the verdicts of the random model's trials; the
    (q-1) q^2 cells of a MOLS family and the q^2 entries of a GF(q) table;
    and the (t+1)(t+2)/2 entries lambda_i_j of a validate report, and their
    digits.
    """
    if count > MAX_SETS:
        raise error(f"{what} is above the limit of {MAX_SETS}")


def check_subsets(b: int, k: int, size: int, error, of: str) -> None:
    """Refuse listing the size-subsets of b sets of k points when their points,
    b * C(k, size) * size, are over the limit: memory grows with the points.

    The one rule for every listing of sets: the t- and h-subsets of a
    design's blocks (validation, the planes, ``build from-design``), the
    h-subsets of a MOLS family's lines (``build from-mols``), and the
    h-subsets of the m vertices, b = 1, that the complement lists and a
    random sample draws.
    """
    total = b * comb(k, size)
    check_listing(total * size, f"listing the {b} * C({k}, {size}) = {total} "
                  f"{size}-subsets of {of}, {total * size} points,", error)


@dataclass(frozen=True)
class Hypergraph:
    """An h-uniform hypergraph on vertices 0..m-1 with a canonical edge tuple.

    Invariants: h >= 2, h <= m <= ``MAX_SETS``, every edge is a sorted
    h-tuple of distinct in-range ``int`` vertices, and ``edges`` is
    duplicate-free and lexicographically sorted.  Nearly every operation
    keeps one entry per vertex, so the bound on m covers them all, however
    the value was made.  Construct through :func:`new_hypergraph`
    unless the input is already canonical.
    """

    h: int
    m: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not int_tuples(self.edges):
            raise HypergraphError("edges must be a tuple of tuples of int vertices")
        check_int(self.h, "uniformity h", HypergraphError, 2)
        check_int(self.m, "vertex count m", HypergraphError, self.h)
        check_listing(self.m, f"a hypergraph on {self.m} vertices")
        # Canonical input passes in C-level chains: lengths, strictly increasing
        # edges and columns, and the range; only the loop names an offending edge.
        edges, cols = self.edges, list(zip(*self.edges))
        if not edges or (set(map(len, edges)) == {self.h} and all(map(lt, edges, edges[1:]))
                         and all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))
                         and cols[0][0] >= 0 and max(cols[-1]) < self.m):
            return
        prev = None
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == self.h and list(e) == sorted(set(e))):
                raise HypergraphError(f"edge {e} is not a canonical {self.h}-tuple")
            if not (0 <= e[0] and e[-1] < self.m):
                raise HypergraphError(f"edge {e} has a vertex outside [0, {self.m})")
            if prev is not None and e <= prev:
                raise HypergraphError("edges are not sorted and duplicate-free")
            prev = e

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, e: Iterable[int]) -> bool:
        """True iff the canonical form of ``e`` is an edge."""
        return new_hypergraph(self.h, self.m, [e]).edges[0] in self.edge_set

    def _codegrees(self, v: int) -> list[int]:
        """Entry u counts the edges holding both u and v; entry v is v's degree."""
        self._check_vertex(v)
        counts = [0] * self.m
        for e in self.edges:
            if v in e:
                for u in e:
                    counts[u] += 1
        return counts

    def degree(self, v: int) -> int:
        """Number of edges containing v."""
        return self._codegrees(v)[v]

    def neighbourhood(self, v: int) -> frozenset[int]:
        """Vertices occurring together with v in at least one edge."""
        return frozenset(u for u, c in enumerate(self._codegrees(v)) if c and u != v)

    def anti_neighbourhood(self, v: int) -> frozenset[int]:
        """Vertices occurring together with v in at least one non-edge.

        Equals ``complement().neighbourhood(v)`` but is computed from the
        pair co-degrees: u joins v in some non-edge iff fewer than
        C(m-2, h-2) edges contain both, so the complement is never built.
        """
        limit = comb(self.m - 2, self.h - 2)
        return frozenset(u for u, c in enumerate(self._codegrees(v)) if c < limit and u != v)

    def complement(self) -> "Hypergraph":
        """Hypergraph whose edges are exactly the h-sets that are not edges here.

        Refused, before the first is listed, when the C(m, h) h-sets hold
        more than ``MAX_SETS`` points, C(m, h) * h, as :func:`check_subsets`
        counts them.
        """
        check_subsets(1, self.m, self.h, HypergraphError, "the vertices")
        missing = tuple(
            e for e in itertools.combinations(range(self.m), self.h) if e not in self.edge_set
        )
        return Hypergraph(self.h, self.m, missing)

    def delete_vertex(self, v: int) -> tuple["Hypergraph", dict[int, int]]:
        """Remove v, relabel the rest to 0..m-2, drop edges through v.

        Returns the new hypergraph and the old->new label map.
        """
        self._check_vertex(v)
        if self.m == self.h:
            raise HypergraphError(f"cannot delete a vertex at m == h == {self.h}")
        return self.induced(u for u in range(self.m) if u != v)

    def induced(self, vertices: Iterable[int]) -> tuple["Hypergraph", dict[int, int]]:
        """Restrict to the given vertex set, keeping edges fully inside it.

        Vertices are relabeled order-preservingly to 0..|Y|-1; returns the
        hypergraph and the old->new map.
        """
        keep = tuple(vertices)
        for u in keep:  # before a set could fold a True into the 1 beside it
            self._check_vertex(u)
        keep = sorted(set(keep))
        if len(keep) < self.h:
            raise HypergraphError(f"induced set needs at least h={self.h} vertices, got {len(keep)}")
        relabel = {u: i for i, u in enumerate(keep)}
        keep_set = set(keep)
        kept = tuple(
            tuple(relabel[u] for u in e) for e in self.edges if keep_set.issuperset(e)
        )
        return Hypergraph(self.h, len(keep), kept), relabel

    def _check_vertex(self, v: int) -> None:
        check_int(v, "vertex", HypergraphError, 0, self.m)


def new_hypergraph(h: int, m: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Canonicalize arbitrary edge input: sort members, sort edges, deduplicate.

    :class:`Hypergraph` then checks the result.
    """
    try:
        canonical = sorted({tuple(sorted(e)) for e in edges})
    except TypeError as exc:
        raise HypergraphError(f"edges must be iterables of int vertices: {exc}") from None
    return Hypergraph(h, m, tuple(canonical))


def complete_hypergraph(h: int, m: int) -> Hypergraph:
    return empty_hypergraph(h, m).complement()


def empty_hypergraph(h: int, m: int) -> Hypergraph:
    return Hypergraph(h, m, ())


# Record text: '#' starts a comment line, blank lines are skipped, and every
# other line is whitespace-separated integers.  The first such line is the
# header; each line after it is a record of the width a header field names.


def int_records(
    lines: Iterable[str], header: str, error, noun: str, width: str, kind: str = "", bound: str = ""
) -> tuple[int, list[int], Iterator[list[int]]]:
    """Split record text into its header and the checked records after it.

    ``header`` names the header fields (e.g. ``"h m"``) and fixes their
    count; ``error(line_no, message)`` builds the exception to raise.  Each
    record holds as many ints as the header field ``width`` says, else it is
    refused as "expected <width> <noun>"; given ``kind`` and ``bound``, its
    members are also distinct and in [0, <bound>), else the record is an
    invalid ``kind``.  Returns the header's line number, its ints and a lazy
    iterator of the records' int lists, so nothing past the header is read
    until the caller asks for it.
    """
    # The generator reads the header first, under these rules for it; the
    # header's fields then set the rules it reads every record under.
    names = header.split()
    line_no, size, top = 1, len(names), None
    wrong_width = f"header must be exactly '{header}'"

    def records():
        nonlocal line_no
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values = [int(f) for f in line.split()]
            except ValueError:
                raise error(line_no, f"non-integer token in {line!r}") from None
            if len(values) != size:
                raise error(line_no, wrong_width.format(len(values)))
            if top is not None and (len(set(values)) != size or min(values) < 0
                                    or max(values) >= top):
                raise error(line_no, f"{kind} {values} invalid for {width}={size} {bound}={top}")
            yield values

    rest = records()
    values = next(rest, None)
    if values is None:
        raise error(1, f"missing '{header}' header")
    fields = dict(zip(names, values))
    size, top = fields[width], fields.get(bound)
    wrong_width = f"expected {size} {noun}, got {{}}"
    return line_no, values, rest


# Hypergraph text: header "h m", then one edge per line as h 0-based vertex
# indices; the writer emits edges in lexicographic order.

def parse_hypergraph(lines: Iterable[str]) -> Hypergraph:
    header_no, (h, m), edges = int_records(lines, "h m", HypergraphFormatError, noun="vertices",
                                           width="h", kind="edge", bound="m")
    if h < 2 or m < h:
        raise HypergraphFormatError(header_no, f"invalid header h={h} m={m}")
    empty_hypergraph(h, m)  # the vertex limit, before the first edge is read
    return new_hypergraph(h, m, edges)


def read_hypergraph(path: str) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh)


def record_text(comments: Iterable[str], rows: Iterable[Iterable[int]]) -> str:
    """One ``# c`` line per comment, then one line of space-separated ints per row."""
    lines = [f"# {c}" for c in comments]
    lines.extend(" ".join(map(str, row)) for row in rows)
    return "".join(f"{line}\n" for line in lines)


def format_hypergraph(hg: Hypergraph, comments: Sequence[str] = ()) -> str:
    return record_text(comments, [(hg.h, hg.m), *hg.edges])


def write_hypergraph(path: str, hg: Hypergraph, comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(hg, comments))
