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
from typing import Iterable, Iterator, Sequence


class HypergraphError(ValueError):
    """Invalid hypergraph construction or operation argument."""


class HypergraphFormatError(HypergraphError):
    """Malformed hypergraph text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def int_tuples(rows) -> bool:
    """True iff ``rows`` and its rows are tuples and every member is an ``int``, not a ``bool``."""
    return (
        type(rows) is tuple
        and set(map(type, rows)) <= {tuple}
        and set(map(type, itertools.chain.from_iterable(rows))) <= {int}
    )


@dataclass(frozen=True)
class Hypergraph:
    """An h-uniform hypergraph on vertices 0..m-1 with a canonical edge tuple.

    Invariants: h >= 2, m >= h, every edge is a sorted h-tuple of distinct
    in-range ``int`` vertices, and ``edges`` is duplicate-free and
    lexicographically sorted.  Construct through :func:`new_hypergraph`
    unless the input is already canonical.
    """

    h: int
    m: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not int_tuples(self.edges):
            raise HypergraphError("edges must be a tuple of tuples of int vertices")
        if not int_tuples(((self.h, self.m),)):
            raise HypergraphError(f"h and m must be int, got h={self.h!r} m={self.m!r}")
        if self.h < 2:
            raise HypergraphError(f"uniformity h must be >= 2, got {self.h}")
        if self.m < self.h:
            raise HypergraphError(f"vertex count m={self.m} below uniformity h={self.h}")
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

    def degree(self, v: int) -> int:
        """Number of edges containing v."""
        self._check_vertex(v)
        return sum(1 for e in self.edges if v in e)

    def neighbourhood(self, v: int) -> frozenset[int]:
        """Vertices occurring together with v in at least one edge."""
        self._check_vertex(v)
        out: set[int] = set()
        for e in self.edges:
            if v in e:
                out.update(e)
        out.discard(v)
        return frozenset(out)

    def anti_neighbourhood(self, v: int) -> frozenset[int]:
        """Vertices occurring together with v in at least one non-edge.

        Equals ``complement().neighbourhood(v)`` but is computed from the
        pair co-degrees: u joins v in some non-edge iff fewer than
        C(m-2, h-2) edges contain both, so the complement is never built.
        """
        self._check_vertex(v)
        codegree = dict.fromkeys(range(self.m), 0)
        for e in self.edges:
            if v in e:
                for u in e:
                    codegree[u] += 1
        limit = comb(self.m - 2, self.h - 2)
        return frozenset(u for u in range(self.m) if u != v and codegree[u] < limit)

    def complement(self) -> "Hypergraph":
        """Hypergraph whose edges are exactly the h-sets that are not edges here."""
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
        relabel = {u: (u if u < v else u - 1) for u in range(self.m) if u != v}
        kept = tuple(
            tuple(relabel[u] for u in e) for e in self.edges if v not in e
        )
        return Hypergraph(self.h, self.m - 1, kept), relabel

    def induced(self, vertices: Iterable[int]) -> tuple["Hypergraph", dict[int, int]]:
        """Restrict to the given vertex set, keeping edges fully inside it.

        Vertices are relabeled order-preservingly to 0..|Y|-1; returns the
        hypergraph and the old->new map.
        """
        keep = sorted(set(vertices))
        if len(keep) < self.h:
            raise HypergraphError(f"induced set needs at least h={self.h} vertices, got {len(keep)}")
        for u in keep:
            self._check_vertex(u)
        relabel = {u: i for i, u in enumerate(keep)}
        keep_set = set(keep)
        kept = tuple(
            tuple(relabel[u] for u in e) for e in self.edges if keep_set.issuperset(e)
        )
        return Hypergraph(self.h, len(keep), kept), relabel

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.m:
            raise HypergraphError(f"vertex {v} out of range [0, {self.m})")


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
    return Hypergraph(h, m, tuple(itertools.combinations(range(m), h)))


def empty_hypergraph(h: int, m: int) -> Hypergraph:
    return Hypergraph(h, m, ())


# Record text: '#' starts a comment line, blank lines are skipped, and every
# other line is whitespace-separated integers.  The first such line is the
# header; the rest are records whose shape each format checks itself.


def int_records(
    lines: Iterable[str], header: str, error
) -> tuple[int, list[int], Iterator[tuple[int, list[int]]]]:
    """Split record text into its header and the records after it.

    ``header`` names the header fields (e.g. ``"h m"``) and fixes their
    count; ``error(line_no, message)`` builds the exception to raise.
    Returns the header's line number, its ints and a lazy iterator of
    ``(line_no, ints)`` records, so nothing past the header is read until
    the caller asks for it.
    """

    def records():
        for line_no, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values = [int(f) for f in line.split()]
            except ValueError:
                raise error(line_no, f"non-integer token in {line!r}") from None
            yield line_no, values

    rest = records()
    first = next(rest, None)
    if first is None:
        raise error(1, f"missing '{header}' header")
    line_no, values = first
    if len(values) != len(header.split()):
        raise error(line_no, f"header must be exactly '{header}'")
    return line_no, values, rest


# Hypergraph text: header "h m", then one edge per line as h 0-based vertex
# indices; the writer emits edges in lexicographic order.

def parse_hypergraph(lines: Iterable[str]) -> Hypergraph:
    header_no, (h, m), records = int_records(lines, "h m", HypergraphFormatError)
    if h < 2 or m < h:
        raise HypergraphFormatError(header_no, f"invalid header h={h} m={m}")
    edges: list[list[int]] = []
    for line_no, values in records:
        if len(values) != h:
            raise HypergraphFormatError(line_no, f"expected {h} vertices, got {len(values)}")
        if len(set(values)) != h or not all(0 <= v < m for v in values):
            raise HypergraphFormatError(line_no, f"edge {values} invalid for h={h} m={m}")
        edges.append(values)
    return new_hypergraph(h, m, edges)


def read_hypergraph(path: str) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh)


def format_hypergraph(hg: Hypergraph, comments: Sequence[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(f"{hg.h} {hg.m}")
    out.extend(" ".join(str(v) for v in e) for e in hg.edges)
    return "\n".join(out) + "\n"


def write_hypergraph(path: str, hg: Hypergraph, comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_hypergraph(hg, comments))
