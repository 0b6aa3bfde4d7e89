"""Latin squares, MOLS families, and t-(v,k,lambda) block designs.

Generators cover the standard families consumed by the hypergraph builders:
complete MOLS over GF(q), projective planes PG(2,q), Miquelian inversive
planes of prime-power order q (the orbit of one subline of the projective
line over GF(q^2) under PGL(2, q^2)), and the seven-block plane of order
two.  Every generator validates its own output through
:func:`validate_design` (or the orthogonality check for MOLS) before
returning, so a generation bug cannot propagate silently.

Counting quantities (b, r, block counts over fixed/avoided point sets) are
exact rationals so that impossible parameter sets surface as non-integers
instead of silently rounding.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from operator import add
from typing import Iterable, Sequence

from . import hypergraph
from .errors import DesignError, DesignFormatError, check_int, int_tuples
from .galois import factor_order, field_of_order
from .hypergraph import int_records, record_text


# ---------------------------------------------------------------------------
# Latin squares


@dataclass(frozen=True)
class LatinSquare:
    """Order-q square over symbols 0..q-1, each once per row and column."""

    order: int
    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_int(self.order, "order", DesignError)
        if not (int_tuples(self.grid) and len(self.grid) == self.order):
            raise DesignError(f"grid must be a tuple of {self.order!r} tuples of int symbols")
        if not is_latin(self.grid):
            raise DesignError("grid is not a Latin square")


def is_latin(grid: Sequence[Sequence[int]]) -> bool:
    """True iff every row and every column holds each symbol exactly once.

    Raises for structurally broken input (non-square grid, a symbol that is
    not an int in range); returns False only for genuine Latin violations.
    """
    q = len(grid)
    if q == 0:
        raise DesignError("empty grid")
    full = set(range(q))
    for row in grid:
        if len(row) != q:
            raise DesignError("grid is not square")
        for s in row:
            check_int(s, "symbol", DesignError, 0, q)
    return (all(set(row) == full for row in grid)
            and all({row[c] for row in grid} == full for c in range(q)))


def are_orthogonal(a: LatinSquare, b: LatinSquare) -> bool:
    """True iff superimposing the squares yields q*q distinct ordered pairs."""
    if a.order != b.order:
        raise DesignError(f"order mismatch: {a.order} vs {b.order}")
    return _orthogonal_to(a, (b,))


def _orthogonal_to(a: LatinSquare, others: Iterable[LatinSquare]) -> bool:
    """True iff ``a`` is orthogonal to each of ``others``, squares of its order.

    A square's symbols are ints in [0, q), so the pair (s, t) is told by
    s * q + t: each check counts those ints over the flattened grids, with
    a's grid scaled by q once for all of ``others``.
    """
    q = a.order
    scaled = [q * s for row in a.grid for s in row]
    return all(len(set(map(add, scaled, itertools.chain.from_iterable(b.grid)))) == q * q
               for b in others)


@dataclass(frozen=True)
class MolsSet:
    """Pairwise-orthogonal Latin squares of one order."""

    order: int
    squares: tuple[LatinSquare, ...]

    def __post_init__(self):
        check_int(self.order, "order", DesignError)
        if not (type(self.squares) is tuple and set(map(type, self.squares)) <= {LatinSquare}):
            raise DesignError("squares must be a tuple of LatinSquare")
        if len(self.squares) > self.order - 1:
            raise DesignError(f"more than {self.order - 1} MOLS of order {self.order}")
        if any(sq.order != self.order for sq in self.squares):
            raise DesignError("square order mismatch")
        if not all(_orthogonal_to(sq, self.squares[i + 1:]) for i, sq in enumerate(self.squares)):
            raise DesignError("squares are not pairwise orthogonal")

    @property
    def count(self) -> int:
        return len(self.squares)

    def is_complete(self) -> bool:
        return len(self.squares) == self.order - 1


def complete_mols(q: int) -> MolsSet:
    """The q-1 pairwise-orthogonal squares cell(x,y) = a*x + y over GF(q).

    Rows and columns are indexed by the field's canonical element order;
    square number i uses multiplier a = the (i+1)-th element.  Deterministic.
    Refuses, before building the field tables, an order whose (q-1)*q^2 cells
    are more than ``hypergraph.MAX_SETS``; the tables' q^2 entries are fewer.
    """
    check_int(q, "order", DesignError, 3)
    field = field_of_order(q)
    cells = (q - 1) * q * q
    hypergraph.check_listing(cells, f"listing the {q - 1} squares of order {q}, {cells} cells,",
                             DesignError)
    mul, add = field.mul_table, field.add_table
    # Row x of square a is the addition-table row of a*x.
    squares = tuple(
        LatinSquare(q, tuple(tuple(add[mul[a][x]]) for x in range(q))) for a in range(1, q)
    )
    return MolsSet(q, squares)


# ---------------------------------------------------------------------------
# Block designs


@dataclass(frozen=True)
class Design:
    """A t-(v,k,lambda) candidate: points 0..v-1 and k-subsets as blocks.

    Construction enforces only structure (sizes, ranges, distinctness within
    a block); whether every t-subset really lies in exactly lambda blocks is
    the job of :func:`validate_design`.
    """

    t: int
    v: int
    k: int
    lam: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not int_tuples(self.blocks):
            raise DesignError("blocks must be a tuple of tuples of int points")
        check_int(self.t, "t", DesignError, 1)  # 1 <= t <= k <= v
        check_int(self.k, "k", DesignError, self.t)
        check_int(self.v, "v", DesignError, self.k)
        check_int(self.lam, "lambda", DesignError, 1)
        canonical = []
        for block in self.blocks:
            members = tuple(sorted(block))
            if len(members) != self.k or len(set(members)) != self.k:
                raise DesignError(f"block {block} does not have exactly {self.k} distinct points")
            if members[0] < 0 or members[-1] >= self.v:
                raise DesignError(f"block {block} has a point outside [0, {self.v})")
            canonical.append(members)
        object.__setattr__(self, "blocks", tuple(sorted(canonical)))

    @property
    def b(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class DesignReport:
    valid: bool
    min_coverage: int
    max_coverage: int


def validate_design(design: Design) -> DesignReport:
    """Count, for every t-subset of points, how many blocks contain it.

    Valid iff all counts equal lambda.  min/max coverage let a failing
    report show how far off the candidate is.  Raises :class:`DesignError`
    when the blocks' t-subsets hold more than ``hypergraph.MAX_SETS`` points
    in all.
    """
    hypergraph.check_subsets(design.b, design.k, design.t, DesignError, "the blocks")
    coverage = Counter(
        sub for block in design.blocks for sub in itertools.combinations(block, design.t)
    )
    lo, hi = _count_range(coverage, comb(design.v, design.t))
    return DesignReport(lo == hi == design.lam, lo, hi)


def _count_range(counts: Counter, keys: int) -> tuple[int, int]:
    """The least and greatest count over ``keys`` keys, those missing from ``counts`` counting 0."""
    values = list(counts.values())
    if len(counts) < keys:
        values.append(0)
    return min(values), max(values)


@dataclass(frozen=True)
class DesignParams:
    b_formula: Fraction
    r_formula: Fraction
    b_observed: int
    replication_min: int
    replication_max: int

    @property
    def matches(self) -> bool:
        return (
            self.b_formula == self.b_observed
            and self.replication_min == self.replication_max == self.r_formula
        )


def design_params(design: Design) -> DesignParams:
    """Formulaic b and r of a 2-design next to the observed counts."""
    if design.t != 2:
        raise DesignError(f"b/r formulas apply to 2-designs only, got t={design.t}")
    v, k, lam = design.v, design.k, design.lam
    b_formula = Fraction(lam * v * (v - 1), k * (k - 1))
    r_formula = Fraction(lam * (v - 1), k - 1)
    replication = Counter(itertools.chain.from_iterable(design.blocks))
    return DesignParams(b_formula, r_formula, design.b, *_count_range(replication, v))


def lambda_ij(design: Design, i: int, j: int) -> Fraction:
    """Blocks containing a fixed i-set and avoiding a disjoint j-set, i+j <= t."""
    check_int(i, "i", DesignError, 0)
    check_int(j, "j", DesignError, 0)
    if i + j > design.t:
        raise DesignError(f"need i+j <= t, got {i}+{j} > {design.t}")
    v, k, t, lam = design.v, design.k, design.t, design.lam
    return Fraction(lam * perm(v - i - j, t - i - j) * perm(v - k, j), perm(k - i, t - i))


def count_blocks_containing_avoiding(
    design: Design, inside: Iterable[int], avoid: Iterable[int]
) -> int:
    """Empirical counterpart of :func:`lambda_ij` for explicit sets of ``int`` points in [0, v)."""
    inside, avoid = tuple(inside), tuple(avoid)
    for point in itertools.chain(inside, avoid):
        check_int(point, "point", DesignError, 0, design.v)
    inside, avoid = frozenset(inside), frozenset(avoid)
    if inside & avoid:
        raise DesignError("point sets must be disjoint")
    return sum(inside.issubset(block) and avoid.isdisjoint(block) for block in design.blocks)


def _validated(design: Design, label: str) -> Design:
    report = validate_design(design)
    if not report.valid:
        raise DesignError(
            f"{label} failed validation: coverage range "
            f"[{report.min_coverage}, {report.max_coverage}], expected {design.lam}"
        )
    return design


def fano() -> Design:
    """The seven-point plane: blocks of the unique (7,3,1) 2-design."""
    one_based = [(1, 2, 3), (3, 4, 5), (1, 5, 6), (1, 4, 7), (2, 5, 7), (3, 6, 7), (2, 4, 6)]
    blocks = tuple(tuple(p - 1 for p in block) for block in one_based)
    return _validated(Design(2, 7, 3, 1, blocks), "fano plane")


def projective_plane(q: int) -> Design:
    """PG(2,q) as a 2-(q^2+q+1, q+1, 1) design.

    Points are the 1-dimensional subspaces of GF(q)^3, represented by the
    scaled vector whose first nonzero coordinate is 1 and sorted by the
    canonical element order; lines are the 2-dimensional subspaces.  An order
    whose validation listing :func:`hypergraph.check_subsets` would refuse is
    refused before the field tables, which are smaller, are built.
    """
    check_int(q, "order", DesignError, 2)
    field = field_of_order(q)
    # what validation will list
    hypergraph.check_subsets(q * q + q + 1, q + 1, 2, DesignError, "the blocks")
    reps = [(0, 0, 1)] + [(0, 1, z) for z in range(q)]
    reps += [(1, y, z) for y in range(q) for z in range(q)]
    mul, add = field.mul_table, field.add_table
    # Lines carry the same canonical coordinates as points; point i is reps[i].
    blocks = tuple(
        tuple(i for i, (x, y, z) in enumerate(reps)
              if add[add[mul[a][x]][mul[b][y]]][mul[c][z]] == 0)
        for a, b, c in reps)
    v = q * q + q + 1
    return _validated(Design(2, v, q + 1, 1, blocks), f"projective plane of order {q}")


def inversive_plane(q: int) -> Design:
    """The Miquelian 3-(q^2+1, q+1, 1) design on the projective line over GF(q^2).

    Finite points are labeled by their canonical element index in GF(q^2) and
    the point at infinity gets index q^2.  The blocks are the orbit of the
    subline GF(q) + {infinity} under PGL(2, q^2), walked from the subline by
    generators of the group: the translations by an additive basis and all
    the scalings generate AGL(1, q^2), and z -> 1/z adds the rest.  An order
    whose validation listing :func:`hypergraph.check_subsets` would refuse is
    refused before the q^4-entry tables of GF(q^2), which are smaller, are
    built.
    """
    check_int(q, "order", DesignError, 3)
    factor_order(q)  # q itself, not only q^2, must be a field order
    field = field_of_order(q * q)
    # what validation will list
    hypergraph.check_subsets(q * (q * q + 1), q + 1, 3, DesignError, "the blocks")
    Q = INF = q * q  # the point at infinity is the one after GF(q^2)
    # Each generator is a permutation of the points, as the list of their images.
    generators = [field.add_table[field.p**i] + [INF] for i in range(field.k)]
    generators += [field.mul_table[a] + [INF] for a in range(2, Q)]
    generators.append([INF] + field.inv_table[1:] + [0])  # 1/z swaps 0 and infinity

    subline = tuple(x for x in range(Q) if field.pow(x, q) == x) + (INF,)
    blocks, todo = {subline}, [subline]
    while todo:
        block = todo.pop()
        for g in generators:
            image = tuple(sorted(map(g.__getitem__, block)))
            if image not in blocks:
                blocks.add(image)
                todo.append(image)
    return _validated(Design(3, Q + 1, q + 1, 1, tuple(blocks)), f"inversive plane of order {q}")


# ---------------------------------------------------------------------------
# Design text: header "t v k lambda", then one block per line as k 0-based
# point indices in [0, v).  MOLS text: header "q ell", then ell groups of q
# rows, each row q symbols in [0, q).  ``int_records`` checks each record's
# width and a block's points; a refusal of the whole file names the header's
# line.


def parse_design(lines: Iterable[str]) -> Design:
    header_no, header, records = int_records(
        lines, "t v k lambda", DesignFormatError, noun="points", width="k", kind="block", bound="v")

    def design(blocks):
        try:
            return Design(*header, blocks)
        except DesignError as exc:
            raise DesignFormatError(header_no, str(exc)) from None

    design(())  # the header's rules, before the first block is read
    return design(tuple(map(tuple, records)))


def read_design(path: str) -> Design:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_design(fh)


def format_design(design: Design, comments: Sequence[str] = ()) -> str:
    return record_text(comments, [(design.t, design.v, design.k, design.lam), *design.blocks])


def parse_mols(lines: Iterable[str]) -> MolsSet:
    header_no, (q, ell), records = int_records(lines, "q ell", DesignFormatError,
                                               noun="symbols", width="q")
    rows = tuple(map(tuple, records))
    if len(rows) != q * ell:
        raise DesignFormatError(header_no,
                                f"expected {q * ell} rows for {ell} squares, got {len(rows)}")
    try:
        return MolsSet(q, tuple(LatinSquare(q, rows[i * q:(i + 1) * q]) for i in range(ell)))
    except DesignError as exc:
        raise DesignFormatError(header_no, str(exc)) from None


def read_mols(path: str) -> MolsSet:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_mols(fh)


def format_mols(mols: MolsSet, comments: Sequence[str] = ()) -> str:
    squares = (record_text([f"square {i}"], sq.grid) for i, sq in enumerate(mols.squares))
    return record_text(comments, [(mols.order, mols.count)]) + "".join(squares)
