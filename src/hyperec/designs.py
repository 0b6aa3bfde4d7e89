"""Latin squares, MOLS families, and t-(v,k,lambda) block designs.

Generators cover the standard families consumed by the hypergraph builders:
complete MOLS over GF(q), projective planes PG(2,q), Miquelian inversive
planes of prime-power order, and the seven-block plane of order two.  Every
generator validates its own output through :func:`validate_design` (or the
orthogonality check for MOLS) before returning, so a generation bug cannot
propagate silently.

Counting quantities (b, r, block counts over fixed/avoided point sets) are
exact rationals so that impossible parameter sets surface as non-integers
instead of silently rounding.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add
from typing import Iterable, Sequence

from . import hypergraph
from .galois import GaloisError, GfField, field_of_order, prime_power
from .hypergraph import int_records, int_tuples, record_text


class DesignError(ValueError):
    pass


class DesignFormatError(DesignError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# ---------------------------------------------------------------------------
# Latin squares


@dataclass(frozen=True)
class LatinSquare:
    """Order-q square over symbols 0..q-1, each once per row and column."""

    order: int
    grid: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not (int_tuples(self.grid) and type(self.order) is int and len(self.grid) == self.order):
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
            if type(s) is not int or not 0 <= s < q:
                raise DesignError(f"symbol {s!r} is not an int in [0, {q})")
    for row in grid:
        if set(row) != full:
            return False
    for c in range(q):
        if {row[c] for row in grid} != full:
            return False
    return True


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
        if type(self.order) is not int or type(self.squares) is not tuple:
            raise DesignError("order must be an int and squares a tuple")
        if not all(isinstance(sq, LatinSquare) for sq in self.squares):
            raise DesignError("every square must be a LatinSquare")
        if len(self.squares) > self.order - 1:
            raise DesignError(f"more than {self.order - 1} MOLS of order {self.order}")
        for sq in self.squares:
            if sq.order != self.order:
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
    if q < 3:
        raise DesignError(f"order must be >= 3, got {q}")
    field = field_of_order(q)
    cells, limit = (q - 1) * q * q, hypergraph.MAX_SETS
    if cells > limit:
        raise DesignError(f"listing the {q - 1} squares of order {q}, {cells} cells, "
                          f"is above the limit of {limit}")
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
        if not int_tuples(((self.t, self.v, self.k, self.lam),)):
            raise DesignError("t, v, k and lambda must be int")
        if not 1 <= self.t <= self.k <= self.v:
            raise DesignError(f"need 1 <= t <= k <= v, got t={self.t} k={self.k} v={self.v}")
        if self.lam < 1:
            raise DesignError(f"lambda must be >= 1, got {self.lam}")
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


def check_block_subsets(b: int, k: int, size: int) -> None:
    """Refuse a listing of the size-subsets of b blocks of k points of more than
    ``hypergraph.MAX_SETS`` points.

    The listing holds b * C(k, size) subsets of ``size`` points each, so its
    memory grows with the points, not the subsets.
    """
    total, limit = b * comb(k, size), hypergraph.MAX_SETS
    if total * size > limit:
        raise DesignError(f"listing the {b} * C({k}, {size}) = {total} "
                          f"{size}-subsets of the blocks, {total * size} points, is above "
                          f"the limit of {limit}")


def validate_design(design: Design) -> DesignReport:
    """Count, for every t-subset of points, how many blocks contain it.

    Valid iff all counts equal lambda.  min/max coverage let a failing
    report show how far off the candidate is.  Raises :class:`DesignError`
    when the blocks' t-subsets hold more than ``hypergraph.MAX_SETS`` points
    in all.
    """
    check_block_subsets(design.b, design.k, design.t)
    coverage = Counter(
        sub for block in design.blocks for sub in itertools.combinations(block, design.t)
    )
    counts = list(coverage.values())
    if len(coverage) < comb(design.v, design.t):
        counts.append(0)
    lo, hi = min(counts), max(counts)
    return DesignReport(lo == hi == design.lam, lo, hi)


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
    reps = [replication[p] for p in range(v)]
    return DesignParams(b_formula, r_formula, design.b, min(reps), max(reps))


def lambda_ij(design: Design, i: int, j: int) -> Fraction:
    """Blocks containing a fixed i-set and avoiding a disjoint j-set, i+j <= t."""
    if i < 0 or j < 0:
        raise DesignError("i and j must be non-negative")
    if i + j > design.t:
        raise DesignError(f"need i+j <= t, got {i}+{j} > {design.t}")
    v, k, t, lam = design.v, design.k, design.t, design.lam
    return Fraction(lam * comb(v - i - j, k - i), comb(v - t, k - t))


def count_blocks_containing_avoiding(
    design: Design, inside: Iterable[int], avoid: Iterable[int]
) -> int:
    """Empirical counterpart of :func:`lambda_ij` for explicit point sets."""
    inside = frozenset(inside)
    avoid = frozenset(avoid)
    if inside & avoid:
        raise DesignError("point sets must be disjoint")
    n = 0
    for block in design.blocks:
        members = set(block)
        if inside <= members and not (avoid & members):
            n += 1
    return n


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
    whose validation listing :func:`check_block_subsets` would refuse is
    refused before the field tables, which are smaller, are built.
    """
    if q < 2:
        raise DesignError(f"order must be >= 2, got {q}")
    field = field_of_order(q)
    check_block_subsets(q * q + q + 1, q + 1, 2)  # what validation will list
    reps = _projective_point_reps(field)
    point_id = {rep: i for i, rep in enumerate(reps)}
    mul, add = field.mul_table, field.add_table
    blocks = []
    for a, b, c in reps:  # lines carry the same canonical coordinates
        block = tuple(
            point_id[(x, y, z)]
            for (x, y, z) in reps
            if add[add[mul[a][x]][mul[b][y]]][mul[c][z]] == 0
        )
        blocks.append(block)
    v = q * q + q + 1
    return _validated(Design(2, v, q + 1, 1, tuple(blocks)), f"projective plane of order {q}")


def _projective_point_reps(field: GfField) -> list[tuple[int, int, int]]:
    q = field.order
    reps = [(0, 0, 1)]
    reps += [(0, 1, z) for z in range(q)]
    reps += [(1, y, z) for y in range(q) for z in range(q)]
    return sorted(reps)


def inversive_plane(q: int) -> Design:
    """The Miquelian 3-(q^2+1, q+1, 1) design on the projective line over GF(q^2).

    Finite points are labeled by their canonical element index in GF(q^2) and
    the point at infinity gets index q^2.  Blocks are every image of the
    subline {infinity} + GF(q) under the fractional-linear maps
    z -> (az+b)/(cz+d) of the invertible 2x2 matrices over GF(q^2),
    deduplicated as point sets.  An order whose validation listing
    :func:`check_block_subsets` would refuse is refused before the q^4-entry
    tables of GF(q^2), which are smaller, are built.
    """
    if prime_power(q) is None:
        raise GaloisError(f"{q} is not a prime power")
    if q < 3:
        raise DesignError(f"order must be >= 3, got {q}")
    field = field_of_order(q * q)
    check_block_subsets(q * (q * q + 1), q + 1, 3)  # what validation will list
    Q = q * q
    INF = Q
    mul, add, neg, invt = field.mul_table, field.add_table, field.neg_table, field.inv_table

    subfield = [x for x in range(Q) if field.pow(x, q) == x]
    if len(subfield) != q:
        raise DesignError(f"subfield extraction failed for q={q}")  # defensive

    # One matrix per map: scaling the bottom row (c, d) to (0, 1) or (1, d)
    # leaves one representative of each class of nonzero scalar multiples.
    blocks: set[frozenset[int]] = set()
    rng = range(Q)
    for c, d in [(0, 1)] + [(1, d) for d in rng]:
        for a in rng:
            for b in rng:
                if add[mul[a][d]][neg[mul[b][c]]] == 0:
                    continue  # singular
                image = [INF if c == 0 else a]  # the image of INF, a / c
                for z in subfield:
                    den = add[mul[c][z]][d]
                    image.append(INF if den == 0 else mul[add[mul[a][z]][b]][invt[den]])
                blocks.add(frozenset(image))

    expected = q * (Q + 1)
    if len(blocks) != expected:
        raise DesignError(f"inversive plane of order {q}: {len(blocks)} blocks, expected {expected}")
    block_tuples = tuple(sorted(tuple(sorted(bl)) for bl in blocks))
    return _validated(Design(3, Q + 1, q + 1, 1, block_tuples), f"inversive plane of order {q}")


# ---------------------------------------------------------------------------
# Design text: header "t v k lambda", then one block per line as k 0-based
# point indices.  MOLS text: header "q ell", then ell groups of q rows, each
# row q symbols in [0,q).  Both follow the record rules of ``int_records``.


def parse_design(lines: Iterable[str]) -> Design:
    _, (t, v, k, lam), records = int_records(lines, "t v k lambda", DesignFormatError)
    blocks: list[list[int]] = []
    for line_no, values in records:
        if len(values) != k:
            raise DesignFormatError(line_no, f"expected {k} points, got {len(values)}")
        if len(set(values)) != k or not all(0 <= x < v for x in values):
            raise DesignFormatError(line_no, f"block {values} invalid for k={k} v={v}")
        blocks.append(values)
    try:
        return Design(t, v, k, lam, tuple(tuple(b) for b in blocks))
    except DesignError as exc:
        raise DesignFormatError(1, str(exc)) from None


def read_design(path: str) -> Design:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_design(fh)


def format_design(design: Design, comments: Sequence[str] = ()) -> str:
    return record_text(comments, [(design.t, design.v, design.k, design.lam), *design.blocks])


def parse_mols(lines: Iterable[str]) -> MolsSet:
    _, (q, ell), records = int_records(lines, "q ell", DesignFormatError)
    rows: list[list[int]] = []
    for line_no, values in records:
        if len(values) != q:
            raise DesignFormatError(line_no, f"expected {q} symbols, got {len(values)}")
        rows.append(values)
    if len(rows) != q * ell:
        raise DesignFormatError(1, f"expected {q * ell} rows for {ell} squares, got {len(rows)}")
    try:
        squares = tuple(
            LatinSquare(q, tuple(tuple(r) for r in rows[i * q : (i + 1) * q]))
            for i in range(ell)
        )
        return MolsSet(q, squares)
    except DesignError as exc:
        raise DesignFormatError(1, str(exc)) from None


def read_mols(path: str) -> MolsSet:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mols(fh)


def format_mols(mols: MolsSet, comments: Sequence[str] = ()) -> str:
    squares = (record_text([f"square {i}"], sq.grid) for i, sq in enumerate(mols.squares))
    return record_text(comments, [(mols.order, mols.count)]) + "".join(squares)
