import hashlib
import io
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from hyperec import hypergraph
from hyperec.designs import (
    Design,
    DesignError,
    DesignFormatError,
    LatinSquare,
    MolsSet,
    are_orthogonal,
    complete_mols,
    count_blocks_containing_avoiding,
    design_params,
    fano,
    format_design,
    format_mols,
    inversive_plane,
    is_latin,
    lambda_ij,
    parse_design,
    parse_mols,
    projective_plane,
    validate_design,
)
from hyperec.galois import GaloisError, GfField, field_of_order

# A hand-checked complete family of order 4 (row = cell row, value = symbol).
ORDER4_SQUARES = (
    ((0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0)),
    ((0, 1, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2)),
    ((0, 1, 2, 3), (1, 0, 3, 2), (3, 2, 1, 0), (2, 3, 0, 1)),
)


# --- Latin squares


def test_is_latin_on_known_square():
    assert is_latin(ORDER4_SQUARES[0])


def test_is_latin_rejects_repeated_rows():
    assert not is_latin(((0, 1, 2), (0, 1, 2), (0, 1, 2)))


def test_is_latin_order_one():
    assert is_latin(((0,),))


def test_is_latin_structural_errors():
    with pytest.raises(DesignError):
        is_latin(((0, 1), (0,)))
    with pytest.raises(DesignError):
        is_latin(((0, 5), (5, 0)))
    with pytest.raises(DesignError):
        is_latin(())
    for grid in ((("a", "b"), ("b", "a")), ((0.0, 1.0), (1.0, 0.0)), ((False, True), (True, False))):
        with pytest.raises(DesignError, match="symbol must be int"):
            is_latin(grid)


def test_latin_square_type_validates():
    with pytest.raises(DesignError):
        LatinSquare(3, ((0, 1, 2), (1, 2, 0), (0, 1, 2)))


@pytest.mark.parametrize(
    "order, grid",
    [
        (4, ((0, 1, 2), (1, 2, 0), (2, 0, 1))),  # a Latin square, but of order 3
        (3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)]),
        (2, ((0.0, 1), (1, 0))),
        (2, (("a", "b"), ("b", "a"))),
        (2, ((True, False), (False, True))),
        (2.0, ((0, 1), (1, 0))),
    ],
)
def test_latin_square_rejects_malformed_grid(order, grid):
    with pytest.raises(DesignError):
        LatinSquare(order, grid)


def test_mols_set_rejects_malformed_members():
    square = LatinSquare(3, ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    with pytest.raises(DesignError):
        MolsSet(3, (1, 2))
    with pytest.raises(DesignError):
        MolsSet(3, [square])
    with pytest.raises(DesignError):
        MolsSet("3", ())
    with pytest.raises(DesignError, match="square order mismatch"):
        MolsSet(4, (square,))


def test_orthogonality_of_known_family():
    squares = [LatinSquare(4, g) for g in ORDER4_SQUARES]
    for a, b in itertools.combinations(squares, 2):
        assert are_orthogonal(a, b)


def test_square_not_orthogonal_to_itself():
    sq = LatinSquare(4, ORDER4_SQUARES[0])
    assert not are_orthogonal(sq, sq)


def test_orthogonality_matches_the_pair_count_on_random_squares():
    """The count of s * q + t refuses exactly the squares whose superimposed
    (s, t) pairs repeat: squares with rows, columns and symbols permuted at
    random, orthogonal pairs and not."""
    rng = random.Random(3)
    seen = set()
    for q in (3, 4, 5, 7):
        squares = list(complete_mols(q).squares)
        for _ in range(20):
            rows, cols, syms = (rng.sample(range(q), q) for _ in range(3))
            grid = rng.choice(squares).grid
            squares.append(LatinSquare(q, tuple(
                tuple(syms[grid[r][c]] for c in cols) for r in rows)))
        for a, b in itertools.combinations(squares, 2):
            pairs = {(a.grid[r][c], b.grid[r][c]) for r in range(q) for c in range(q)}
            assert are_orthogonal(a, b) == (len(pairs) == q * q)
            seen.add(len(pairs) == q * q)
    assert seen == {True, False}


def test_orthogonality_order_mismatch():
    a = LatinSquare(4, ORDER4_SQUARES[0])
    b = LatinSquare(2, ((0, 1), (1, 0)))
    with pytest.raises(DesignError):
        are_orthogonal(a, b)


# --- complete MOLS families


def test_complete_mols_3_golden():
    mols = complete_mols(3)
    assert mols.count == 2
    assert mols.squares[0].grid == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert mols.squares[1].grid == ((0, 1, 2), (2, 0, 1), (1, 2, 0))
    assert are_orthogonal(*mols.squares)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_complete_mols_exhaustive(q):
    mols = complete_mols(q)
    assert mols.count == q - 1
    for sq in mols.squares:
        assert is_latin(sq.grid)
    for a, b in itertools.combinations(mols.squares, 2):
        assert are_orthogonal(a, b)
    # Square a is cell(x, y) = a*x + y by the field's own arithmetic.
    field = field_of_order(q)
    assert tuple(sq.grid for sq in mols.squares) == tuple(
        tuple(tuple(field.add(field.mul(a, x), y) for y in range(q)) for x in range(q))
        for a in range(1, q)
    )


def test_complete_mols_rejects_non_prime_power():
    with pytest.raises(GaloisError):
        complete_mols(6)
    with pytest.raises(DesignError):
        complete_mols(2)


def test_mols_set_rejects_non_orthogonal():
    sq = LatinSquare(4, ORDER4_SQUARES[0])
    with pytest.raises(DesignError):
        MolsSet(4, (sq, sq))
    # A repeated square after two good ones: the pairs after the first are checked too.
    squares = complete_mols(5).squares
    with pytest.raises(DesignError, match="not pairwise orthogonal"):
        MolsSet(5, squares[:3] + squares[2:3])


def test_mols_set_size_cap():
    squares = complete_mols(3).squares
    with pytest.raises(DesignError):
        MolsSet(3, squares + squares)


# --- designs and validation


def test_fano_is_valid(fano):
    assert fano.b == 7
    report = validate_design(fano)
    assert report.valid and report.min_coverage == report.max_coverage == 1


def test_fano_replication(fano):
    for point in range(7):
        assert sum(point in block for block in fano.blocks) == 3


def test_fano_minus_block_invalid(fano):
    broken = Design(2, 7, 3, 1, fano.blocks[1:])
    report = validate_design(broken)
    assert not report.valid
    assert report.min_coverage == 0


def test_complete_design_valid():
    blocks = tuple(itertools.combinations(range(6), 3))
    design = Design(2, 6, 3, comb(4, 1), blocks)
    assert validate_design(design).valid


def test_design_structure_errors():
    with pytest.raises(DesignError):
        Design(2, 7, 3, 1, ((0, 1),))
    with pytest.raises(DesignError):
        Design(2, 7, 3, 1, ((0, 1, 9),))
    with pytest.raises(DesignError):
        Design(2, 7, 3, 1, ((0, 1, 1),))
    with pytest.raises(DesignError):
        Design(3, 7, 2, 1, ())  # t > k
    with pytest.raises(DesignError, match="int"):
        Design(2, 7, 3, 1, ((0.0, 1, 2),))
    with pytest.raises(DesignError):
        Design(2, 7, 3, 1, [(0, 1, 2)])
    with pytest.raises(DesignError, match="int"):
        Design("2", 7, 3, 1, ())
    with pytest.raises(DesignError, match="int"):
        Design(2, 7, 3, 1.5, ())
    with pytest.raises(DesignError, match="int"):
        Design(True, 7, 3, 1, ())


# --- b, r, and block-counting formulas


def test_design_params_fano(fano):
    params = design_params(fano)
    assert params.b_formula == 7
    assert params.r_formula == 3
    assert params.b_observed == 7
    assert params.replication_min == params.replication_max == 3
    assert params.matches


def test_design_params_pg3(pg3):
    params = design_params(pg3)
    assert params.b_formula == 13
    assert params.r_formula == 4
    assert params.matches


def test_design_params_complete_design():
    blocks = tuple(itertools.combinations(range(6), 3))
    design = Design(2, 6, 3, 4, blocks)
    params = design_params(design)
    assert params.b_formula == len(blocks) == params.b_observed
    assert params.matches


def test_count_ranges_match_a_count_per_point_and_pair():
    """Points and pairs in no block count 0."""
    rng = random.Random(11)
    ranges = set()
    for _ in range(200):
        v = rng.randint(3, 9)
        blocks = {tuple(sorted(rng.sample(range(v), 3))) for _ in range(rng.randint(0, 6))}
        design = Design(2, v, 3, 1, tuple(blocks))
        reps = [sum(p in b for b in design.blocks) for p in range(v)]
        params = design_params(design)
        assert (params.replication_min, params.replication_max) == (min(reps), max(reps))
        cover = [sum(set(pair) <= set(b) for b in design.blocks)
                 for pair in itertools.combinations(range(v), 2)]
        report = validate_design(design)
        assert (report.min_coverage, report.max_coverage) == (min(cover), max(cover))
        ranges.add((min(reps) > 0, min(cover) > 0))
    assert ranges == {(False, False), (True, False), (True, True)}


def test_design_params_requires_t2(inv3):
    with pytest.raises(DesignError):
        design_params(inv3)


def test_lambda_ij_fano_values(fano):
    assert lambda_ij(fano, 1, 1) == 2
    assert lambda_ij(fano, 2, 0) == 1  # the defining lambda
    assert lambda_ij(fano, 0, 0) == 7  # every block qualifies
    assert lambda_ij(fano, 1, 0) == 3  # the replication number


def test_lambda_ij_product_form_is_the_binomial_ratio():
    """lambda C(v-i-j, k-i) / C(v-t, k-t), the textbook form, as an exact
    Fraction on every t <= 6, k <= 11, v <= 15, lambda <= 3 and i + j <= t."""
    cases = 0
    for t, lam in itertools.product(range(1, 7), range(1, 4)):
        for k in range(t, 12):
            for v in range(k, 16):
                design = Design(t, v, k, lam, ())
                for i in range(t + 1):
                    for j in range(t + 1 - i):
                        want = Fraction(lam * comb(v - i - j, k - i), comb(v - t, k - t))
                        assert lambda_ij(design, i, j) == want, (t, v, k, lam, i, j)
                        cases += 1
    assert cases == 15498


def test_lambda_ij_rejects_beyond_t(fano):
    with pytest.raises(DesignError):
        lambda_ij(fano, 2, 1)
    with pytest.raises(DesignError):
        lambda_ij(fano, -1, 0)


def test_count_blocks_requires_disjoint(fano):
    with pytest.raises(DesignError):
        count_blocks_containing_avoiding(fano, [0, 1], [1])


@pytest.mark.parametrize("design_name", ["fano", "pg3"])
def test_lambda_ij_formula_matches_counts_exhaustively(design_name, request):
    design = request.getfixturevalue(design_name)
    points = range(design.v)
    for i in range(design.t + 1):
        for j in range(design.t + 1 - i):
            expected = lambda_ij(design, i, j)
            assert expected.denominator == 1
            for inside in itertools.combinations(points, i):
                rest = [p for p in points if p not in inside]
                for avoid in itertools.combinations(rest, j):
                    got = count_blocks_containing_avoiding(design, inside, avoid)
                    assert got == expected, (i, j, inside, avoid)


def test_lambda_ij_can_be_fractional():
    # a parameter set with no integral block count is flagged by exactness
    design = Design(2, 8, 3, 1, ((0, 1, 2),))
    assert lambda_ij(design, 0, 1) == Fraction(35, 6)


# --- plane constructions


@pytest.mark.parametrize(
    "q, v, k, b", [(2, 7, 3, 7), (3, 13, 4, 13), (4, 21, 5, 21)]
)
def test_projective_planes(q, v, k, b, request):
    design = projective_plane(q)
    assert (design.t, design.v, design.k, design.lam) == (2, v, k, 1)
    assert design.b == b
    assert validate_design(design).valid


def test_projective_plane_rejects_non_prime_power():
    with pytest.raises(GaloisError):
        projective_plane(6)


@pytest.mark.parametrize("q, v, k, b", [(3, 10, 4, 30), (4, 17, 5, 68), (5, 26, 6, 130)])
def test_inversive_planes(q, v, k, b, request):
    design = request.getfixturevalue(f"inv{q}")
    assert (design.t, design.v, design.k, design.lam) == (3, v, k, 1)
    assert design.b == b == q * (q * q + 1)
    assert validate_design(design).valid


def _inversive_plane_blocks_from_all_matrices(q):
    # every invertible matrix, q^2 - 1 of them per map
    field = field_of_order(q * q)
    Q = q * q
    mul, add, neg, inv = field.mul_table, field.add_table, field.neg_table, field.inv_table
    subline = [x for x in range(Q) if field.pow(x, q) == x]

    def image(a, b, c, d, z):
        if z == Q:
            return Q if c == 0 else mul[a][inv[c]]
        den = add[mul[c][z]][d]
        return Q if den == 0 else mul[add[mul[a][z]][b]][inv[den]]

    blocks = set()
    for a, b, c, d in itertools.product(range(Q), repeat=4):
        if add[mul[a][d]][neg[mul[b][c]]] != 0:
            blocks.add(tuple(sorted(image(a, b, c, d, z) for z in subline + [Q])))
    return tuple(sorted(blocks))


@pytest.mark.parametrize("q", [3, 4])
def test_inversive_plane_matches_all_matrices(q):
    assert inversive_plane(q).blocks == _inversive_plane_blocks_from_all_matrices(q)


@pytest.mark.parametrize("q, digest", [
    (7, "d04dd783355ec6726c75a2a99e9dd0944836fe0acd4f3ec6ac3f49e26d3526b2"),
    (8, "248e555848a182bc6c589fd7c771d579abda65ed85a856fd4ba7ed15a4516cc5"),
    (9, "03fc75b826ae8f9b6e60cf6da7650fd907e2ce884cedfe7249ff8eafd585a31b"),
])
def test_inversive_plane_text_is_pinned(q, digest):
    # sha256 of the design text as the matrix enumeration wrote it
    text = format_design(inversive_plane(q))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_inversive_plane_rejects_bad_order():
    with pytest.raises(GaloisError, match="^q=6 is not a prime power$"):
        inversive_plane(6)
    with pytest.raises(DesignError):
        inversive_plane(2)


# --- design text format


def test_design_round_trip(fano):
    text = format_design(fano, ["fixture"])
    assert text.startswith("# fixture\n2 7 3 1\n")
    assert parse_design(io.StringIO(text)) == fano


def test_mols_round_trip():
    mols = complete_mols(4)
    text = format_mols(mols, ["fixture"])
    assert parse_mols(io.StringIO(text)) == mols


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 7 3\n",
        "2 7 3 1\n0 1\n",
        "2 7 3 1\n0 1 9\n",
        "2 7 3 1\n0 a 2\n",
    ],
)
def test_design_parse_errors(text):
    with pytest.raises(DesignFormatError):
        parse_design(io.StringIO(text))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "4\n",
        "2 1\n0 1\n",  # missing a row
        "2 1\n0 1\n1 0\n2 0\n",  # too many rows
        "2 1\n0 1\n1 5\n",  # symbol out of range
    ],
)
def test_mols_parse_errors(text):
    with pytest.raises(DesignFormatError):
        parse_mols(io.StringIO(text))


@pytest.mark.parametrize("parse, text, message", [
    (parse_design, "2 7 3 1\n0 1\n", "line 2: expected 3 points, got 2"),
    (parse_design, "2 7 3 1\n0 1 7\n", "line 2: block [0, 1, 7] invalid for k=3 v=7"),
    (parse_design, "2 7 3 1\n1 0 1\n", "line 2: block [1, 0, 1] invalid for k=3 v=7"),
    (parse_design, "# c\n\n2 7 3 0\n0 1 2\n", "line 3: lambda must be >= 1, got 0"),
    (parse_design, "# c\n4 7 3 1\n", "line 2: k must be >= 4, got 3"),
    (parse_design, "2 3 5 1\n0 1 2 3 4\n", "line 1: v must be >= 5, got 3"),  # not the block
    (parse_design, "# c\n2 7 3 0\n0 1 9\n", "line 2: lambda must be >= 1, got 0"),
    (parse_mols, "2 1\n0 1 0\n", "line 2: expected 2 symbols, got 3"),
    (parse_mols, "# c\n2 1\n0 1\n1 5\n", "line 2: symbol 5 out of range [0, 2)"),
    (parse_mols, "# c\n2 1\n0 1\n1 0\n2 0\n", "line 2: expected 2 rows for 1 squares, got 3"),
])
def test_design_parse_errors_name_their_line(parse, text, message):
    """A record's error names the record's line; one that refuses the whole
    file, from the constructor or the row count, names the header's line."""
    with pytest.raises(DesignFormatError) as err:
        parse(io.StringIO(text))
    assert str(err.value).startswith(message)


def test_design_header_is_refused_before_any_block_is_read():
    """The header is checked before the first block is read, so a bad header
    followed by 10^6 blocks is refused at once."""
    def lines():
        yield "2 7 3 0\n"
        raise AssertionError("a block was read before the header was checked")

    with pytest.raises(DesignFormatError, match="^line 1: lambda must be >= 1, got 0$"):
        parse_design(lines())


def test_validate_over_size_limit_is_refused(fano, monkeypatch):
    """The 7 blocks' 7 * C(3, 2) = 21 pairs, 42 points, are counted only within
    the limit, read at call time."""
    monkeypatch.setattr(hypergraph, "MAX_SETS", 41)
    with pytest.raises(DesignError,
                       match="= 21 2-subsets of the blocks, 42 points, is above the limit of 41"):
        validate_design(fano)
    monkeypatch.setattr(hypergraph, "MAX_SETS", 42)
    assert validate_design(fano).valid


@pytest.mark.parametrize("build, q, listed, message", [
    (complete_mols, 4, 48, "listing the 3 squares of order 4, 48 cells"),
    (projective_plane, 3, 156, "= 78 2-subsets of the blocks, 156 points"),  # 13 * C(4, 2)
    (inversive_plane, 3, 360, "= 120 3-subsets of the blocks, 360 points"),  # 30 * C(4, 3)
])
def test_construction_over_size_limit_is_refused_before_the_tables(
        monkeypatch, build, q, listed, message):
    """Each generator bounds what it will list, cells or validated block subsets,
    and refuses before any field table is built."""

    def no_table(field):
        raise AssertionError("field table built for a refused order")

    monkeypatch.setattr(GfField, "mul_table", property(no_table))
    monkeypatch.setattr(GfField, "add_table", property(no_table))
    monkeypatch.setattr(hypergraph, "MAX_SETS", listed - 1)
    with pytest.raises(DesignError, match=f"{message}, is above the limit of {listed - 1}"):
        build(q)
    monkeypatch.undo()
    monkeypatch.setattr(hypergraph, "MAX_SETS", listed)
    build(q)
