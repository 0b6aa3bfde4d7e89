import itertools
from math import comb

import pytest

from hyperec import builders, designs, hypergraph
from hyperec.builders import build_from_design, build_from_mols
from hyperec.checker import is_nec, max_ec
from hyperec.designs import (
    Design,
    DesignError,
    LatinSquare,
    MolsSet,
    complete_mols,
    fano,
    projective_plane,
)

from test_designs import ORDER4_SQUARES


# --- the array construction


def test_order4_build_counts(mols4_build):
    hg = mols4_build.hypergraph
    assert hg.h == 3
    assert hg.m == 16
    assert mols4_build.raw_edges == mols4_build.unique_edges == 80
    assert mols4_build.guaranteed_ec == 2


def test_order5_build_counts(mols5_build):
    hg = mols5_build.hypergraph
    assert hg.m == 25
    assert mols5_build.raw_edges == mols5_build.unique_edges == 150
    assert mols5_build.guaranteed_ec == 2


def test_symbol_class_edges_from_known_family():
    # symbol 0 of the first hand-checked square sits at cells 0, 6, 9, 15
    mols = MolsSet(4, tuple(LatinSquare(4, g) for g in ORDER4_SQUARES))
    built = build_from_mols(mols)
    for triple in itertools.combinations((0, 6, 9, 15), 3):
        assert built.hypergraph.has_edge(triple)
    assert built.unique_edges == 80


def test_row_and_column_edges(mols4_build):
    hg = mols4_build.hypergraph
    assert hg.has_edge((0, 1, 2))  # first row
    assert hg.has_edge((0, 4, 8))  # first column
    assert not hg.has_edge((0, 1, 7))


def test_incomplete_family_counts():
    mols = complete_mols(5)
    partial = MolsSet(5, mols.squares[:2])
    built = build_from_mols(partial)
    assert built.raw_edges == built.unique_edges == (2 + 2) * 25
    assert built.guaranteed_ec is None


def test_build_from_mols_rejects_small_order():
    with pytest.raises(DesignError):
        build_from_mols(complete_mols(3))


def test_non_orthogonal_family_rejected_at_type():
    sq = LatinSquare(4, ORDER4_SQUARES[0])
    with pytest.raises(DesignError):
        MolsSet(4, (sq, sq))


# --- the block construction


def test_fano_as_hypergraph(fano):
    built = build_from_design(fano, 3)
    assert built.hypergraph.edges == fano.blocks
    assert built.raw_edges == built.unique_edges == 7
    assert built.guaranteed_ec == 1  # design viewed as its own hypergraph


def test_pg3_h3_counts(pg3):
    built = build_from_design(pg3, 3)
    assert built.hypergraph.m == 13
    assert built.raw_edges == built.unique_edges == 13 * comb(4, 3) == 52
    assert built.guaranteed_ec == 2


def test_pg4_guarantees(pg4):
    assert build_from_design(pg4, 3).guaranteed_ec == 2
    assert build_from_design(pg4, 4).guaranteed_ec == 2
    assert build_from_design(pg4, 5).guaranteed_ec == 1  # h = k case


def test_inv5_h4_counts(inv5):
    built = build_from_design(inv5, 4)
    assert built.hypergraph.m == 26
    assert built.raw_edges == built.unique_edges == 130 * comb(6, 4) == 1950
    assert built.guaranteed_ec == 3


def test_h_out_of_range(fano):
    with pytest.raises(DesignError):
        build_from_design(fano, 2)
    with pytest.raises(DesignError):
        build_from_design(fano, 4)


def test_invalid_design_rejected(fano):
    broken = Design(2, 7, 3, 1, fano.blocks[1:])
    with pytest.raises(DesignError):
        build_from_design(broken, 3)


def test_negative_control_fano(fano):
    built = build_from_design(fano, 3)
    assert is_nec(built.hypergraph, 1).holds
    result = is_nec(built.hypergraph, 2)
    assert not result.holds
    assert len(result.counterexample[1]) == 2  # both chosen vertices must join


def test_lambda_one_designs_never_2ec(fano, pg3):
    # a block would need an (h-1)... a (k-1)-set joining two points at once
    for design in (fano, pg3):
        built = build_from_design(design, design.k)
        assert max_ec(built.hypergraph) == 1


@pytest.mark.parametrize(
    "design_name", ["fano", "pg2", "pg3", "pg4", "inv3", "inv4", "inv5"]
)
def test_all_generated_designs_are_1ec_as_hypergraphs(design_name, request):
    design = request.getfixturevalue(design_name)
    assert design.v > design.k
    assert design.b < comb(design.v, design.k)  # not the complete design
    built = build_from_design(design, design.k)
    assert built.guaranteed_ec >= 1
    assert is_nec(built.hypergraph, 1).holds


def test_provenance_strings(mols4_build, fano):
    assert mols4_build.provenance == "built-from: mols q=4 squares=3"
    built = build_from_design(fano, 3)
    assert built.provenance == "built-from: design t=2 v=7 k=3 lambda=1 h=3"


def test_build_refuses_an_invalid_design(fano):
    broken = Design(2, 7, 3, 1, fano.blocks[1:])
    with pytest.raises(DesignError) as caught:
        build_from_design(broken, 3)
    assert str(caught.value) == "design failed validation: coverage range [0, 1], expected 1"


def test_mols_build_over_size_limit_is_refused_before_listing(monkeypatch):
    """The complete order-4 family has 2 * 4 + 4 * 3 = 20 lines, the blocks
    of its net, with 20 * C(4, 3) = 80 triples, 240 points."""
    mols = complete_mols(4)
    monkeypatch.setattr(hypergraph, "MAX_SETS", 240)
    assert build_from_mols(mols).raw_edges == 80
    monkeypatch.setattr(hypergraph, "MAX_SETS", 239)
    monkeypatch.setattr(builders.itertools, "combinations", None)  # any listing fails
    with pytest.raises(DesignError, match=(r"^listing the 20 \* C\(4, 3\) = 80 3-subsets of "
                                           "the blocks, 240 points, is above the limit of 239$")):
        build_from_mols(mols)


def test_build_over_size_limit_is_refused_before_validation(monkeypatch):
    """pg5's 31 blocks have 31 * C(6, 2) = 465 pairs, 930 points, to validate,
    but 620 triples, 1860 points."""
    def no_validation(design):
        raise AssertionError("the design was validated before the size check")

    design = projective_plane(5)
    monkeypatch.setattr(designs, "validate_design", no_validation)
    monkeypatch.setattr(hypergraph, "MAX_SETS", 1859)
    with pytest.raises(DesignError,
                       match="= 620 3-subsets of the blocks, 1860 points, is above the limit"):
        build_from_design(design, 3)
