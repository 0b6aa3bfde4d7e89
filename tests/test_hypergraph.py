import io
import itertools
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hyperec.designs import Design, DesignError

from hyperec.hypergraph import (
    Hypergraph,
    HypergraphError,
    HypergraphFormatError,
    complete_hypergraph,
    empty_hypergraph,
    format_hypergraph,
    new_hypergraph,
    parse_hypergraph,
    read_hypergraph,
)


def small_hypergraphs(max_m=7):
    """Strategy: arbitrary small uniform hypergraphs."""

    @st.composite
    def build(draw):
        h = draw(st.integers(2, 3))
        m = draw(st.integers(h, max_m))
        all_edges = list(itertools.combinations(range(m), h))
        edges = draw(st.lists(st.sampled_from(all_edges), max_size=len(all_edges)))
        return new_hypergraph(h, m, edges)

    return build()


# --- construction and canonicalization


def test_two_triple_construction(two_triple):
    assert two_triple.h == 3
    assert two_triple.m == 4
    assert two_triple.edges == ((0, 1, 2), (0, 2, 3))


def test_empty_edge_set():
    assert new_hypergraph(3, 4, []).edge_count == 0


def test_duplicate_edge_collapses():
    hg = new_hypergraph(3, 4, [(0, 1, 2), (2, 1, 0)])
    assert hg.edge_count == 1


def test_member_order_ignored():
    assert new_hypergraph(3, 5, [(4, 0, 2)]) == new_hypergraph(3, 5, [(2, 4, 0)])


@given(small_hypergraphs(), st.randoms(use_true_random=False))
def test_canonicalization_shuffle_invariant(hg, rng):
    shuffled = [list(e) for e in hg.edges]
    rng.shuffle(shuffled)
    for e in shuffled:
        rng.shuffle(e)
    assert new_hypergraph(hg.h, hg.m, shuffled) == hg


@pytest.mark.parametrize(
    "h, m, edges",
    [
        (1, 4, []),
        (3, 2, []),
        (3, 4, [(0, 1)]),
        (3, 4, [(0, 1, 4)]),
        (3, 4, [(0, 1, 1)]),
        (3, 4, [(0, 1, -1)]),
    ],
)
def test_constructor_rejects(h, m, edges):
    with pytest.raises(HypergraphError):
        new_hypergraph(h, m, edges)


def test_raw_dataclass_rejects_non_canonical():
    with pytest.raises(HypergraphError):
        Hypergraph(3, 4, ((0, 2, 1),))
    with pytest.raises(HypergraphError):
        Hypergraph(3, 4, ((0, 1, 2), (0, 1, 2)))
    with pytest.raises(HypergraphError, match="int"):
        Hypergraph(3, 5, ((0.0, 1, 2),))
    with pytest.raises(HypergraphError, match="int"):
        Hypergraph(3, 5, ((0, 1, 2), (0, 1, 3.0)))
    with pytest.raises(HypergraphError):
        Hypergraph(3, 5, [(0, 1, 2)])  # a list of edges is not hashable
    with pytest.raises(HypergraphError, match="int"):
        Hypergraph("3", 5, ())
    with pytest.raises(HypergraphError, match="int"):
        Hypergraph(3, 5.0, ())


_members = st.one_of(
    st.integers(-1, 8), st.text(max_size=1), st.floats(-1, 8), st.booleans()
)
_edge_inputs = st.one_of(
    st.lists(_members, max_size=4).map(tuple),
    st.lists(_members, max_size=4),
    st.integers(),
    st.none(),
)


def _canonical(rows, width, n):
    return list(rows) == sorted(rows) and all(
        type(r) is tuple
        and len(r) == width
        and all(type(v) is int for v in r)
        and list(r) == sorted(set(r))
        and 0 <= r[0] <= r[-1] < n
        for r in rows
    )


@given(st.lists(_edge_inputs, max_size=4))
@example([("a", "b", "c")])
@example([("a", 1, 2)])
def test_malformed_edges_meet_one_gate(edges):
    # the factory, the raw dataclass and a design's blocks either give a
    # valid value or refuse with their own error, never a bare TypeError
    for build in (new_hypergraph, Hypergraph):
        try:
            hg = build(3, 5, tuple(edges))
        except HypergraphError:
            continue
        assert _canonical(hg.edges, 3, 5) and len(set(hg.edges)) == hg.edge_count
    try:
        assert _canonical(Design(2, 7, 3, 1, tuple(edges)).blocks, 3, 7)
    except DesignError:
        pass


# --- membership and degree


def test_has_edge(two_triple):
    assert two_triple.has_edge({0, 1, 2})
    assert two_triple.has_edge(two_triple.edges[0])
    # enumerate all four triples: only the two stored ones are edges
    present = [e for e in itertools.combinations(range(4), 3) if two_triple.has_edge(e)]
    assert present == [(0, 1, 2), (0, 2, 3)]
    assert not two_triple.has_edge({1, 2, 3})
    with pytest.raises(HypergraphError):
        two_triple.has_edge({0, 1})


def test_degree(two_triple):
    assert two_triple.degree(0) == 2
    assert empty_hypergraph(3, 5).degree(2) == 0
    full = complete_hypergraph(3, 6)
    assert all(full.degree(v) == comb(5, 2) for v in range(6))


@given(small_hypergraphs())
def test_degree_sum_is_h_times_edges(hg):
    assert sum(hg.degree(v) for v in range(hg.m)) == hg.h * hg.edge_count


# --- complement


def test_complement_2triple(two_triple):
    comp = two_triple.complement()
    # brute force: the triples of a 4-set not among the stored edges
    expected = [
        e for e in itertools.combinations(range(4), 3) if e not in two_triple.edge_set
    ]
    assert list(comp.edges) == expected
    assert comp.edge_count == 2


def test_complement_of_complete_is_empty():
    assert complete_hypergraph(3, 5).complement().edge_count == 0


@given(small_hypergraphs())
def test_complement_involution_and_partition(hg):
    comp = hg.complement()
    assert comp.complement() == hg
    assert hg.edge_count + comp.edge_count == comb(hg.m, hg.h)


# --- vertex deletion


def test_delete_vertex(two_triple):
    smaller, relabel = two_triple.delete_vertex(3)
    assert smaller == Hypergraph(3, 3, ((0, 1, 2),))
    assert relabel == {0: 0, 1: 1, 2: 2}


def test_delete_unused_vertex_keeps_count():
    hg = new_hypergraph(3, 5, [(0, 1, 2)])
    smaller, relabel = hg.delete_vertex(4)
    assert smaller.edge_count == 1
    assert relabel == {0: 0, 1: 1, 2: 2, 3: 3}


def test_delete_edge_vertex_drops_edge():
    hg = new_hypergraph(3, 4, [(0, 1, 2)])
    smaller, _ = hg.delete_vertex(1)
    assert smaller.edge_count == 0


def test_delete_relabels_above():
    hg = new_hypergraph(3, 5, [(0, 3, 4)])
    smaller, relabel = hg.delete_vertex(1)
    assert relabel == {0: 0, 2: 1, 3: 2, 4: 3}
    assert smaller.edges == ((0, 2, 3),)


def test_delete_at_minimum_size_rejected():
    with pytest.raises(HypergraphError):
        complete_hypergraph(3, 3).delete_vertex(0)


# --- neighbourhoods


def test_neighbourhood(two_triple):
    assert two_triple.neighbourhood(0) == {1, 2, 3}
    assert two_triple.neighbourhood(1) == {0, 2}
    assert new_hypergraph(3, 5, [(0, 1, 2)]).neighbourhood(4) == frozenset()
    full = complete_hypergraph(3, 5)
    assert full.neighbourhood(2) == set(range(5)) - {2}


def test_anti_neighbourhood_extremes():
    assert complete_hypergraph(3, 5).anti_neighbourhood(0) == frozenset()
    assert empty_hypergraph(3, 5).anti_neighbourhood(0) == set(range(1, 5))


def test_anti_neighbourhood_2triple(two_triple):
    # non-edges are {0,1,3} and {1,2,3}; only the first contains vertex 0
    assert two_triple.anti_neighbourhood(0) == {1, 3}


@given(small_hypergraphs())
def test_anti_neighbourhood_matches_complement_oracle(hg):
    comp = hg.complement()
    for v in range(hg.m):
        assert hg.anti_neighbourhood(v) == comp.neighbourhood(v)


# --- induced subgraphs


def test_induced_identity(two_triple):
    sub, relabel = two_triple.induced(range(4))
    assert sub == two_triple
    assert relabel == {v: v for v in range(4)}


def test_induced_2triple(two_triple):
    sub, _ = two_triple.induced([0, 1, 2])
    assert sub.edges == ((0, 1, 2),)


def test_induced_without_full_edge():
    sub, _ = new_hypergraph(3, 5, [(0, 1, 2)]).induced([1, 2, 3])
    assert sub.edge_count == 0


def test_induced_too_small_rejected(two_triple):
    with pytest.raises(HypergraphError):
        two_triple.induced([0, 1])


@given(small_hypergraphs())
def test_induced_on_all_but_v_equals_deletion(hg):
    if hg.m == hg.h:
        return
    for v in range(hg.m):
        by_deletion, map_a = hg.delete_vertex(v)
        by_induction, map_b = hg.induced(set(range(hg.m)) - {v})
        assert by_deletion == by_induction
        assert map_a == map_b


# --- text format


def test_read_bundled_file(fig5_path, two_triple):
    assert read_hypergraph(fig5_path) == two_triple


def test_k3k3_file_matches_generator(k3k3_path, k3k3):
    assert read_hypergraph(k3k3_path) == k3k3


def test_format_round_trip(two_triple):
    text = format_hypergraph(two_triple, ["a comment"])
    assert text.startswith("# a comment\n3 4\n")
    assert parse_hypergraph(io.StringIO(text)) == two_triple


def test_writer_is_canonical_and_idempotent(k3k3):
    text = format_hypergraph(k3k3)
    again = format_hypergraph(parse_hypergraph(io.StringIO(text)))
    assert text == again
    body = [l for l in text.splitlines() if not l.startswith("#")][1:]
    assert body == sorted(body, key=lambda l: tuple(int(x) for x in l.split()))


@given(small_hypergraphs())
def test_round_trip_any(hg):
    assert parse_hypergraph(io.StringIO(format_hypergraph(hg))) == hg


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("", 1),
        ("3\n", 1),
        ("3 4\n0 1\n", 2),
        ("3 4\n0 1 9\n", 2),
        ("3 4\nx y z\n", 2),
        ("3 4\n0 1 2\n0 0 1\n", 3),
        ("1 4\n", 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(HypergraphFormatError) as err:
        parse_hypergraph(io.StringIO(text))
    assert err.value.line_no == line_no


def test_comments_and_blank_lines_skipped():
    hg = parse_hypergraph(io.StringIO("# top\n\n3 4\n# mid\n0 1 2\n\n"))
    assert hg.edges == ((0, 1, 2),)
