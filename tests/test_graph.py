import re

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from multidom import (
    MAX_VERTICES,
    FamilySpec,
    Graph,
    GraphError,
    KOutOfRangeError,
    Mode,
    generate,
    satisfies,
)
from conftest import (
    closed_neighborhood,
    edges as edges_of,  # tests here bind edges to edge lists
    graphs,
    neighbors,
    ref_fingerprint,
    ref_graph,
    ref_is_dominating,
    ref_is_k_dominating,
    ref_is_ktuple_dominating,
    vertex_subsets,
)


def _ref_closed(g, v):
    return frozenset(g.adjacency[v]) | {v}


def test_basic_counts():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4
    assert g.m == 4
    assert g.max_degree() == 2
    assert g.min_degree() == 2
    assert list(edges_of(g)) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    assert g.adjacency == ((1,), (0,), ())


def test_adjacency_sorted_and_m_consistent():
    g = Graph(5, [(4, 0), (2, 0), (3, 1), (0, 1)])
    assert all(list(row) == sorted(row) for row in g.adjacency)
    assert sum(len(row) for row in g.adjacency) == 2 * g.m


@given(st.data())
def test_adjacency_matches_set_built_reference(data):
    n = data.draw(st.integers(2, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = data.draw(st.lists(pair, max_size=30))
    # Every edge once more, reversed, in any order: duplicates in both orientations.
    edges = data.draw(st.permutations(edges + [(v, u) for u, v in edges]))
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    g = Graph(n, edges)
    assert g.adjacency == tuple(tuple(sorted(s)) for s in nbrs)
    assert g.m == sum(len(s) for s in nbrs) // 2
    assert g.fingerprint() == Graph(n, list(edges_of(g))).fingerprint()


@st.composite
def edge_lists(draw):
    """(n, edges): duplicates in both orientations in any order, isolated
    vertices and n = 1, then sometimes bad edges inserted anywhere."""
    n = draw(st.integers(1, 12))
    ids = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=30))
    edges = draw(st.permutations(edges + draw(st.lists(st.sampled_from(edges))) if edges else []))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    outside = st.integers(-2 * n - 1, -1) | st.integers(n, 2 * n + 1)
    bad = st.one_of(
        st.tuples(ids, outside),
        st.tuples(outside, ids),
        ids.map(lambda v: (v, v)),
        outside.map(lambda v: (v, v)),  # out of range is named before a self-loop
        st.tuples(ids),  # not a pair
        st.tuples(ids, ids, ids),
        ids,
    )
    for _ in range(draw(st.integers(0, 2))):
        edges.insert(draw(st.integers(0, len(edges))), draw(bad))
    return n, edges


def _graph_outcome(n, edges):
    try:
        return Graph(n, edges).adjacency
    except GraphError as exc:
        return str(exc)


@given(edge_lists(), st.booleans())
@example((1, []), False)
@example((3, [(0, 1), (1, 0), (2, 2), (0, 5)]), False)  # the self-loop comes first
@example((3, [(0, 1), (2, -2)]), False)  # a wrapped id is the only bad edge
@example((3, [(1, -2), (0, 0)]), True)  # a wrapped id that lands in its own row
@example((3, [(0, 1), (2,), (1, 1)]), False)  # not a pair, before a self-loop
def test_graph_matches_per_edge_reference(case, one_pass):
    n, edges = case
    arg = iter(edges) if one_pass else edges
    try:
        expected = ref_graph(n, edges)
    except (ValueError, TypeError) as exc:  # an edge that is not a pair
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            Graph(n, arg)
        return
    assert _graph_outcome(n, arg) == expected
    if not isinstance(expected, str):
        assert Graph(n, edges).m == sum(map(len, expected)) // 2


@given(graphs(max_n=12))
def test_degree_extremes_are_computed_once(g):
    rows = [len(row) for row in g.adjacency]
    assert (g._max_degree, g._min_degree) == (None, None)
    assert (g.max_degree(), g.min_degree()) == (max(rows), min(rows))
    assert (g._max_degree, g._min_degree) == (max(rows), min(rows))
    assert (g.max_degree(), g.min_degree()) == (max(rows), min(rows))


def test_construction_errors():
    with pytest.raises(GraphError, match="^graph needs at least one vertex, got n=0$"):
        Graph(0)
    with pytest.raises(GraphError):
        Graph(-2)
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(-1, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(1, 1)])


def test_non_int_endpoint_is_graph_error():
    # Named as a GraphError, not the TypeError of indexing a row with it, and
    # only when it is the first bad edge in input order.
    for edges, named in (
        ([(1.0, 2)], "(1.0, 2)"),
        ([(1, 2.0)], "(1, 2.0)"),
        ([("a", 2)], "('a', 2)"),
        ([(0, 1), (1, None), (0, 5)], "(1, None)"),
    ):
        text = f"^edge {re.escape(named)} has an endpoint that is not an int$"
        for arg in (edges, iter(edges)):
            with pytest.raises(GraphError, match=text):
                Graph(3, arg)
    with pytest.raises(GraphError, match=r"^edge \(0, 5\) has an endpoint outside 0\.\.2$"):
        Graph(3, [(0, 5), (1.0, 2)])
    # A bool is an int.
    assert Graph(3, [(True, 2), (False, 2)]) == Graph(3, [(1, 2), (0, 2)])


def test_vertex_cap_checked_before_edges_are_read():
    def edges():
        raise AssertionError("edges read before the vertex cap check")
        yield

    with pytest.raises(GraphError, match=f"exceed the cap of {MAX_VERTICES}"):
        Graph(MAX_VERTICES + 1, edges())


def test_neighborhoods():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert neighbors(g, 1) == {0, 2}
    assert closed_neighborhood(g, 1) == {0, 1, 2}
    with pytest.raises(GraphError):
        neighbors(g, 4)


# -- satisfies: solve()'s arrival rule applied to a given set --------------------


def test_validators_on_known_sets():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert satisfies(c4, Mode.DOM, 1, {0, 2})
    assert not satisfies(c4, Mode.DOM, 1, {0})
    assert satisfies(c4, Mode.DOM, 1, {0, 1})

    star = Graph(7, [(0, i) for i in range(1, 7)])
    assert satisfies(star, Mode.KDOM, 2, set(range(1, 7)))
    assert not satisfies(star, Mode.KDOM, 2, {0, 1, 2, 3, 4})
    assert satisfies(star, Mode.KTUPLE, 2, set(range(7)))
    assert not satisfies(star, Mode.KTUPLE, 2, set(range(1, 7)))


def test_validator_k_validation():
    g = Graph(2, [(0, 1)])
    for mode in Mode:
        for k in (0, -1):
            with pytest.raises(ValueError):
                satisfies(g, mode, k, {0})
        for bad in (2, 5, -1):  # -1 must not index vertex 1
            with pytest.raises(GraphError):
                satisfies(g, mode, 1, {0, bad})
    # Plain domination has no multiplicity, as in check_k.
    with pytest.raises(KOutOfRangeError, match="plain domination"):
        satisfies(g, Mode.DOM, 2, {0, 1})
    # A plain string is not a Mode: rejected as solve rejects it, never read
    # as k-tuple, where the leaves {1, 2, 3} fail and k-domination holds.
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert satisfies(star, Mode.KDOM, 2, [1, 2, 3])
    with pytest.raises(ValueError, match="unknown mode 'kdom'"):
        satisfies(star, "kdom", 2, [1, 2, 3])


def test_whole_vertex_set_always_works():
    g = Graph(5, [(0, 1), (2, 3)])
    everything = set(range(5))
    assert satisfies(g, Mode.DOM, 1, everything)
    assert satisfies(g, Mode.KDOM, 3, everything)  # membership absolves
    # k-tuple with k=1 only: vertex 4 is isolated.
    assert satisfies(g, Mode.KTUPLE, 1, everything)
    assert not satisfies(g, Mode.KTUPLE, 2, everything)


@given(graphs())
def test_k1_validators_agree(g):
    xs = frozenset(range(0, g.n, 2))
    assert satisfies(g, Mode.KDOM, 1, xs) == satisfies(g, Mode.DOM, 1, xs)
    assert satisfies(g, Mode.KTUPLE, 1, xs) == satisfies(g, Mode.DOM, 1, xs)


@given(st.data(), graphs(), st.integers(1, 4))
def test_validators_match_frozenset_reference(data, g, k):
    xset = data.draw(vertex_subsets(g))
    # Duplicates and order in xs must not matter, nor may a one-pass iterator.
    xs = sorted(xset, reverse=True) * 2
    assert satisfies(g, Mode.DOM, 1, xs) == ref_is_dominating(g, xset)
    assert satisfies(g, Mode.KDOM, k, xs) == ref_is_k_dominating(g, k, xset)
    assert satisfies(g, Mode.KTUPLE, k, iter(xs)) == ref_is_ktuple_dominating(g, k, xset)
    for v in range(g.n):
        assert neighbors(g, v) == frozenset(g.adjacency[v])
        assert closed_neighborhood(g, v) == _ref_closed(g, v)


@given(graphs(), st.integers(1, 3))
def test_ktuple_implies_k_dominating(g, k):
    xs = frozenset(range(g.n))  # largest candidate; then shrink by parity
    for cand in (xs, frozenset(v for v in xs if v % 2)):
        if satisfies(g, Mode.KTUPLE, k, cand):
            assert satisfies(g, Mode.KDOM, k, cand)


def test_fingerprint_and_equality():
    g1 = Graph(4, [(0, 1), (2, 3)])
    g2 = Graph(4, [(2, 3), (0, 1)])
    g3 = Graph(4, [(0, 1), (1, 3)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1.fingerprint() == g2.fingerprint()
    assert g1 != g3
    assert g1.fingerprint() != g3.fingerprint()
    n, m, digest = g1.fingerprint()
    assert (n, m) == (4, 2)
    assert len(digest) == 16
    # Pinned: saved traces carry this digest, so its format must not drift.
    assert digest == "ad2ff02e2d0e9c61"
    assert Graph(1).fingerprint() == (1, 0, "22aacb9a12e5d042")


@given(graphs(max_n=12))
@example(Graph(1))
@example(Graph(5, [(3, 4)]))  # isolated vertices, and 4 has no higher neighbour
@example(Graph(4, [(0, 3), (1, 3), (2, 3)]))  # only the last row lacks higher ids
def test_fingerprint_matches_per_edge_payload(g):
    assert g.fingerprint() == ref_fingerprint(g)


def test_fingerprint_matches_per_edge_payload_on_erdos_renyi():
    for n, p in ((40, 0.0), (40, 0.3), (40, 1.0), (400, 0.25)):
        g = generate(FamilySpec("erdos_renyi", n=n, p=p, seed=1))
        assert g.fingerprint() == ref_fingerprint(g)
