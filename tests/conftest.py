import hypothesis.strategies as st

from multidom import Graph, Mode


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 10):
    """Arbitrary small graphs: pick n, then any subset of the possible edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return Graph(n, edges)


@st.composite
def vertex_subsets(draw, g: Graph):
    return frozenset(draw(st.lists(st.integers(0, g.n - 1), unique=True)))


# Frozenset references for the three coverage requirements, written from
# their definitions and sharing no code with multidom.satisfies.
def ref_is_dominating(g, xset):
    """Every vertex is in xset or adjacent to a member."""
    return all(v in xset or frozenset(g.adjacency[v]) & xset for v in range(g.n))


def ref_is_k_dominating(g, k, xset):
    """Every vertex outside xset has at least k neighbors in xset."""
    return all(
        v in xset or len(frozenset(g.adjacency[v]) & xset) >= k for v in range(g.n)
    )


def ref_is_ktuple_dominating(g, k, xset):
    """Every closed neighborhood holds at least k members of xset."""
    return all(
        len(frozenset(g.adjacency[v]) & xset) + (1 if v in xset else 0) >= k
        for v in range(g.n)
    )


def ref_satisfies(g, mode, k, xset):
    if mode is Mode.DOM:
        return ref_is_dominating(g, xset)
    if mode is Mode.KTUPLE:
        return ref_is_ktuple_dominating(g, k, xset)
    return ref_is_k_dominating(g, k, xset)
