import hashlib
import heapq
from fractions import Fraction

import hypothesis.strategies as st

from multidom import (
    DEFAULT_MAX_N,
    Graph,
    GraphError,
    IterationRecord,
    Mode,
    Solution,
    apply_step,
    exact_minimum,
    self_gain,
    splitmix64,
)
from multidom.solvers import check_k, is_trivial


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


# Views of a Graph or CostLedger read from its rows, which the library reads
# directly; those that take a vertex range-check it.
def edges(g):
    """Distinct edges as (u, v) with u < v, in lexicographic order."""
    return [(u, v) for u, row in enumerate(g.adjacency) for v in row if u < v]


def neighbors(g, v):
    """Open neighborhood: the set of vertices adjacent to v."""
    g._check_vertex(v)
    return frozenset(g.adjacency[v])


def degree(g, v):
    """The number of neighbors of v."""
    g._check_vertex(v)
    return len(g.adjacency[v])


def closed_neighborhood(g, v):
    """Closed neighborhood: v together with its neighbors."""
    g._check_vertex(v)
    return frozenset((v, *g.adjacency[v]))


def covered_at(led, v):
    """Iteration at which v's requirement became fully satisfied.

    Raises GraphError when v is outside 0..n-1."""
    led.graph._check_vertex(v)
    return led.arrivals[v][-1]


def ref_residual_sequence(g, sol, w):
    """w's greedy score before the first step of sol and after each step,
    replayed with apply_step on a fresh count array: 0 once w is chosen,
    otherwise its neighbours short of k arrivals plus its self-gain while it
    is short itself.  It ends at the first 0, as
    CostLedger.residual_sequence(w) must."""
    count = [0] * g.n
    chosen = set()
    covered = 0
    r = []
    for index in range(len(sol.chosen) + 1):
        if index:
            v = sol.chosen[index - 1]
            chosen.add(v)
            _, rec = apply_step(g, sol.mode, sol.k, count, v, index, covered)
            covered = rec.covered_after
        score = 0
        if w not in chosen:
            score = sum(1 for u in g.adjacency[w] if count[u] < sol.k)
            if count[w] < sol.k:
                score += self_gain(sol.mode, sol.k, count[w])
        r.append(score)
        if score == 0:
            return tuple(r)
    raise ValueError(f"vertex {w} still has score {r[-1]} after the last step")


def check_subset_cost_bound(ledger, v, subset):
    """True iff v's own coverage charge is at most the charge to subset, in
    shares of ledger.unit: the all-subsets reference of the subset bound.

    subset must be a subset of N[v] with at least k members.  The chosen
    vertices covering v were picked greedily, so charging any k-or-more
    members of v's closed neighborhood can only cost more.
    """
    w_set = frozenset(subset)
    ledger.graph._check_vertex(v)
    if not w_set <= {v, *ledger.graph.adjacency[v]}:
        raise ValueError(f"subset {sorted(w_set)} is not within the closed neighborhood of {v}")
    if len(w_set) < ledger.k:
        raise ValueError(f"subset must have at least k={ledger.k} members, got {len(w_set)}")
    shares, arrivals_v, joined = ledger.shares, ledger.arrivals[v], ledger.joined
    own = sum(shares[it - 1] for it in arrivals_v)
    return own <= sum(shares[min(joined[w], arrivals_v[-1]) - 1] for w in w_set)


def verify_monotonicity(g, k_max, *, max_n=DEFAULT_MAX_N):
    """Check the ordering facts among the exact optima up to k_max.

    gamma_k is non-decreasing in k; gamma_xk (the k-tuple optimum, defined
    for k <= min_degree + 1) is non-decreasing in k; and for each k where
    both exist, gamma_k <= gamma_xk, since a k-tuple dominating set is in
    particular k-dominating.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    kdom = [exact_minimum(g, Mode.KDOM, k, max_n=max_n).optimum for k in range(1, k_max + 1)]
    tuple_cap = min(k_max, g.min_degree() + 1)
    ktuple = [exact_minimum(g, Mode.KTUPLE, k, max_n=max_n).optimum for k in range(1, tuple_cap + 1)]
    if any(a > b for a, b in zip(kdom, kdom[1:])):
        return False
    if any(a > b for a, b in zip(ktuple, ktuple[1:])):
        return False
    return all(kdom[i] <= ktuple[i] for i in range(len(ktuple)))


@st.composite
def vertex_subsets(draw, g: Graph):
    return frozenset(draw(st.lists(st.integers(0, g.n - 1), unique=True)))


def harmonic(x):
    """Exact harmonic number 1 + 1/2 + ... + 1/x, with harmonic(0) = 0: the
    Fraction reference of the ledger's integer bounds, unit * H(x)."""
    if x < 0:
        raise ValueError(f"harmonic number needs x >= 0, got {x}")
    return sum((Fraction(1, i) for i in range(1, x + 1)), Fraction(0))


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


# The greedy loop that re-scores the heap's top vertex from its adjacency at
# every inspection, as solve() did before it kept scores current; solve()
# must return the same Solution.
def ref_solve(g, mode, k=1):
    check_k(g, mode, k)
    kdom = mode is Mode.KDOM
    n = g.n
    adjacency = g.adjacency
    count = [0] * n
    gain0 = self_gain(mode, k, 0)
    heap = [(-(len(adjacency[v]) + gain0), v) for v in range(n)]
    heapq.heapify(heap)
    covered = 0
    records: list[IterationRecord] = []
    while covered < n:
        while True:
            stored, best = heap[0]
            best_score = 0
            for u in adjacency[best]:
                if count[u] < k:
                    best_score += 1
            if count[best] < k:
                best_score += k - count[best] if kdom else 1
            if best_score == -stored:
                break
            heapq.heapreplace(heap, (-best_score, best))
        heapq.heappop(heap)
        _, rec = apply_step(g, mode, k, count, best, len(records) + 1, covered)
        covered = rec.covered_after
        records.append(rec)
    return Solution(
        mode=mode,
        k=k,
        chosen=tuple(rec.vertex for rec in records),
        iterations=tuple(records),
        graph_fingerprint=ref_fingerprint(g),
        trivial=is_trivial(g, mode, k),
    )


def ref_fingerprint(g):
    """Graph.fingerprint() from one f-string per edge, as it was first written."""
    payload = f"n={g.n};m={g.m};" + "".join(
        [f"{u},{v};" for u, row in enumerate(g.adjacency) for v in row if u < v]
    )
    return (g.n, g.m, hashlib.sha256(payload.encode()).hexdigest()[:16])


# Graph()'s per-edge loop as it was before the bulk builder: it checks each
# edge before appending it, so its error names the first bad edge.  Returns
# the adjacency, or the GraphError text; Graph() must give the same.
def ref_graph(n, edges):
    rows = [[] for _ in range(n)]
    try:
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            rows[u].append(v)
            rows[v].append(u)
    except GraphError as exc:
        return str(exc)
    return tuple(tuple(sorted(set(row))) for row in rows)


# erdos_renyi as it was before the packed-lane kernel: one splitmix64 draw
# per candidate pair, in lexicographic pair order.  generate() must give the
# same Graph.
def ref_erdos_renyi(n, p, seed):
    threshold = int(p * (1 << 64))
    stream = splitmix64(seed)
    edges = (
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if next(stream) < threshold
    )
    return Graph(n, edges)


# The graph writers with one f-string per edge, as first written.
def ref_write_dimacs(g):
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges(g))
    return "\n".join(lines) + "\n"


def ref_write_edge_list(g):
    lines = [f"# n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in edges(g))
    return "\n".join(lines) + "\n"
