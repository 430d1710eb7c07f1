import hashlib
import json
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from multidom import (
    FamilySpec,
    Graph,
    InstanceTooLargeError,
    KOutOfRangeError,
    Mode,
    default_corpus,
    exact_minimum,
    exact_minimum_naive,
    generate,
    self_gain,
    solve,
)
from multidom import exact
# Witnesses are checked against the frozenset reference, not satisfies: the
# naive oracle itself calls satisfies.
from conftest import closed_neighborhood, graphs, ref_satisfies, verify_monotonicity


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@pytest.mark.parametrize(
    "g,mode,k,expect",
    [
        (cycle(6), Mode.DOM, 1, 2),
        (cycle(5), Mode.KDOM, 2, 3),
        (star(6), Mode.KDOM, 2, 6),
        (star(6), Mode.KTUPLE, 2, 7),
        (cycle(4), Mode.DOM, 1, 2),
        (complete(5), Mode.KTUPLE, 3, 3),
        (complete(5), Mode.KDOM, 3, 3),
    ],
)
def test_spot_values(g, mode, k, expect):
    for solver in (exact_minimum, exact_minimum_naive):
        result = solver(g, mode, k)
        assert result.optimum == expect
        assert len(result.witness) == expect
        assert ref_satisfies(g, mode, k, frozenset(result.witness))


def test_naive_witness_is_lexicographically_first():
    result = exact_minimum_naive(cycle(6), Mode.DOM)
    assert result.witness == (0, 3)


def test_kdom_k_above_max_degree_chooses_every_vertex():
    # No vertex can collect k arrivals from its neighbors alone, so the
    # search, with no case of its own, must end at all of V.
    g = cycle(8)
    for upper in (None, range(8)):
        result = exact_minimum(g, Mode.KDOM, 3, upper=upper)
        assert result.optimum == 8
        assert result.witness == tuple(range(8))
    # naive agrees the hard way
    assert exact_minimum_naive(cycle(6), Mode.KDOM, 3).optimum == 6


def test_size_caps():
    big = Graph(30, [(i, i + 1) for i in range(29)])
    with pytest.raises(InstanceTooLargeError):
        exact_minimum(big, Mode.DOM)
    exact_minimum(big, Mode.DOM, max_n=30)  # override works
    # The cap is checked before upper is read.
    with pytest.raises(InstanceTooLargeError):
        exact_minimum(big, Mode.DOM, upper=[])
    with pytest.raises(InstanceTooLargeError):
        exact_minimum_naive(Graph(9, []), Mode.DOM)
    with pytest.raises(TypeError):  # the naive cap is fixed at 8
        exact_minimum_naive(Graph(9, []), Mode.DOM, max_n=9)


def test_k_range_errors():
    g = star(4)
    with pytest.raises(KOutOfRangeError):
        exact_minimum(g, Mode.KTUPLE, 3)
    with pytest.raises(KOutOfRangeError):
        exact_minimum(g, Mode.KDOM, 0)
    with pytest.raises(KOutOfRangeError):
        exact_minimum(g, Mode.DOM, 2)
    # So is k.
    with pytest.raises(KOutOfRangeError):
        exact_minimum(g, Mode.KDOM, 0, upper=[])


def test_nodes_explored_reproducible():
    g = cycle(9)
    a = exact_minimum(g, Mode.KDOM, 2)
    b = exact_minimum(g, Mode.KDOM, 2)
    assert a.nodes_explored == b.nodes_explored
    assert a.witness == b.witness


# One sha256 over the optimum, the witness and nodes_explored of every
# solvable default-corpus run with no upper (26161 nodes in total), recorded
# when the packing bound and the trivial k-domination shortcut were dropped
# (23999 nodes with both); the ascending loop had searched 20097 nodes,
# 43088 before the one-pick, dead-exclude and packing cuts and 72651 before
# the counting bound and prune.
PINNED_EXACT = (681, "4b81487d50a47e4f6e812888e9c08210a8fa8374e89168d68ff932e0a788238c")
# The same runs' optimum and witness alone, recorded from the search before
# the counting bound and prune: the cuts and the descent may only change
# the work done.
PINNED_EXACT_WITNESSES = (681, "73415faa4913f6b09c3b19b1026db5d68673c010f6cc2375e8921e868767b842")
# The same runs descending from the greedy solution, as verify_instance runs
# them (14139 nodes in total, 12162 with the packing bound and the shortcut).
PINNED_EXACT_FROM_GREEDY = (681, "f8bd63e8a97821c134f025a6c86c29c64e3df12a6988263aaf13c14f06756d10")


def _run_digest(r):
    return json.dumps([r.optimum, list(r.witness), r.nodes_explored]).encode() + b"\n"


def test_exact_matches_pinned_digest():
    full = hashlib.sha256()
    witnesses = hashlib.sha256()
    from_greedy = hashlib.sha256()
    solved = 0
    for e in default_corpus():
        g = generate(e.spec)
        try:
            r = exact_minimum(g, e.mode, e.k)
        except KOutOfRangeError:
            continue
        solved += 1
        full.update(_run_digest(r))
        witnesses.update(json.dumps([r.optimum, list(r.witness)]).encode() + b"\n")
        greedy = exact_minimum(g, e.mode, e.k, upper=solve(g, e.mode, e.k).chosen)
        assert greedy.optimum == r.optimum
        from_greedy.update(_run_digest(greedy))
    assert (solved, full.hexdigest()) == PINNED_EXACT
    assert (solved, witnesses.hexdigest()) == PINNED_EXACT_WITNESSES
    assert (solved, from_greedy.hexdigest()) == PINNED_EXACT_FROM_GREEDY


class _ListSearch:
    """The branch-and-bound search on lists and sorted provider tuples, kept as
    the reference that the bitset search in exact._Search must reproduce node
    for node.

    State is shared across target sizes; nodes accumulates over the whole
    exact_minimum call.  Each flag turns one cut on: counting_prune the
    open-deficit prune, one_pick the closed-form last pick, and dead_exclude
    the skipped exclude child that cannot satisfy its branch vertex.
    """

    counting_prune = True
    one_pick = True
    dead_exclude = True

    def __init__(self, g: Graph, mode: Mode, k: int):
        self.g = g
        self.k = k
        self.kdom = mode is Mode.KDOM
        self.nodes = 0
        # Choosing u gives one arrival to each neighbor and self_gain(mode, k,
        # 0) to u itself, so v is satisfied iff count[v] >= k.
        self.self_gain = self_gain(mode, k, 0)
        self.pick_gain = g.max_degree() + self.self_gain
        # providers[v]: the vertices whose choice gives v arrivals, sorted.
        self.providers = tuple(tuple(sorted(closed_neighborhood(g, v))) for v in range(g.n))

    def feasible(self, target: int) -> list[int] | None:
        """A satisfying set of size <= target, or None."""
        self.chosen: list[int] = []
        # decided[u]: u is chosen or excluded on the current branch.
        self.decided = [False] * self.g.n
        self.count = [0] * self.g.n
        return self._dfs(target)

    def _gain(self, u: int, v: int) -> int:
        """Arrivals that choosing u gives v."""
        if u == v:
            return self.self_gain
        return 1 if u in self.providers[v] else 0

    def _dfs(self, budget: int) -> list[int] | None:
        self.nodes += 1
        g = self.g
        k = self.k
        unsat = [v for v in range(g.n) if self.count[v] < k]
        if not unsat:
            return list(self.chosen)
        if budget == 0:
            return None
        if self.one_pick and budget == 1:
            # The lowest undecided u whose choice alone satisfies every v.
            for u in range(g.n):
                if not self.decided[u] and all(
                    self.count[v] + self._gain(u, v) >= k for v in unsat
                ):
                    return [*self.chosen, u]
            return None
        # Feasibility prune, and pick the most-constrained vertex: the one
        # with the fewest remaining ways to be satisfied.
        branch_v = -1
        branch_avail: list[int] = []
        for v in unsat:
            avail = [u for u in self.providers[v] if not self.decided[u]]
            deficit = k - self.count[v]
            # An undecided v under k-domination can settle itself with one
            # pick; every other v needs deficit more picks among avail.
            settles_itself = self.kdom and not self.decided[v]
            if not settles_itself and (len(avail) < deficit or deficit > budget):
                return None
            if branch_v < 0 or len(avail) < len(branch_avail):
                branch_v, branch_avail = v, avail
        open_deficit = sum(k - self.count[v] for v in unsat)
        if self.counting_prune and open_deficit > budget * self.pick_gain:
            return None
        u = branch_avail[0]
        # Include u.
        self._choose(u)
        found = self._dfs(budget - 1)
        self._unchoose(u)
        if found is not None:
            return found
        if self.dead_exclude:
            # With u excluded, branch_v keeps the rest of its providers, and
            # settles itself only if it is still undecided under k-domination.
            settles_itself = self.kdom and branch_v != u and not self.decided[branch_v]
            if not settles_itself and len(branch_avail) - 1 < k - self.count[branch_v]:
                return None
        # Exclude u.
        self.decided[u] = True
        found = self._dfs(budget)
        self.decided[u] = False
        return found

    def _choose(self, u: int) -> None:
        self.chosen.append(u)
        self.decided[u] = True
        self.count[u] += self.self_gain
        for w in self.g.adjacency[u]:
            self.count[w] += 1

    def _unchoose(self, u: int) -> None:
        self.chosen.pop()
        self.decided[u] = False
        self.count[u] -= self.self_gain
        for w in self.g.adjacency[u]:
            self.count[w] -= 1


class _UnprunedListSearch(_ListSearch):
    """The search as it was before the counting prune and the two later
    cuts."""

    counting_prune = False
    one_pick = False
    dead_exclude = False


# Each later cut alone on the unpruned search.
_ONE_CUT_SEARCHES = [
    type(f"_Only_{flag}", (_UnprunedListSearch,), {flag: True})
    for flag in ("one_pick", "dead_exclude")
]


def _list_minimum(g, mode, k, **kw):
    """exact_minimum with its target loop driving _ListSearch."""
    with mock.patch.object(exact, "_Search", _ListSearch):
        return exact_minimum(g, mode, k, **kw)


def _unpruned_minimum(g, mode, k, search=_UnprunedListSearch, *, ascending=False):
    """(optimum, witness, nodes_explored) of the oracle before the counting
    bound, whose loop stops at ceil(n / (max_degree + 1)) for domination, k
    for k-tuple and 1 for k-domination, and whose search, by default, has
    none of the cuts.  The loop descends from all n vertices, as
    exact_minimum's does, or with ascending=True climbs from that bound, as
    the oracle did before the descent."""
    if mode is Mode.DOM:
        lower = -(-g.n // (g.max_degree() + 1))
    elif mode is Mode.KTUPLE:
        lower = k
    else:
        lower = 1
    searcher = search(g, mode, k)
    if ascending:
        for target in range(lower, g.n + 1):
            witness = searcher.feasible(target)
            if witness is not None:
                return len(witness), tuple(sorted(witness)), searcher.nodes
        raise AssertionError("unreachable: the full vertex set always satisfies the validator")
    best = list(range(g.n))
    while len(best) > lower:
        smaller = searcher.feasible(len(best) - 1)
        if smaller is None:
            break
        best = sorted(smaller)
    return len(best), tuple(best), searcher.nodes


def _targets(g, mode, k, **kw):
    """The target sizes exact_minimum searches, in order."""
    targets = []
    feasible = exact._Search.feasible

    def recording(self, target):
        targets.append(target)
        return feasible(self, target)

    with mock.patch.object(exact._Search, "feasible", recording):
        exact_minimum(g, mode, k, **kw)
    return targets


def _outcome(r):
    return (r.optimum, r.witness, r.nodes_explored)


def _admissible(g):
    """Every (mode, k) with k in 1..4 that the exact oracle accepts on g."""
    yield Mode.DOM, 1
    for k in range(1, 5):
        if k <= g.min_degree() + 1:
            yield Mode.KTUPLE, k
        yield Mode.KDOM, k


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 16),
    st.sampled_from((0.1, 0.2, 0.3, 0.5, 0.7, 0.9)),
    st.integers(0, 2**32),
)
def test_bitset_search_matches_list_search(n, p, seed):
    g = generate(FamilySpec("erdos_renyi", n=n, p=p, seed=seed))
    for mode, k in _admissible(g):
        assert _outcome(exact_minimum(g, mode, k)) == _outcome(_list_minimum(g, mode, k))


def test_bitset_search_matches_list_search_at_the_caps():
    g = generate(FamilySpec("erdos_renyi", n=24, p=0.35, seed=1))
    for mode, k in _admissible(g):
        assert _outcome(exact_minimum(g, mode, k)) == _outcome(_list_minimum(g, mode, k))
    big = Graph(30, [(i, i + 1) for i in range(29)])
    assert _outcome(exact_minimum(big, Mode.DOM, 1, max_n=30)) == _outcome(
        _list_minimum(big, Mode.DOM, 1, max_n=30)
    )


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 16),
    st.sampled_from((0.1, 0.2, 0.3, 0.5, 0.7, 0.9)),
    st.integers(0, 2**32),
)
def test_counting_cuts_keep_optimum_and_witness(n, p, seed):
    g = generate(FamilySpec("erdos_renyi", n=n, p=p, seed=seed))
    for mode, k in _admissible(g):
        r = exact_minimum(g, mode, k)
        optimum, witness, nodes = _unpruned_minimum(g, mode, k)
        assert (r.optimum, r.witness) == (optimum, witness)
        assert r.nodes_explored <= nodes
        # Without upper, the descent ends at the witness the ascending loop
        # finds first.
        assert _unpruned_minimum(g, mode, k, ascending=True)[:2] == (optimum, witness)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 16),
    st.sampled_from((0.1, 0.2, 0.3, 0.5, 0.7, 0.9)),
    st.integers(0, 2**32),
)
def test_each_cut_alone_keeps_optimum_and_witness(n, p, seed):
    g = generate(FamilySpec("erdos_renyi", n=n, p=p, seed=seed))
    for mode, k in _admissible(g):
        optimum, witness, nodes = _unpruned_minimum(g, mode, k)
        for search in _ONE_CUT_SEARCHES:
            cut = _unpruned_minimum(g, mode, k, search)
            assert cut[:2] == (optimum, witness), search.__name__
            assert cut[2] <= nodes, search.__name__


@settings(deadline=None, max_examples=100)
@given(graphs(max_n=8))
def test_descent_ends_one_below_the_optimum(g):
    for mode, k in _admissible(g):
        optimum = exact_minimum_naive(g, mode, k).optimum
        lower = -(-g.n * k // (g.max_degree() + self_gain(mode, k, 0)))
        assert lower <= optimum
        targets = _targets(g, mode, k)
        if optimum == lower:
            assert optimum - 1 not in targets
        else:
            assert targets[-1] == optimum - 1
        # The descent starts one below all n vertices and only goes down.
        assert targets == sorted(set(targets), reverse=True)
        assert targets[:1] in ([], [g.n - 1])


@settings(deadline=None, max_examples=100)
@given(graphs(max_n=9), st.data())
def test_any_satisfying_upper_gives_the_optimum(g, data):
    for mode, k in _admissible(g):
        plain = exact_minimum(g, mode, k)
        uppers = [solve(g, mode, k).chosen, plain.witness]
        extra = data.draw(st.sets(st.integers(0, g.n - 1)), label=f"{mode} k={k}")
        uppers.append([*plain.witness, *extra, *plain.witness])
        for upper in uppers:
            r = exact_minimum(g, mode, k, upper=upper)
            assert r.optimum == plain.optimum == len(r.witness)
            assert list(r.witness) == sorted(set(r.witness))
            assert ref_satisfies(g, mode, k, frozenset(r.witness))
            if len(set(upper)) == plain.optimum:
                assert r.witness == tuple(sorted(set(upper)))
                assert r.nodes_explored <= plain.nodes_explored
        # A minimum set less one vertex is not a solution.
        with pytest.raises(ValueError, match="does not satisfy"):
            exact_minimum(g, mode, k, upper=plain.witness[1:])


def test_monotonicity_known():
    assert verify_monotonicity(cycle(6), 2)
    assert verify_monotonicity(complete(5), 4)
    with pytest.raises(ValueError):
        verify_monotonicity(cycle(6), 0)


@settings(deadline=None, max_examples=60)
@given(graphs(max_n=7))
def test_oracles_agree(g):
    assert exact_minimum(g, Mode.DOM).optimum == exact_minimum_naive(g, Mode.DOM).optimum
    for k in (1, 2, 3):
        if k <= g.min_degree() + 1:
            assert (
                exact_minimum(g, Mode.KTUPLE, k).optimum
                == exact_minimum_naive(g, Mode.KTUPLE, k).optimum
            )
        assert (
            exact_minimum(g, Mode.KDOM, k).optimum
            == exact_minimum_naive(g, Mode.KDOM, k).optimum
        )


@settings(deadline=None, max_examples=40)
@given(graphs(max_n=7))
def test_witnesses_always_valid(g):
    for mode, k in ((Mode.DOM, 1), (Mode.KDOM, 2)):
        result = exact_minimum(g, mode, k)
        assert ref_satisfies(g, mode, k, frozenset(result.witness))
        assert len(result.witness) == result.optimum


@settings(deadline=None, max_examples=40)
@given(graphs(max_n=7))
def test_chain_inequalities(g):
    # gamma <= gamma_2 and gamma_k <= gamma_xk wherever both are defined.
    assert verify_monotonicity(g, 3)
