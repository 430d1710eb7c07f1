import dataclasses
import hashlib
import itertools
import json
import math
import re
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from multidom import (
    CostLedger,
    FamilySpec,
    Graph,
    GraphError,
    KOutOfRangeError,
    Mode,
    Solution,
    apply_step,
    audit,
    build_ledger,
    check_harmonic_inequalities,
    check_harmonic_log_bound,
    check_neighborhood_bound,
    check_residual_decomposition,
    check_sum_identity,
    default_corpus,
    generate,
    self_gain,
    solve,
    splitmix64,
    verify_greedy_optimality,
)
from multidom.ledger import lcm_upto
from conftest import (
    check_subset_cost_bound,
    closed_neighborhood,
    covered_at,
    degree,
    graphs,
    harmonic,
    ref_neighborhood_lhs,
    ref_residual_sequence,
)


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _solvable_modes(g, k_candidates=(1, 2, 3)):
    yield Mode.DOM, 1
    for k in k_candidates:
        if k <= g.min_degree() + 1:
            yield Mode.KTUPLE, k
    for k in k_candidates:
        yield Mode.KDOM, k


# -- harmonic numbers ----------------------------------------------------------


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(4) == Fraction(25, 12)
    assert harmonic(7) == Fraction(363, 140)
    assert harmonic(8) == Fraction(761, 280)
    with pytest.raises(ValueError):
        harmonic(-1)


def test_lcm_upto_matches_math_lcm():
    for x in range(0, 300):
        assert lcm_upto(x) == math.lcm(*range(1, x + 1))


def test_harmonic_inequalities_small():
    assert check_harmonic_inequalities(200)
    assert check_harmonic_log_bound(500)
    with pytest.raises(ValueError):
        check_harmonic_inequalities(0)
    with pytest.raises(ValueError):
        check_harmonic_log_bound(0)


def test_harmonic_difference_bound_by_hand():
    # (x - y)/x <= H(x) - H(y) is tight at y = x - 1 scaled cases; sample a few.
    for x, y in ((1, 0), (5, 2), (10, 9), (100, 50)):
        assert Fraction(x - y, x) <= harmonic(x) - harmonic(y)


# -- frozen ledger examples ----------------------------------------------------


def test_dom_ledger_on_p3():
    g = path(3)
    sol = solve(g, Mode.DOM)
    led = build_ledger(g, sol)
    for v in range(3):
        assert _ref_cost(led, v, 1) == Fraction(1, 3)
    assert Fraction(check_sum_identity(led), led.unit) == 1
    lhs, bound = check_neighborhood_bound(led, 1)
    assert Fraction(lhs, led.unit) == 1
    assert Fraction(bound, led.unit) == Fraction(11, 6)


def test_ktuple_ledger_on_star():
    g = star(6)
    sol = solve(g, Mode.KTUPLE, 2)
    led = build_ledger(g, sol)
    # The first pick is the center with score 7; it contributes to every
    # vertex, so every cost charged to it is 1/7.
    for v in range(7):
        assert _ref_cost(led, v, 0) == Fraction(1, 7)
    assert Fraction(check_sum_identity(led), led.unit) == 7


def test_kdom_ledger_on_star():
    g = star(6)
    sol = solve(g, Mode.KDOM, 2)
    led = build_ledger(g, sol)
    # Iteration 1 places 8 tokens, so every cost referencing it is 1/8.
    assert sol.iterations[0].score == 8
    for v in range(7):
        assert _ref_cost(led, v, 0) == Fraction(1, 8)
    assert Fraction(check_sum_identity(led), led.unit) == 7


def test_arrival_bookkeeping():
    g = star(6)
    sol = solve(g, Mode.KTUPLE, 2)
    led = build_ledger(g, sol)
    # Center: covered once vertex 1 joins (its 2nd closed-neighborhood pick).
    assert led.arrivals[0] == (1, 2)
    assert tuple(sol.chosen[it - 1] for it in led.arrivals[0]) == (0, 1)
    assert covered_at(led, 0) == 2
    # Leaf 6 waits for its own selection.
    assert led.arrivals[6] == (1, 7)
    assert tuple(sol.chosen[it - 1] for it in led.arrivals[6]) == (0, 6)
    sol2 = solve(g, Mode.KDOM, 2)
    led2 = build_ledger(g, sol2)
    # KDOM: the center tops itself up with 2 tokens at iteration 1.
    assert led2.arrivals[0] == (1, 1)
    assert tuple(sol2.chosen[it - 1] for it in led2.arrivals[0]) == (0, 0)


def test_build_ledger_rejects_wrong_graph():
    g = star(6)
    sol = solve(g, Mode.DOM)
    with pytest.raises(ValueError):
        build_ledger(star(5), sol)


C6 = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
C6_RUNS = [(Mode.DOM, 1), (Mode.KTUPLE, 2), (Mode.KDOM, 2)]


@pytest.mark.parametrize("mode, k", C6_RUNS)
def test_build_ledger_rejects_reordered_chosen(mode, k):
    sol = solve(C6, mode, k)
    assert len(sol.chosen) >= 2
    forged = dataclasses.replace(sol, chosen=sol.chosen[::-1])
    with pytest.raises(ValueError, match="chosen order"):
        build_ledger(C6, forged)


@pytest.mark.parametrize("mode, k", C6_RUNS)
def test_build_ledger_rejects_malformed_iterations(mode, k):
    sol = solve(C6, mode, k)
    first = sol.iterations[0]
    repeat = dataclasses.replace(first, index=2)
    forged = dataclasses.replace(
        sol, chosen=(first.vertex, first.vertex), iterations=(first, repeat)
    )
    with pytest.raises(ValueError, match="more than once"):
        build_ledger(C6, forged)
    renumbered = (dataclasses.replace(first, index=2),) + sol.iterations[1:]
    with pytest.raises(ValueError, match="iteration 1: index 2 != replayed 1"):
        build_ledger(C6, dataclasses.replace(sol, iterations=renumbered))
    truncated = dataclasses.replace(sol, chosen=sol.chosen[:-1], iterations=sol.iterations[:-1])
    with pytest.raises(ValueError, match=f"did not accumulate {k} arrivals"):
        build_ledger(C6, truncated)


def _forge_kdom_tokens(*placements):
    """The C6 k=2 kdom trace with iteration i's tokens_placed replaced."""
    sol = solve(C6, Mode.KDOM, 2)
    iterations = list(sol.iterations)
    for i, tokens in placements:
        iterations[i] = dataclasses.replace(iterations[i], tokens_placed=tokens)
    return dataclasses.replace(sol, iterations=tuple(iterations))


@pytest.mark.parametrize(
    "placements",
    [
        # One token moved from 1 to the non-neighbor 3, and one back from 3
        # to 1: scores, newly-covered sets and arrival totals still agree.
        ((0, {0: 2, 3: 1, 5: 1}), (1, {2: 2, 1: 2})),
        ((0, {0: 2, 1: 1, -1: 1}),),  # -1 would index vertex 5
        ((0, {0: 2, 1: 1, 6: 1}),),
    ],
)
def test_build_ledger_rejects_forged_tokens(placements):
    i, tokens = placements[0]
    with pytest.raises(ValueError, match=re.escape(f"iteration {i + 1}: tokens_placed {tokens} !=")):
        build_ledger(C6, _forge_kdom_tokens(*placements))


# One forged value per IterationRecord field.  The replay takes its vertex
# from the record, so a forged vertex is caught against chosen instead.
FORGED_FIELDS = {
    "index": lambda rec: rec.index + 1,
    "vertex": lambda rec: (rec.vertex + 1) % 6,
    "score": lambda rec: rec.score + 1,
    "newly_covered": lambda rec: rec.newly_covered + (rec.vertex,),
    "tokens_placed": lambda rec: {**rec.tokens_placed, rec.vertex: 9},
    "covered_after": lambda rec: rec.covered_after + 1,
}


@pytest.mark.parametrize("field", FORGED_FIELDS)
@pytest.mark.parametrize("mode, k", C6_RUNS)
def test_build_ledger_names_the_forged_field(mode, k, field):
    sol = solve(C6, mode, k)
    last = sol.iterations[-1]
    forged = dataclasses.replace(last, **{field: FORGED_FIELDS[field](last)})
    assert forged != last
    message = "chosen order" if field == "vertex" else f"iteration {sol.size}: {field} "
    with pytest.raises(ValueError, match=re.escape(message)):
        build_ledger(C6, dataclasses.replace(sol, iterations=sol.iterations[:-1] + (forged,)))


@pytest.mark.parametrize("mode, k", C6_RUNS)
def test_build_ledger_rejects_forged_covered_after(mode, k):
    sol = solve(C6, mode, k)
    forged = (dataclasses.replace(sol.iterations[0], covered_after=99),) + sol.iterations[1:]
    with pytest.raises(ValueError, match="covered_after 99"):
        build_ledger(C6, dataclasses.replace(sol, iterations=forged))


@pytest.mark.parametrize("mode, k", C6_RUNS)
def test_build_ledger_rejects_trivial_flag_on_a_nontrivial_run(mode, k):
    forged = dataclasses.replace(solve(C6, mode, k), trivial=True)
    with pytest.raises(ValueError, match="trivial=True"):
        build_ledger(C6, forged)


def test_build_ledger_rejects_missing_trivial_flag():
    sol = solve(C6, Mode.KDOM, 3)  # k > max_degree = 2
    assert sol.trivial
    assert audit(build_ledger(C6, sol))[0]
    with pytest.raises(ValueError, match="trivial=False"):
        build_ledger(C6, dataclasses.replace(sol, trivial=False))


def test_build_ledger_rejects_out_of_range_vertex():
    sol = solve(C6, Mode.KDOM, 2)
    first = dataclasses.replace(sol.iterations[0], vertex=sol.iterations[0].vertex - 6)
    forged = dataclasses.replace(
        sol, chosen=(first.vertex,) + sol.chosen[1:], iterations=(first,) + sol.iterations[1:]
    )
    with pytest.raises(ValueError, match="outside 0..5"):
        build_ledger(C6, forged)


@pytest.mark.parametrize("mode, k", C6_RUNS)
def test_build_ledger_rejects_step_without_arrivals(mode, k):
    sol = solve(C6, mode, k)
    unchosen = min(set(range(6)) - set(sol.chosen))
    extra = dataclasses.replace(
        sol.iterations[-1],
        index=sol.size + 1,
        vertex=unchosen,
        score=0,
        newly_covered=(),
        tokens_placed={},
    )
    forged = dataclasses.replace(
        sol, chosen=sol.chosen + (unchosen,), iterations=sol.iterations + (extra,)
    )
    with pytest.raises(ValueError, match="causes no arrivals"):
        build_ledger(C6, forged)


def test_build_ledger_rejects_inadmissible_k():
    # A 2-tuple trace relabelled as plain domination replays consistently.
    sol = solve(C6, Mode.KTUPLE, 2)
    with pytest.raises(ValueError, match="no multiplicity"):
        build_ledger(C6, dataclasses.replace(sol, mode=Mode.DOM))


@pytest.mark.parametrize(
    "g,mode,k", [(path(3), Mode.KDOM, 65535), (star(65536), Mode.DOM, 1)], ids=["k", "degree"]
)
def test_build_ledger_caps_the_top_score(g, mode, k):
    # Within the n * k cap, the top score max_degree + self_gain one past
    # 2**16 is refused before the unit lcm(1..top) is computed.
    top = g.max_degree() + self_gain(mode, k, 0)
    assert top == (1 << 16) + 1
    with pytest.raises(ValueError, match=f"= {top}, above the cap of 65536$"):
        build_ledger(g, solve(g, mode, k))


@pytest.mark.parametrize("mode, k", C6_RUNS)
@pytest.mark.parametrize("name", ["arrivals", "joined"])
def test_ledger_rejects_rows_not_one_per_vertex(mode, k, name):
    led = build_ledger(C6, solve(C6, mode, k))
    rows = getattr(led, name)
    for forged in (rows[:-1], rows + rows[-1:]):
        with pytest.raises(ValueError, match=f"^{name} has {len(forged)} rows for 6 vertices$"):
            dataclasses.replace(led, **{name: forged})


@pytest.mark.parametrize("mode, k", C6_RUNS)
def test_ledger_rejects_a_vertex_without_arrivals(mode, k):
    led = build_ledger(C6, solve(C6, mode, k))
    with pytest.raises(ValueError, match="^vertex 0 has no arrivals$"):
        dataclasses.replace(led, arrivals=((),) + led.arrivals[1:])


@pytest.mark.parametrize("mode, k", C6_RUNS)
def test_ledger_rejects_an_arrival_after_the_last_iteration(mode, k):
    led = build_ledger(C6, solve(C6, mode, k))
    m = len(led.scores)
    for last in (m + 1, 9):
        moved = led.arrivals[0][:-1] + (last,)
        with pytest.raises(ValueError, match=f"^vertex 0 has last arrival {last} after iteration {m}$"):
            dataclasses.replace(led, arrivals=(moved,) + led.arrivals[1:])
    # Up to the last iteration, and 0 too, is admitted.
    for last in (0, m):
        moved = led.arrivals[0][:-1] + (last,)
        forged = dataclasses.replace(led, arrivals=(moved,) + led.arrivals[1:])
        assert (forged.done[0], forged.done_shares[0]) == (last, forged.shares[last - 1])


@pytest.mark.parametrize("mode, k", C6_RUNS)
def test_ledger_rejects_joined_not_one_vertex_per_iteration(mode, k):
    led = build_ledger(C6, solve(C6, mode, k))
    m = len(led.scores)
    message = f"^joined does not name one vertex per iteration 1..{m} and {m + 1} for the rest$"
    # Any one joined[w] changed, to 0, to an iteration, or past the end:
    # an iteration left with no vertex or with two, or a row out of range.
    for w in range(6):
        for j in range(m + 3):
            if j != led.joined[w]:
                with pytest.raises(ValueError, match=message):
                    dataclasses.replace(led, joined=led.joined[:w] + (j,) + led.joined[w + 1:])
    # On path(2), one iteration that chose no vertex; and a row of 0.
    for joined in ((5, 2), (0, 2)):
        with pytest.raises(ValueError, match=r"^joined does not name one vertex per iteration 1\.\.1 and 2"):
            CostLedger(Mode.DOM, 1, path(2), (2,), ((1,), (1,)), joined)
    assert CostLedger(Mode.DOM, 1, path(2), (2,), ((1,), (1,)), (1, 2)).done == (1, 1)


@settings(deadline=None, max_examples=40)
@given(graphs(max_n=10))
def test_neighborhood_lhs_matches_the_per_neighbour_reference(g):
    # Built ledgers, then every pair of joined values swapped, the one forgery
    # of joined the ledger admits, then each last arrival moved to 0.
    def agrees(led):
        return all(check_neighborhood_bound(led, w)[0] == ref_neighborhood_lhs(led, w) for w in range(g.n))

    for mode, k in _solvable_modes(g):
        led = build_ledger(g, solve(g, mode, k))
        assert agrees(led)
        for a, b in itertools.combinations(range(g.n), 2):
            joined = list(led.joined)
            joined[a], joined[b] = joined[b], joined[a]
            assert agrees(dataclasses.replace(led, joined=tuple(joined)))
        for w in range(g.n):
            moved = led.arrivals[w][:-1] + (0,)
            assert agrees(dataclasses.replace(led, arrivals=led.arrivals[:w] + (moved,) + led.arrivals[w + 1:]))


def _scanned_cost(sol, led, v, w):
    """_ref_cost(led, v, w) by scanning v's arrivals for one that w caused."""
    for it in led.arrivals[v]:
        if sol.chosen[it - 1] == w:
            return Fraction(1, led.scores[it - 1])
    return Fraction(1, led.scores[covered_at(led, v) - 1])


@settings(deadline=None, max_examples=60)
@given(graphs(max_n=9))
def test_cost_matches_arrival_scan(g):
    for mode, k in _solvable_modes(g):
        sol = solve(g, mode, k)
        led = build_ledger(g, sol)
        for v in range(g.n):
            for w in closed_neighborhood(g, v):
                assert _ref_cost(led, v, w) == _scanned_cost(sol, led, v, w)


def test_cost_domain_checked():
    g = path(4)
    led = build_ledger(g, solve(g, Mode.DOM))
    with pytest.raises(ValueError):
        _ref_cost(led, 0, 3)  # not adjacent
    # Vertex ids outside 0..n-1 raise instead of indexing from the end.
    for v in (-1, -4, 4):
        with pytest.raises(ValueError):
            _ref_cost(led, v, v)
        with pytest.raises(ValueError):
            led.residual_sequence(v)
        with pytest.raises(ValueError):
            check_neighborhood_bound(led, v)
        with pytest.raises(ValueError):
            check_residual_decomposition(led, v, 0)
        with pytest.raises(GraphError):
            _ref_own_cost_sum(led, v)
        with pytest.raises(GraphError):
            covered_at(led, v)
    with pytest.raises(ValueError):
        _ref_cost(led, 3, -1)  # w = -1 is no neighbour of 3, whatever it would index


def test_subset_bound_preconditions():
    g = star(6)
    led = build_ledger(g, solve(g, Mode.KDOM, 2))
    with pytest.raises(ValueError):
        check_subset_cost_bound(led, 1, {1})  # too small for k=2
    with pytest.raises(ValueError):
        check_subset_cost_bound(led, 1, {1, 5})  # 5 not in N[1]
    assert check_subset_cost_bound(led, 1, {1, 0})


# Recorded from the mode-specific audit code that the shared arrival rule
# replaced: one sha256 over the (lhs, bound) row, the residual sequence and
# the residual decomposition of every vertex of every solvable default-corpus
# run plus a larger random graph.
PINNED_AUDIT = (688, "c89ff3fb356bbe7e0dc410a33fe72870066312a715271a9681280d4f3c7befca")


def test_audit_matches_pinned_digest():
    runs = [(e.spec, e.mode, e.k) for e in default_corpus()]
    er = FamilySpec("erdos_renyi", n=60, p=0.1, seed=1)
    runs.append((er, Mode.DOM, 1))
    runs.extend((er, mode, k) for mode in (Mode.KTUPLE, Mode.KDOM) for k in (1, 2, 3))
    h = hashlib.sha256()
    solved = 0
    for spec, mode, k in runs:
        g = generate(spec)
        try:
            led = build_ledger(g, solve(g, mode, k))
        except KOutOfRangeError:
            continue
        solved += 1
        rows = []
        for w in range(g.n):
            lhs, bound = check_neighborhood_bound(led, w)
            rows.append(
                [
                    str(Fraction(lhs, led.unit)),
                    str(Fraction(bound, led.unit)),
                    list(led.residual_sequence(w)),
                    check_residual_decomposition(led, w, lhs),
                ]
            )
        h.update(json.dumps(rows).encode() + b"\n")
    assert (solved, h.hexdigest()) == PINNED_AUDIT


# Recorded before unchosen vertices read CostLedger.done_shares: one sha256
# over audit()'s verdict and rows for the dense_audit benchmark's graphs, with
# neighbourhoods of about 100, which PINNED_AUDIT's n <= 60 does not reach.
PINNED_DENSE_AUDIT = "65610f70896c2fbc3396b34ae2d0fb04f85f913a09ec74e30c02554ab45e3ca4"


def test_dense_audit_matches_pinned_digest():
    h = hashlib.sha256()
    for seed in (0, 1):
        g = generate(FamilySpec("erdos_renyi", n=400, p=0.25, seed=seed))
        for mode, k in ((Mode.DOM, 1), (Mode.KTUPLE, 3), (Mode.KDOM, 3)):
            passed, rows = audit(build_ledger(g, solve(g, mode, k)))
            h.update(json.dumps([passed, [[str(a), str(b)] for a, b in rows]]).encode() + b"\n")
    assert h.hexdigest() == PINNED_DENSE_AUDIT


# Recorded before the residual scan read CostLedger.done: one sha256 over
# every vertex's residual sequence and audit()'s rows and verdict on a ring of
# 1000 plus 3000 random chords, whose runs of hundreds of iterations neither
# PINNED_AUDIT nor PINNED_DENSE_AUDIT reaches.
PINNED_SPARSE_AUDIT = "f179840a79a5fbc07b2dfe6e28edd3b310a36a994f0e1fe7ca9e196ef111464f"


def _ring_with_chords(n, chords, seed):
    """Ring 0-1-...-(n-1)-0 plus chords distinct chords whose endpoints are
    splitmix64(seed) outputs modulo n: minimum degree 2, so ktuple k = 2 is
    admitted."""
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    target = len(edges) + chords
    stream = splitmix64(seed)
    while len(edges) < target:
        u, v = next(stream) % n, next(stream) % n
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def test_sparse_audit_matches_pinned_digest():
    g = _ring_with_chords(1000, 3000, seed=7)
    h = hashlib.sha256()
    for mode, k in ((Mode.DOM, 1), (Mode.KTUPLE, 2), (Mode.KDOM, 2)):
        led = build_ledger(g, solve(g, mode, k))
        passed, rows = audit(led)
        residuals = [list(led.residual_sequence(w)) for w in range(g.n)]
        h.update(json.dumps([passed, [[str(a), str(b)] for a, b in rows], residuals]).encode() + b"\n")
    assert h.hexdigest() == PINNED_SPARSE_AUDIT


# -- the Fraction audit, kept as the reference of the integer one ---------------


def _ref_cost(led, v, w):
    """Cost of v's coverage charged to w, for w in N[v], as a Fraction.

    If w caused one of v's arrival events, the charge is one share of that
    iteration's score; otherwise w is charged the default: one share of the
    iteration that completed v's coverage.  Choosing w gives v an arrival
    exactly when v is still uncovered, so both cases are one share of
    iteration min(joined[w], covered_at(v)).  Raises ValueError when v is
    outside 0..n-1 or w is not in N[v].
    """
    led.graph._check_vertex(v)
    row = led.graph.adjacency[v]
    i = bisect_left(row, w)
    if w != v and (i == len(row) or row[i] != w):
        raise ValueError(f"vertex {w} is not in the closed neighborhood of {v}")
    return Fraction(1, led.scores[min(led.joined[w], covered_at(led, v)) - 1])


def _ref_own_cost_sum(led, v):
    """Total charged for v's own coverage: 1/score per arrival event.

    Raises GraphError when v is outside 0..n-1."""
    led.graph._check_vertex(v)
    return sum((Fraction(1, led.scores[it - 1]) for it in led.arrivals[v]), Fraction(0))


def _ref_sum_identity(led):
    counts = [0] * len(led.scores)
    for its in led.arrivals:
        for it in its:
            counts[it - 1] += 1
    return sum((Fraction(c, s) for c, s in zip(counts, led.scores)), Fraction(0))


def _ref_neighborhood_bound(led, w):
    g = led.graph
    g._check_vertex(w)
    lhs = sum((_ref_cost(led, v, w) for v in g.adjacency[w]), Fraction(0))
    if led.mode is Mode.KDOM:
        lhs += _ref_own_cost_sum(led, w)
    else:
        lhs += _ref_cost(led, w, w)
    return lhs, harmonic(degree(g, w) + self_gain(led.mode, led.k, 0))


def _ref_residual_decomposition(led, w, lhs):
    r = led.residual_sequence(w)
    per_score = Fraction(0)
    per_residual = Fraction(0)
    for i in range(1, len(r)):
        drop = r[i - 1] - r[i]
        if drop < 0:
            return False
        if drop:
            if led.scores[i - 1] < r[i - 1]:
                return False
            per_score += Fraction(drop, led.scores[i - 1])
            per_residual += Fraction(drop, r[i - 1])
    return lhs == per_score and per_score <= per_residual and per_residual <= harmonic(r[0])


INTEGER_AUDIT = (check_sum_identity, check_neighborhood_bound, check_residual_decomposition)
FRACTION_AUDIT = (_ref_sum_identity, _ref_neighborhood_bound, _ref_residual_decomposition)


def _audit(led, size, checks):
    """Everything one path reports: sum, rows, per-vertex verdicts, verdict.
    The integer path's shares of led.unit are reported as Fractions."""
    sum_identity, bound_row, residual = checks
    unit = led.unit if checks is INTEGER_AUDIT else 1
    total = Fraction(sum_identity(led), unit)
    rows = []
    for w in range(led.graph.n):
        lhs, bound = bound_row(led, w)
        rows.append((Fraction(lhs, unit), Fraction(bound, unit), residual(led, w, lhs)))
    passed = total == size and all(lhs <= bound and ok for lhs, bound, ok in rows)
    return total, rows, passed


@settings(deadline=None, max_examples=60)
@given(graphs(max_n=10))
def test_integer_audit_matches_fraction_reference(g):
    for mode, k in _solvable_modes(g):
        sol = solve(g, mode, k)
        led = build_ledger(g, sol)
        assert all(sh * s == led.unit for sh, s in zip(led.shares, led.scores))
        got = _audit(led, sol.size, INTEGER_AUDIT)
        want = _audit(led, sol.size, FRACTION_AUDIT)
        assert got == want
        assert got[2]
        # audit() is the same pass: its verdict and (lhs, bound) rows.
        assert audit(led) == (want[2], tuple((lhs, bound) for lhs, bound, _ in want[1]))
        assert isinstance(check_sum_identity(led), int)
        assert all(isinstance(check_neighborhood_bound(led, w)[0], int) for w in range(g.n))


FORGE_GRAPHS = [C6, star(6), path(7), Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)])]


@pytest.mark.parametrize("g", FORGE_GRAPHS, ids=["c6", "star6", "p7", "house"])
def test_forged_ledgers_rejected_by_both_paths(g):
    for mode, k in _solvable_modes(g):
        sol = solve(g, mode, k)
        led = build_ledger(g, sol)
        # A lowered score re-derives its share, so both paths see the same
        # forged ledger and both reject it.
        for i, s in enumerate(led.scores):
            if s < 2:
                continue
            forged = dataclasses.replace(led, scores=led.scores[:i] + (s - 1,) + led.scores[i + 1:])
            assert forged.shares[i] == forged.unit // (s - 1)
            got = _audit(forged, sol.size, INTEGER_AUDIT)
            assert got == _audit(forged, sol.size, FRACTION_AUDIT)
            assert not got[2]
            assert audit(forged)[0] is False
        # A last arrival moved to iteration 0 covers v before the run starts,
        # so its r_0 falls below deg(v) + self_gain.  Both paths must agree on
        # that ledger and, given the lhs the first fact accepts, on a verdict
        # that rests on the exact H(r_0), also where the ledger keeps no
        # value for r_0.
        off_table = 0
        for v in range(g.n):
            moved = led.arrivals[v][:-1] + (0,)
            forged = dataclasses.replace(
                led, arrivals=led.arrivals[:v] + (moved,) + led.arrivals[v + 1:]
            )
            assert forged.residual_sequence(v)[0] != degree(g, v) + self_gain(mode, k, 0)
            got = _audit(forged, sol.size, INTEGER_AUDIT)
            assert got == _audit(forged, sol.size, FRACTION_AUDIT)
            assert audit(forged)[0] is got[2]
            for w in range(g.n):
                r = forged.residual_sequence(w)
                lhs = sum((a - b) * sh for a, b, sh in zip(r, r[1:], forged.shares))
                ok = check_residual_decomposition(forged, w, lhs)
                assert ok is _ref_residual_decomposition(forged, w, Fraction(lhs, forged.unit))
                off_table += ok and r[0] not in forged.harmonics
        assert off_table
        # A wrong lhs fails the decomposition, however small the error.
        for w in range(g.n):
            lhs, _ = check_neighborhood_bound(led, w)
            for wrong in (lhs + 1, lhs - Fraction(led.unit, 10**9), lhs * 2):
                assert not check_residual_decomposition(led, w, wrong)
                assert not _ref_residual_decomposition(led, w, Fraction(wrong, led.unit))
        # No greedy step scores outside 1..max_degree + self_gain.
        top = g.max_degree() + self_gain(mode, k, 0)
        for bad in (0, top + 1):
            with pytest.raises(ValueError, match=f"score {bad} outside 1..{top}"):
                dataclasses.replace(led, scores=(bad,) + led.scores[1:])


def test_non_greedy_trace_fails_the_score_step():
    # On the path 0-1-2 the greedy takes 1 (score 3); the trace that takes 0
    # and then 2 replays step by step, but its first score, 2, is below w = 1's
    # residual r_0 = 3, which is what the decomposition rejects.
    g = path(3)
    count = [0] * g.n
    _, first = apply_step(g, Mode.DOM, 1, count, 0, 1, 0)
    _, second = apply_step(g, Mode.DOM, 1, count, 2, 2, first.covered_after)
    sol = Solution(Mode.DOM, 1, (0, 2), (first, second), g.fingerprint())
    led = build_ledger(g, sol)
    assert led.scores == (2, 1)
    assert led.residual_sequence(1) == (3, 1, 0)
    lhs, _ = check_neighborhood_bound(led, 1)
    assert check_residual_decomposition(led, 1, lhs) is False
    assert audit(led)[0] is False
    assert verify_greedy_optimality(g, sol) is False


def test_rising_residual_fails_the_decomposition():
    # Four arrivals at iteration 1 leave vertex 1 of C6 (k = 2) a self-gain
    # of 2 - 4 until its fifth arrival at iteration 3, so its residual falls
    # to -2 and then rises to 0.  With the lhs the first fact accepts, every
    # other comparison passes, and only the rise rejects the ledger.
    led = build_ledger(C6, solve(C6, Mode.KDOM, 2))
    forged = dataclasses.replace(
        led, arrivals=(led.arrivals[0], (1, 1, 1, 1, 3), *led.arrivals[2:])
    )
    r = forged.residual_sequence(1)
    assert r == (4, -1, -2, 0)
    lhs = sum((a - b) * sh for a, b, sh in zip(r, r[1:], forged.shares))
    assert check_residual_decomposition(forged, 1, lhs) is False


# -- property checks over random runs ------------------------------------------


@settings(deadline=None, max_examples=60)
@given(graphs(max_n=8))
def test_sum_identity_everywhere(g):
    for mode, k in _solvable_modes(g):
        sol = solve(g, mode, k)
        led = build_ledger(g, sol)
        shares = check_sum_identity(led)
        assert isinstance(shares, int)
        total = Fraction(shares, led.unit)
        assert total == sol.size
        # The per-iteration grouping keeps the per-arrival total.
        assert total == sum((_ref_own_cost_sum(led, v) for v in range(g.n)), Fraction(0))


@settings(deadline=None, max_examples=40)
@given(graphs(max_n=8))
def test_neighborhood_bounds_everywhere(g):
    for mode, k in _solvable_modes(g):
        led = build_ledger(g, solve(g, mode, k))
        for w in range(g.n):
            lhs, bound = check_neighborhood_bound(led, w)
            assert lhs <= bound
            assert check_residual_decomposition(led, w, lhs)


@settings(deadline=None, max_examples=30)
@given(graphs(max_n=7))
def test_subset_bounds_exhaustive_small(g):
    for mode, k in _solvable_modes(g, k_candidates=(1, 2)):
        led = build_ledger(g, solve(g, mode, k))
        for v in range(g.n):
            closed = sorted(closed_neighborhood(g, v))
            for size in range(k, len(closed) + 1):
                for subset in itertools.combinations(closed, size):
                    assert check_subset_cost_bound(led, v, subset)


def _lowered_scores(led):
    """led with one score s >= 2 lowered to s - 1, for each such score."""
    for i, s in enumerate(led.scores):
        if s >= 2:
            yield dataclasses.replace(led, scores=led.scores[:i] + (s - 1,) + led.scores[i + 1:])


def _subset_verdicts(led):
    """(shares verdict, Fraction verdict) of the subset bound for every
    subset of every N[v] with at least k members."""
    for v in range(led.graph.n):
        closed = sorted(closed_neighborhood(led.graph, v))
        own = _ref_own_cost_sum(led, v)
        costs = {w: _ref_cost(led, v, w) for w in closed}
        for size in range(led.k, len(closed) + 1):
            for subset in itertools.combinations(closed, size):
                want = own <= sum((costs[w] for w in subset), Fraction(0))
                yield check_subset_cost_bound(led, v, subset), want


@settings(deadline=None, max_examples=25)
@given(graphs(max_n=7))
def test_subset_bound_matches_fraction_reference(g):
    for mode, k in _solvable_modes(g):
        led = build_ledger(g, solve(g, mode, k))
        for ledger in (led, *_lowered_scores(led)):
            for got, want in _subset_verdicts(ledger):
                assert got is want


def test_lowered_score_breaks_subset_bounds_on_both_paths():
    for g in (C6, path(7), FORGE_GRAPHS[3]):
        verdicts = [
            pair
            for mode, k in _solvable_modes(g)
            for forged in _lowered_scores(build_ledger(g, solve(g, mode, k)))
            for pair in _subset_verdicts(forged)
        ]
        assert all(got is want for got, want in verdicts)
        assert (False, False) in verdicts


@settings(deadline=None, max_examples=40)
@given(graphs(max_n=8), st.integers(1, 3))
def test_arrival_structure(g, k):
    k = min(k, g.min_degree() + 1)
    sol = solve(g, Mode.KTUPLE, k)
    led = build_ledger(g, sol)
    for v in range(g.n):
        arr = led.arrivals[v]
        assert len(arr) == k
        assert list(arr) == sorted(arr)
        # closed-neighborhood picks are distinct iterations and contributors
        assert len(set(arr)) == k
        assert len(set(sol.chosen[it - 1] for it in arr)) == k
        # cost monotonicity: earlier contributors are never cheaper than the last
        costs = [Fraction(1, led.scores[it - 1]) for it in arr]
        assert all(c <= costs[-1] for c in costs)


@settings(deadline=None, max_examples=40)
@given(graphs(max_n=8))
def test_residual_sequences(g):
    for mode, k in _solvable_modes(g):
        led = build_ledger(g, solve(g, mode, k))
        for w in range(g.n):
            r = led.residual_sequence(w)
            assert r[0] == degree(g, w) + self_gain(mode, k, 0)
            assert all(a >= b for a, b in zip(r, r[1:]))
            assert r[-1] == 0
            assert all(x > 0 for x in r[:-1])


def _admitted_modes(g):
    """Every mode with each k it admits on g, k-domination up to the first
    trivial k, max_degree + 1."""
    yield Mode.DOM, 1
    for k in range(1, g.min_degree() + 2):
        yield Mode.KTUPLE, k
    for k in range(1, g.max_degree() + 2):
        yield Mode.KDOM, k


@settings(deadline=None, max_examples=60)
@given(graphs(max_n=8))
def test_residual_sequence_matches_replay(g):
    # The whole sequence, not only its shape: r_i is w's greedy score after
    # step i of an apply_step replay of the trace.
    for mode, k in _admitted_modes(g):
        sol = solve(g, mode, k)
        led = build_ledger(g, sol)
        for w in range(g.n):
            assert led.residual_sequence(w) == ref_residual_sequence(g, sol, w)


@settings(deadline=None, max_examples=40)
@given(graphs(max_n=8))
def test_residual_sequences_dom(g):
    led = build_ledger(g, solve(g, Mode.DOM))
    for w in range(g.n):
        r = led.residual_sequence(w)
        assert r[0] == degree(g, w) + 1
        assert r[-1] == 0
        assert all(a >= b for a, b in zip(r, r[1:]))


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 60).flatmap(lambda r0: st.tuples(st.just(r0), st.lists(st.integers(0, r0)))))
def test_residual_third_fact_telescopes(case):
    # check_residual_decomposition's third fact holds for every non-increasing
    # sequence ending in 0, so the first two facts decide its verdict.
    r0, middle = case
    r = [r0, *sorted(middle, reverse=True), 0]
    unit = math.lcm(*range(1, r0 + 1))
    per_residual = sum((a - b) * (unit // a) for a, b in zip(r, r[1:]) if a > b)
    assert per_residual <= unit * harmonic(r0)
