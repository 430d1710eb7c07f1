import dataclasses
import hashlib
import json

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from multidom import (
    FamilySpec,
    Graph,
    KOutOfRangeError,
    Mode,
    apply_step,
    build_ledger,
    default_corpus,
    generate,
    is_valid_solution,
    self_gain,
    solution_from_dict,
    solution_to_dict,
    solve,
    verify_greedy_optimality,
)
from multidom.solvers import problem_key
from conftest import graphs, ref_solve


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


# -- frozen traces -----------------------------------------------------------


def test_dom_trace_on_c4():
    sol = solve(cycle(4), Mode.DOM)
    assert sol.chosen == (0, 1)
    assert [r.score for r in sol.iterations] == [3, 1]
    assert sol.iterations[0].newly_covered == (0, 1, 3)
    assert sol.iterations[1].newly_covered == (2,)
    assert [r.covered_after for r in sol.iterations] == [3, 4]
    assert sol.mode is Mode.DOM and sol.k == 1 and not sol.trivial


def test_dom_trace_on_p3():
    sol = solve(path(3), Mode.DOM)
    assert sol.chosen == (1,)
    assert sol.iterations[0].score == 3


def test_dom_trace_on_p5_passes_stale_keys():
    # Keys start at deg + 1: (2, 3, 3, 3, 2).  After 1 is taken (covering
    # 0, 1, 2), the top keys of 2 (stored 3, fresh 1), 3 (stored 3, fresh 2)
    # and 0 (stored 2, fresh 0) are all stale before 3 is taken with score 2.
    # Accepting any stale key would take 2 second, not 3.
    sol = solve(path(5), Mode.DOM)
    assert sol.chosen == (1, 3)
    assert [r.score for r in sol.iterations] == [3, 2]
    assert [r.newly_covered for r in sol.iterations] == [(0, 1, 2), (3, 4)]
    assert verify_greedy_optimality(path(5), sol)


def test_ktuple_trace_on_k5():
    sol = solve(complete(5), Mode.KTUPLE, 3)
    assert sol.chosen == (0, 1, 2)
    assert [r.score for r in sol.iterations] == [5, 5, 5]
    assert sol.iterations[2].newly_covered == (0, 1, 2, 3, 4)


def test_ktuple_trace_on_star_k2():
    sol = solve(star(6), Mode.KTUPLE, 2)
    assert sol.chosen == tuple(range(7))
    assert [r.score for r in sol.iterations] == [7, 2, 1, 1, 1, 1, 1]
    # Nothing is fully covered by the first pick alone: every requirement is 2.
    assert sol.iterations[0].newly_covered == ()
    assert sol.iterations[1].newly_covered == (0, 1)


def test_kdom_trace_on_star_k2():
    sol = solve(star(6), Mode.KDOM, 2)
    assert sol.chosen == tuple(range(7))
    assert sol.iterations[0].score == 8
    assert dict(sol.iterations[0].tokens_placed) == {0: 2, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1}
    assert sum(sum(r.tokens_placed.values()) for r in sol.iterations) == 2 * 7


def test_kdom_trivial_case():
    sol = solve(path(3), Mode.KDOM, 3)
    assert sol.trivial
    assert sorted(sol.chosen) == [0, 1, 2]
    assert len(sol.iterations) == 3
    assert sum(sum(r.tokens_placed.values()) for r in sol.iterations) == 9
    assert is_valid_solution(path(3), sol)
    assert verify_greedy_optimality(path(3), sol)


def test_kdom_non_trivial_has_no_flag():
    assert not solve(star(6), Mode.KDOM, 2).trivial
    assert not solve(cycle(5), Mode.KDOM, 2).trivial


def test_replay_reads_k_and_covered_after_from_the_trace():
    g = cycle(6)
    sol = solve(g, Mode.DOM)
    assert verify_greedy_optimality(g, sol)
    # Plain domination has no k = 2, whether a dom trace is relabelled or a
    # 2-tuple trace, which the arrival rule would replay, is labelled dom.
    assert not verify_greedy_optimality(g, dataclasses.replace(sol, k=2))
    pairs = solve(g, Mode.KTUPLE, 2)
    assert verify_greedy_optimality(g, pairs)
    assert not verify_greedy_optimality(g, dataclasses.replace(pairs, mode=Mode.DOM))
    # The first pick covers three vertices, and the replay counts them.
    first = sol.iterations[0]
    assert first.covered_after == 3
    forged = dataclasses.replace(first, covered_after=2)
    assert not verify_greedy_optimality(
        g, dataclasses.replace(sol, iterations=(forged, *sol.iterations[1:]))
    )


@pytest.mark.parametrize("mode,k", [(Mode.DOM, 1), (Mode.KTUPLE, 2)])
def test_records_without_tokens_share_one_read_only_empty_map(mode, k):
    g = cycle(7)
    sol = solve(g, mode, k)
    assert len({id(rec.tokens_placed) for rec in sol.iterations}) == 1
    rec = sol.iterations[0]
    assert dict(rec.tokens_placed) == {}
    with pytest.raises(TypeError):
        rec.tokens_placed[rec.vertex] = 1
    # The record a trace reader builds from {} is equal, and audits.
    doc = json.loads(json.dumps(solution_to_dict(sol)))
    assert doc["iterations"][0]["tokens_placed"] == {}
    assert solution_from_dict(doc, g.fingerprint()) == sol
    assert build_ledger(g, sol).scores == tuple(r.score for r in sol.iterations)


def test_kdom_record_keeps_a_copy_of_its_tokens():
    # apply_step returns the dict the record was built from; the solver goes on using it.
    tokens, rec = apply_step(star(3), Mode.KDOM, 2, [0] * 4, 0, 1, 0)
    assert tokens == {0: 2, 1: 1, 2: 1, 3: 1} == dict(rec.tokens_placed)
    tokens[1] = 5
    tokens[4] = 1
    assert dict(rec.tokens_placed) == {0: 2, 1: 1, 2: 1, 3: 1}
    with pytest.raises(TypeError):
        rec.tokens_placed[1] = 5


# Recorded from the three separate greedy loops that solve() replaced: one
# sha256 over every solvable default-corpus run plus a larger random graph.
PINNED_TRACES = (688, "0793dc159ee8059cc36fd7f30fd1b08b5ff7ca8b6553c4ea2d7f09a11cb8378c")


def _trace_digest(runs):
    """(number solved, sha256 over the trace JSON) of the solvable runs."""
    h = hashlib.sha256()
    solved = 0
    for spec, mode, k in runs:
        try:
            sol = solve(generate(spec), mode, k)
        except KOutOfRangeError:
            continue
        solved += 1
        h.update(json.dumps(solution_to_dict(sol), sort_keys=True).encode() + b"\n")
    return solved, h.hexdigest()


def _er_runs(spec):
    return [(spec, Mode.DOM, 1)] + [(spec, mode, k) for mode in (Mode.KTUPLE, Mode.KDOM) for k in (1, 2, 3)]


def test_traces_match_pinned_digest():
    runs = [(e.spec, e.mode, e.k) for e in default_corpus()]
    runs += _er_runs(FamilySpec("erdos_renyi", n=60, p=0.1, seed=1))
    assert _trace_digest(runs) == PINNED_TRACES


# Recorded from the O(n)-scan loop that the lazy heap replaced.  These graphs
# are large enough for stale heap keys and long tie runs; the corpus digest
# above only covers n <= 16.
PINNED_LARGE_TRACES = (14, "9c7f6f58a8c2e38e9cc706dbb1c8f696e69f0d0a17ce709a07d7ae95e1aa54b3")


def test_large_traces_match_pinned_digest():
    runs = _er_runs(FamilySpec("erdos_renyi", n=200, p=0.05, seed=3))
    runs += _er_runs(FamilySpec("erdos_renyi", n=120, p=0.3, seed=4))
    assert _trace_digest(runs) == PINNED_LARGE_TRACES


# -- preconditions ------------------------------------------------------------


def test_ktuple_k_range_errors():
    with pytest.raises(KOutOfRangeError):
        solve(star(6), Mode.KTUPLE, 3)  # min_degree + 1 == 2
    with pytest.raises(KOutOfRangeError):
        solve(cycle(5), Mode.KTUPLE, 0)
    solve(cycle(5), Mode.KTUPLE, 3)  # min_degree + 1 == 3 is fine


def test_kdom_k_range_errors():
    with pytest.raises(KOutOfRangeError):
        solve(cycle(5), Mode.KDOM, 0)


def test_solve_dispatch():
    g = cycle(6)
    assert solve(g, Mode.DOM) == solve(g, Mode.DOM, 1)
    for mode, k in ((Mode.DOM, 1), (Mode.KTUPLE, 2), (Mode.KDOM, 2)):
        sol = solve(g, mode, k)
        assert (sol.mode, sol.k) == (mode, k)
    with pytest.raises(KOutOfRangeError):
        solve(g, Mode.DOM, 2)


# -- structural invariants -----------------------------------------------------


def _valid_run(g, sol):
    assert len(sol.iterations) == len(sol.chosen)
    assert len(set(sol.chosen)) == len(sol.chosen)
    assert all(r.score >= 1 for r in sol.iterations)
    covered = [r.covered_after for r in sol.iterations]
    assert covered == sorted(covered)
    assert covered[-1] == g.n
    assert [r.index for r in sol.iterations] == list(range(1, len(sol.chosen) + 1))
    assert sol.graph_fingerprint == g.fingerprint()
    assert is_valid_solution(g, sol)
    assert verify_greedy_optimality(g, sol)


@settings(deadline=None)
@given(graphs(max_n=9))
def test_dom_run_invariants(g):
    _valid_run(g, solve(g, Mode.DOM))


@settings(deadline=None)
@given(graphs(max_n=9), st.integers(1, 4))
def test_ktuple_run_invariants(g, k):
    if k > g.min_degree() + 1:
        k = g.min_degree() + 1
    _valid_run(g, solve(g, Mode.KTUPLE, k))


@settings(deadline=None)
@given(graphs(max_n=9), st.integers(1, 4))
def test_kdom_run_invariants(g, k):
    sol = solve(g, Mode.KDOM, k)
    _valid_run(g, sol)
    assert sol.trivial == (k > g.max_degree())
    if sol.trivial:
        assert sorted(sol.chosen) == list(range(g.n))
    # token accounting: per-iteration total equals the score, grand total k*n
    for rec in sol.iterations:
        assert sum(rec.tokens_placed.values()) == rec.score
    assert sum(sum(r.tokens_placed.values()) for r in sol.iterations) == k * g.n


@given(graphs(max_n=9))
def test_dom_newly_covered_partitions_vertices(g):
    sol = solve(g, Mode.DOM)
    seen = []
    for rec in sol.iterations:
        seen.extend(rec.newly_covered)
    assert sorted(seen) == list(range(g.n))


@settings(deadline=None)
@given(graphs(max_n=9))
def test_k1_collapse(g):
    a = solve(g, Mode.DOM)
    b = solve(g, Mode.KTUPLE, 1)
    c = solve(g, Mode.KDOM, 1)
    assert a.chosen == b.chosen == c.chosen
    assert [r.score for r in a.iterations] == [r.score for r in b.iterations]
    assert [r.vertex for r in a.iterations] == [r.vertex for r in c.iterations]
    assert [r.score for r in a.iterations] == [r.score for r in c.iterations]


def test_problem_key():
    g = cycle(5)
    for mode in Mode:
        assert problem_key(g, mode, 1) == (Mode.DOM, 1)
    # k != 1 keeps the mode, also where the precondition fails (dom k=2)
    # beside a valid run (ktuple k=2), and for k = 0.
    for mode in Mode:
        for k in (0, 2, 3):
            assert problem_key(g, mode, k) == (mode, k)
    # An edgeless graph makes kdom k=1 trivial (all of V), apart from dom.
    edgeless = Graph(3)
    assert problem_key(edgeless, Mode.KDOM, 1) == (Mode.KDOM, 1)
    assert problem_key(edgeless, Mode.KTUPLE, 1) == (Mode.DOM, 1)
    assert problem_key(edgeless, Mode.DOM, 1) == (Mode.DOM, 1)
    # A plain string is not a mode: solve rejects it, so no key shares it.
    for mode, k in (("bogus", 1), ("kdom", 1), ("kdom", 2)):
        with pytest.raises(ValueError, match="unknown mode"):
            problem_key(g, mode, k)


def test_self_gain_is_the_gain_at_zero_capped_by_the_deficit():
    # solve() and the exact search read the self term in this form.
    for mode in Mode:
        for k in range(1, 7):
            for count in range(k):
                assert self_gain(mode, k, count) == min(k - count, self_gain(mode, k, 0))


def _admissible_runs(g):
    yield Mode.DOM, 1
    for k in range(1, min(4, g.min_degree() + 1) + 1):
        yield Mode.KTUPLE, k
    for k in range(1, 5):
        yield Mode.KDOM, k


@settings(deadline=None)
@given(
    st.integers(1, 40),
    st.sampled_from((0.05, 0.1, 0.2, 0.5, 0.8, 1.0)),
    st.integers(0, 2**32),
)
def test_heap_matches_reference_on_larger_graphs(n, p, seed):
    # Sparse and dense graphs up to n = 40, where heap keys go stale and
    # tie runs are long; the reference replay re-scores every vertex.
    g = generate(FamilySpec("erdos_renyi", n=n, p=p, seed=seed))
    for mode, k in _admissible_runs(g):
        sol = solve(g, mode, k)
        assert is_valid_solution(g, sol)
        assert verify_greedy_optimality(g, sol)


def test_heap_matches_reference_on_tie_heavy_families():
    specs = []
    for n in (7, 16, 33, 60):
        specs += [FamilySpec("cycle", n=n), FamilySpec("complete", n=n), FamilySpec("star", n=n)]
    specs += [FamilySpec("complete_bipartite", a=a, b=a) for a in (3, 8, 17, 30)]
    # A heap key packs the id below n.bit_length() bits: ids that fill every
    # bit below the shift (n = 2**j - 1) and n just past it (n = 2**j).
    for n in (31, 32, 63, 64, 127, 128):
        specs += [FamilySpec("cycle", n=n), FamilySpec("star", n=n)]
    runs = []
    for spec in specs:
        g = generate(spec)
        runs += [(g, spec, mode, k) for mode, k in _admissible_runs(g)]
    # Trivial k-domination with k far past max_degree, where top = max_degree + k.
    path = generate(FamilySpec("path", n=64))
    runs.append((path, "path(64)", Mode.KDOM, path.max_degree() + 50))
    for g, spec, mode, k in runs:
        sol = solve(g, mode, k)
        assert is_valid_solution(g, sol), (spec, mode, k)
        assert verify_greedy_optimality(g, sol), (spec, mode, k)


def _every_admissible_run(g):
    """Every (mode, k) that solve accepts on g, kdom up to two past max_degree."""
    yield Mode.DOM, 1
    for k in range(1, g.min_degree() + 2):
        yield Mode.KTUPLE, k
    for k in range(1, g.max_degree() + 3):
        yield Mode.KDOM, k


def _erdos_renyi(n, p, seed):
    return generate(FamilySpec("erdos_renyi", n=n, p=p, seed=seed))


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(
        graphs(max_n=12),
        st.builds(_erdos_renyi, st.integers(1, 40), st.floats(0.0, 1.0), st.integers(0, 2**32)),
    )
)
@example(Graph(1))
@example(Graph(7))
@example(_erdos_renyi(40, 1.0, 0))
def test_solve_matches_rescoring_reference(g):
    # Kept scores must give the whole Solution the re-scoring loop gives:
    # the same picks, ties, records and fingerprint, trivial kdom included.
    for mode, k in _every_admissible_run(g):
        assert solve(g, mode, k) == ref_solve(g, mode, k), (mode, k)


def test_determinism():
    g = cycle(12)
    assert solve(g, Mode.KDOM, 2) == solve(g, Mode.KDOM, 2)
    assert solve(g, Mode.KTUPLE, 2) == solve(g, Mode.KTUPLE, 2)


def test_ties_break_to_smallest_id():
    # On any vertex-transitive graph the first pick must be vertex 0.
    for g in (cycle(8), complete(6)):
        assert solve(g, Mode.DOM).chosen[0] == 0
        assert solve(g, Mode.KTUPLE, 2).chosen[0] == 0
        assert solve(g, Mode.KDOM, 2).chosen[0] == 0
