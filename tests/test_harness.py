import dataclasses
import gc
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from multidom import (
    DEFAULT_MAX_N,
    CorpusEntry,
    FamilySpec,
    Graph,
    GraphError,
    Mode,
    RatioReport,
    check_ratio_improvement,
    default_corpus,
    gap_witness_check,
    generate,
    run_corpus,
    run_entry,
    summarize,
    approximation_bound,
    exact_minimum,
    solve,
    verify_instance,
)


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


@pytest.mark.parametrize(
    "g, mode, k",
    [(star(6000), Mode.DOM, 1), (Graph(3, [(0, 1), (1, 2)]), Mode.KDOM, 20000)],
    ids=["star6000-dom", "p3-kdom-20000"],
)
def test_verify_instance_keeps_no_state(g, mode, k):
    # Bounds H(6001) and H(20002) have denominators of thousands of digits;
    # once the report is dropped, nothing built for them may stay behind.
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = verify_instance(g, mode, k)
        assert report.ledger_checks_passed is True
        del report
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20


def test_approximation_bound_values():
    assert approximation_bound(Mode.DOM, 2, 1) == pytest.approx(math.log(3) + 1)
    assert approximation_bound(Mode.KTUPLE, 6, 2) == pytest.approx(math.log(7) + 1)
    assert approximation_bound(Mode.KDOM, 6, 2) == pytest.approx(math.log(8) + 1)
    # k-domination bound depends on k, the closed-neighborhood ones do not
    assert approximation_bound(Mode.KTUPLE, 6, 3) == approximation_bound(Mode.KTUPLE, 6, 1)
    assert approximation_bound(Mode.KDOM, 6, 3) > approximation_bound(Mode.KDOM, 6, 1)


def test_verify_instance_star_kdom():
    g = star(6)
    report = verify_instance(g, Mode.KDOM, 2)
    assert report.greedy_size == 7
    assert report.exact_size == 6
    assert report.ratio == pytest.approx(7 / 6)
    assert report.bound == pytest.approx(math.log(8) + 1)
    assert report.bound_satisfied is True
    assert report.ledger_checks_passed is True
    assert report.skip_reason is None
    assert not report.trivial
    assert report.greedy_iterations == len(solve(g, Mode.KDOM, 2).iterations) == 7
    assert type(report.ledger_time_s) is float and report.ledger_time_s > 0
    upper = solve(g, Mode.KDOM, 2).chosen
    assert report.nodes_explored == exact_minimum(g, Mode.KDOM, 2, upper=upper).nodes_explored


def test_verify_instance_path_dom():
    g = generate(FamilySpec("path", n=3))
    report = verify_instance(g, Mode.DOM, 1)
    assert report.greedy_size == 1
    assert report.exact_size == 1
    assert report.ratio == 1.0
    assert report.bound == pytest.approx(math.log(3) + 1)
    assert report.bound_satisfied is True


def test_verify_instance_complete_ktuple():
    g = generate(FamilySpec("complete", n=5))
    report = verify_instance(g, Mode.KTUPLE, 3)
    assert report.greedy_size == 3
    assert report.exact_size == 3
    assert report.ratio == 1.0
    assert report.bound == pytest.approx(math.log(5) + 1)
    assert report.bound_satisfied is True


def test_verify_instance_skip():
    g = star(6)
    report = verify_instance(g, Mode.KTUPLE, 3)  # needs k <= min_degree + 1 = 2
    assert report.skip_reason is not None
    assert report.greedy_size is None
    assert report.ratio is None
    assert report.bound_satisfied is None
    assert report.greedy_iterations is None
    assert report.nodes_explored is None
    assert report.ledger_time_s is None


def test_verify_instance_trivial_flag():
    g = generate(FamilySpec("path", n=4))
    report = verify_instance(g, Mode.KDOM, 3)  # k > max_degree = 2
    assert report.trivial
    assert report.greedy_size == 4
    assert report.exact_size == 4
    assert report.ratio == 1.0
    assert report.ledger_checks_passed is True


def test_run_corpus_shares_no_run_with_an_unknown_mode():
    spec = FamilySpec("cycle", n=5)
    for mode, k in (("bogus", 1), ("kdom", 2)):
        entries = [CorpusEntry(spec, Mode.DOM, 1), CorpusEntry(spec, Mode.KDOM, 2),
                   CorpusEntry(spec, mode, k)]
        with pytest.raises(ValueError, match="unknown mode"):
            run_corpus(entries)


def test_cap_below_one_is_rejected_before_any_run():
    g = star(6)
    for max_n in (0, -3):
        with pytest.raises(ValueError, match=f"max_n must be >= 1, got {max_n}"):
            verify_instance(g, Mode.KTUPLE, 3, max_n=max_n)  # a skip otherwise
        with pytest.raises(ValueError, match=f"max_n must be >= 1, got {max_n}"):
            run_corpus([CorpusEntry(FamilySpec("star", n=8), Mode.KTUPLE, 3)], max_n=max_n)


def test_verify_instance_respects_size_cap():
    g = generate(FamilySpec("cycle", n=12))
    report = verify_instance(g, Mode.DOM, 1, max_n=10)
    assert report.greedy_size == 4
    assert report.exact_size is None
    assert report.ratio is None
    assert report.bound_satisfied is None
    assert report.nodes_explored is None
    assert report.greedy_iterations == 4
    assert report.ledger_checks_passed is True


def test_default_corpus_composition():
    entries = default_corpus()
    assert len(entries) == 756
    specs = {e.spec for e in entries}
    er = [s for s in specs if s.family == "erdos_renyi"]
    assert len(er) == 90
    gap = [s for s in specs if s.family == "gap_witness"]
    assert sorted(s.k for s in gap) == [2, 4, 5]
    # every spec appears with the full mode/k schedule
    per_spec = len(entries) // len(specs)
    assert per_spec == 7
    modes = {(e.mode, e.k) for e in entries if e.spec == er[0]}
    assert (Mode.DOM, 1) in modes
    assert {(Mode.KTUPLE, k) for k in (1, 2, 3)} <= modes
    assert {(Mode.KDOM, k) for k in (1, 2, 3)} <= modes


def _small_entries():
    return [
        CorpusEntry(FamilySpec("cycle", n=8), Mode.DOM, 1),
        CorpusEntry(FamilySpec("star", n=8), Mode.KTUPLE, 2),
        CorpusEntry(FamilySpec("star", n=8), Mode.KTUPLE, 3),
        CorpusEntry(FamilySpec("erdos_renyi", n=8, p=0.4, seed=3), Mode.KDOM, 2),
    ]


def test_run_corpus_small():
    reports = run_corpus(_small_entries())
    assert len(reports) == 4
    assert reports == sorted(reports, key=RatioReport.sort_key)
    summary = summarize(reports)
    assert summary.reports == 4
    assert summary.skipped == 1
    assert summary.bound_violations == 0
    assert summary.ledger_failures == 0
    assert summary.all_passed
    assert summary.max_ratio is not None and summary.max_ratio >= 1.0


def _untimed(report):
    return dataclasses.replace(report, greedy_time_s=None, exact_time_s=None, ledger_time_s=None)


@pytest.fixture(scope="module")
def default_per_entry():
    """Untimed default-corpus reports, one run_entry per entry, in canonical order."""
    reports = sorted(
        (run_entry(e, generate(e.spec), max_n=DEFAULT_MAX_N) for e in default_corpus()),
        key=RatioReport.sort_key,
    )
    return [_untimed(r) for r in reports]


def test_run_corpus_generates_each_spec_once(monkeypatch, default_per_entry):
    calls = []

    def counting_generate(spec):
        calls.append(spec)
        return generate(spec)

    monkeypatch.setattr("multidom.harness.generate", counting_generate)
    reports = run_corpus(default_corpus())
    assert len(calls) == len(set(calls)) == 108
    assert [_untimed(r) for r in reports] == default_per_entry


def test_run_corpus_runs_each_problem_once(monkeypatch, default_per_entry):
    # dom, ktuple k=1 and kdom k=1 are one problem on each of the 108 graphs
    # (none is edgeless), so 2 * 108 of the 681 runs of one run_entry per
    # entry are repeats.  The 75 skipped ktuple entries call solve, which
    # raises before a solution or an exact search.
    solved, searched = [], []

    def counting_solve(g, mode, k=1):
        sol = solve(g, mode, k)
        solved.append((mode, k))
        return sol

    def counting_exact(g, mode, k=1, **kwargs):
        searched.append((mode, k))
        return exact_minimum(g, mode, k, **kwargs)

    monkeypatch.setattr("multidom.harness.solve", counting_solve)
    monkeypatch.setattr("multidom.harness.exact_minimum", counting_exact)
    reports = run_corpus(default_corpus())
    assert len(solved) == len(searched) == 465
    assert len(reports) == 756
    assert [_untimed(r) for r in reports] == default_per_entry


# Shared problems at k = 1 and the cases that must stay apart: dom k=2 (a
# skip) beside ktuple k=2, and k = 0.
_PROBLEMS = [(mode, k) for mode in Mode for k in (0, 1, 2, 3)]


@st.composite
def shuffled_corpora(draw):
    """Entries on small erdos_renyi graphs, p = 0 (edgeless) included, with
    dom k=2 beside ktuple k=2, kdom k=1 on an edgeless graph and repeats."""
    specs = draw(
        st.lists(
            st.builds(
                lambda n, p, seed: FamilySpec("erdos_renyi", n=n, p=p, seed=seed),
                st.integers(1, 8),
                st.sampled_from((0.0, 0.3, 0.6, 1.0)),
                st.integers(0, 99),
            ),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    edgeless = FamilySpec("erdos_renyi", n=draw(st.integers(1, 5)), p=0.0, seed=0)
    entries = [
        CorpusEntry(edgeless, Mode.KDOM, 1),
        CorpusEntry(edgeless, Mode.DOM, 1),
        CorpusEntry(specs[0], Mode.DOM, 2),
        CorpusEntry(specs[0], Mode.KTUPLE, 2),
    ]
    entries += draw(
        st.lists(
            st.tuples(st.sampled_from(specs), st.sampled_from(_PROBLEMS)).map(
                lambda t: CorpusEntry(t[0], *t[1])
            ),
            max_size=12,
        )
    )
    entries += draw(st.lists(st.sampled_from(entries), min_size=1, max_size=4))
    return draw(st.permutations(entries))


@settings(deadline=None, max_examples=40)
@given(shuffled_corpora(), st.sampled_from((4, 20)))
# Equal specs, p=1 and p=1.0, whose entries share one run (shuffled_corpora
# draws unique specs, so it never builds this pair).
@example(
    [
        CorpusEntry(FamilySpec("erdos_renyi", n=6, p=1, seed=0), Mode.DOM, 1),
        CorpusEntry(FamilySpec("erdos_renyi", n=6, p=1.0, seed=0), Mode.KTUPLE, 1),
    ],
    20,
)
def test_run_corpus_matches_one_run_per_entry(entries, max_n):
    per_entry = [
        verify_instance(generate(e.spec), e.mode, e.k, spec=e.spec, max_n=max_n)
        for e in entries
    ]
    expected = [_untimed(r) for r in sorted(per_entry, key=RatioReport.sort_key)]
    assert [_untimed(r) for r in run_corpus(entries, max_n=max_n)] == expected


def test_shared_runs_copy_every_time():
    spec = FamilySpec("cycle", n=5)
    entries = [CorpusEntry(spec, Mode.DOM, 1), CorpusEntry(spec, Mode.KDOM, 1)]
    first, second = run_corpus(entries)
    times = ("greedy_time_s", "exact_time_s", "ledger_time_s")
    assert (first.mode, second.mode) == (Mode.DOM, Mode.KDOM)
    assert all(getattr(first, t) is not None for t in times)
    assert [getattr(first, t) for t in times] == [getattr(second, t) for t in times]


def test_run_corpus_names_an_empty_corpus():
    with pytest.raises(ValueError, match="^corpus is empty$"):
        run_corpus([])


def test_run_entry_uses_spec_id():
    entry = CorpusEntry(FamilySpec("cycle", n=8), Mode.DOM, 1)
    report = run_entry(entry, generate(entry.spec), max_n=DEFAULT_MAX_N)
    assert report.instance_id == "cycle(n=8)"
    assert report.family == "cycle"


def test_summarize_counts_failures():
    base = dict(
        instance_id="x", family="adhoc", seed=None, n=3, m=2,
        max_degree=2, min_degree=1, mode=Mode.DOM, k=1,
    )
    good = RatioReport(**base, greedy_size=1, exact_size=1, ratio=1.0,
                       bound=2.0, bound_satisfied=True, ledger_checks_passed=True)
    bad = RatioReport(**base, greedy_size=3, exact_size=1, ratio=3.0,
                      bound=2.0, bound_satisfied=False, ledger_checks_passed=False)
    skip = RatioReport(**base, skip_reason="k out of range")
    summary = summarize([good, bad, skip])
    assert summary.reports == 3
    assert summary.skipped == 1
    assert summary.max_ratio == 3.0
    assert summary.bound_violations == 1
    assert summary.ledger_failures == 1
    assert not summary.all_passed


def test_check_ratio_improvement():
    assert check_ratio_improvement(50)
    with pytest.raises(ValueError):
        check_ratio_improvement(0)


def test_gap_witness_check_on_stars():
    for k in (2, 3, 4, 5):
        g = generate(FamilySpec("gap_witness", k=k))
        check = gap_witness_check(g, k)
        assert check.holds
        assert check.first_choice == 0
        assert check.first_score == 3 * k + 1
        assert check.second_score == 2


def test_gap_witness_check_negative_cases():
    # vertex-transitive graph: no unique largest closed neighborhood
    c5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert not gap_witness_check(c5, 2).holds
    with pytest.raises(ValueError):
        gap_witness_check(c5, 1)


def test_gap_witness_check_needs_two_vertices():
    with pytest.raises(ValueError, match="at least 2 vertices"):
        gap_witness_check(Graph(1), 2)
    # A zero-vertex graph never reaches it: the constructor rejects n = 0.
    with pytest.raises(GraphError):
        Graph(0)
