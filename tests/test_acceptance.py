"""Acceptance checklist: one test per shipped guarantee, each printing a
single PASS/FAIL line so a full run reads as a report.

The corpus-wide checks run the default corpus once (module-scoped fixtures)
and must finish well inside five minutes altogether.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from multidom import (
    FamilySpec,
    Graph,
    KOutOfRangeError,
    Mode,
    approximation_bound,
    audit,
    build_ledger,
    check_harmonic_inequalities,
    check_harmonic_log_bound,
    check_neighborhood_bound,
    check_ratio_improvement,
    check_sum_identity,
    default_corpus,
    exact_minimum,
    exact_minimum_naive,
    gap_witness_check,
    generate,
    parse_graph,
    run_corpus,
    solution_from_dict,
    solve,
    write_graph,
    write_trace,
)
from conftest import check_subset_cost_bound, closed_neighborhood, verify_monotonicity

CORPUS_TIME_BUDGET_S = 300.0

_timings: dict[str, float] = {}


@pytest.fixture
def report(capfd):
    """Emit one PASS/FAIL line per criterion on the real terminal, then assert."""

    def emit(name: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capfd.disabled():
            print(f"[{status}] {name}{suffix}", flush=True)
        assert ok, f"{name}{suffix}"

    return emit


@pytest.fixture(scope="module")
def corpus_entries():
    return default_corpus()


@pytest.fixture(scope="module")
def corpus_reports(corpus_entries):
    t0 = time.perf_counter()
    reports = run_corpus(corpus_entries)
    _timings["corpus"] = time.perf_counter() - t0
    return reports


@pytest.fixture(scope="module")
def corpus_ledgers(corpus_entries):
    out = []
    for entry in corpus_entries:
        g = generate(entry.spec)
        try:
            sol = solve(g, entry.mode, entry.k)
        except KOutOfRangeError:
            continue
        out.append((entry, g, sol, build_ledger(g, sol)))
    return out


def test_c01_corpus_ratio_bounds(corpus_reports, report):
    er_specs = {r.instance_id for r in corpus_reports if r.family == "erdos_renyi"}
    skips = [r for r in corpus_reports if r.skip_reason is not None]
    solved = [r for r in corpus_reports if r.skip_reason is None]
    skips_expected = all(
        r.mode is Mode.KTUPLE and r.k > r.min_degree + 1 for r in skips
    )
    within_cap = all(r.exact_size is not None for r in solved)
    bounds_hold = all(r.bound_satisfied is True for r in solved)
    elapsed = _timings["corpus"]
    ok = (
        len(er_specs) == 90
        and skips_expected
        and within_cap
        and bounds_hold
        and elapsed < CORPUS_TIME_BUDGET_S
    )
    max_ratio = max(r.ratio for r in solved)
    report(
        "ratio-bounds",
        ok,
        f"{len(solved)} runs, {len(skips)} precondition skips, "
        f"max ratio {max_ratio:.3f}, corpus {elapsed:.1f}s",
    )


def test_c02_ledger_sum_identity(corpus_ledgers, report):
    ok = all(
        Fraction(check_sum_identity(ledger), ledger.unit) == Fraction(sol.size)
        for _, _, sol, ledger in corpus_ledgers
    )
    report(
        "ledger-sum-identity",
        ok,
        f"{len(corpus_ledgers)} solutions, exact rational equality",
    )


def test_c03_neighborhood_harmonic_bounds(corpus_ledgers, report):
    checked = 0
    ok = True
    for _, g, _, ledger in corpus_ledgers:
        for w in range(g.n):
            lhs, bound = check_neighborhood_bound(ledger, w)
            ok = ok and lhs <= bound
            checked += 1
        if not ok:
            break
    report(
        "neighborhood-harmonic-bounds",
        ok,
        f"{checked} vertex bounds, exact rational comparison",
    )


SUBSET_CASES = (
    (FamilySpec("path", n=8), Mode.DOM, 1),
    (FamilySpec("path", n=12), Mode.KDOM, 2),
    (FamilySpec("path", n=16), Mode.KTUPLE, 1),
    (FamilySpec("cycle", n=8), Mode.KTUPLE, 2),
    (FamilySpec("cycle", n=12), Mode.KDOM, 3),
    (FamilySpec("cycle", n=16), Mode.DOM, 1),
    (FamilySpec("complete", n=8), Mode.KTUPLE, 3),
    (FamilySpec("complete", n=12), Mode.KDOM, 3),
    (FamilySpec("complete", n=16), Mode.KTUPLE, 2),
    (FamilySpec("star", n=8), Mode.KDOM, 2),
    (FamilySpec("star", n=12), Mode.KTUPLE, 2),
    (FamilySpec("star", n=16), Mode.KDOM, 3),
    (FamilySpec("complete_bipartite", a=4, b=4), Mode.KTUPLE, 3),
    (FamilySpec("complete_bipartite", a=6, b=6), Mode.KDOM, 2),
    (FamilySpec("complete_bipartite", a=8, b=8), Mode.DOM, 1),
    (FamilySpec("gap_witness", k=2), Mode.KTUPLE, 2),
    (FamilySpec("gap_witness", k=4), Mode.KDOM, 2),
    (FamilySpec("gap_witness", k=5), Mode.KTUPLE, 2),
    (FamilySpec("erdos_renyi", n=8, p=0.4, seed=0), Mode.KDOM, 2),
    (FamilySpec("erdos_renyi", n=16, p=0.7, seed=3), Mode.KDOM, 3),
)


def test_c04_subset_cost_bound(report):
    rng = random.Random(20240814)
    exhaustive = 0
    sampled = 0
    ok = True
    for spec, mode, k in SUBSET_CASES:
        g = generate(spec)
        sol = solve(g, mode, k)
        ledger = build_ledger(g, sol)
        for v in range(g.n):
            closed = sorted(closed_neighborhood(g, v))
            if len(closed) <= 12:
                for size in range(k, len(closed) + 1):
                    for subset in itertools.combinations(closed, size):
                        ok = ok and check_subset_cost_bound(ledger, v, subset)
                        exhaustive += 1
            else:
                for _ in range(200):
                    size = rng.randint(k, len(closed))
                    subset = rng.sample(closed, size)
                    ok = ok and check_subset_cost_bound(ledger, v, subset)
                    sampled += 1
            if not ok:
                break
        assert ok, f"subset bound failed on {spec.instance_id()} {mode} k={k}"
    report(
        "subset-cost-bound",
        ok,
        f"{len(SUBSET_CASES)} instances, {exhaustive} exhaustive + {sampled} sampled subsets",
    )


def test_c05_harmonic_inequalities(report):
    pairs_ok = check_harmonic_inequalities(1000)
    log_ok = check_harmonic_log_bound(10**4)
    report(
        "harmonic-inequalities",
        pairs_ok and log_ok,
        "all pairs x,y <= 1000 exact; log bound to 10^4 within 1e-12",
    )


def test_c06_k1_collapse(report):
    ns = (8, 12, 16)
    ps = (0.2, 0.4, 0.7)
    ok = True
    for i in range(100):
        spec = FamilySpec(
            "erdos_renyi", n=ns[i % 3], p=ps[(i // 3) % 3], seed=1000 + i
        )
        g = generate(spec)
        dom = solve(g, Mode.DOM, 1).chosen
        ktuple = solve(g, Mode.KTUPLE, 1).chosen
        kdom = solve(g, Mode.KDOM, 1).chosen
        ok = ok and dom == ktuple == kdom
        assert ok, f"k=1 collapse failed on {spec.instance_id()}"
    report("k1-collapse", ok, "100 seeded instances, identical chosen sequences")


def test_c07_gap_witness(report):
    g = generate(FamilySpec("gap_witness", k=2))
    sol = solve(g, Mode.KTUPLE, 2)
    first, second = sol.iterations[0], sol.iterations[1]
    trace_ok = (
        first.vertex == 0
        and first.score == 7
        and second.score == 2
        and second.score < first.score
    )
    general_ok = True
    for k in range(2, 6):
        check = gap_witness_check(generate(FamilySpec("gap_witness", k=k)), k)
        general_ok = general_ok and check.holds
    report(
        "gap-witness",
        trace_ok and general_ok,
        "k=2 trace: centre first, second score 2 < 7; replay holds for k=2..5",
    )


def test_c08_monotonicity(report):
    ps = (0.2, 0.4, 0.7)
    ok = True
    for i in range(50):
        spec = FamilySpec("erdos_renyi", n=4 + (i % 7), p=ps[i % 3], seed=2000 + i)
        ok = ok and verify_monotonicity(generate(spec), 3)
        assert ok, f"monotonicity failed on {spec.instance_id()}"
    report("monotonicity", ok, "50 random graphs n<=10, chains up to k=3")


def test_c09_ratio_improvement(report):
    ok = check_ratio_improvement(1000)
    report(
        "ratio-improvement",
        ok,
        "ln(d+k)+1 vs ln(2d)+1 for all k <= d <= 1000, equality only at k=d",
    )


def test_c10_oracle_cross_check(report):
    ps = (0.2, 0.4, 0.7)
    ok = True
    comparisons = 0
    for i in range(100):
        spec = FamilySpec("erdos_renyi", n=3 + (i % 6), p=ps[i % 3], seed=3000 + i)
        g = generate(spec)
        cases = [(Mode.DOM, 1)]
        cases += [(Mode.KTUPLE, k) for k in (1, 2, 3) if k <= g.min_degree() + 1]
        cases += [(Mode.KDOM, k) for k in (1, 2, 3)]
        for mode, k in cases:
            fast = exact_minimum(g, mode, k).optimum
            slow = exact_minimum_naive(g, mode, k).optimum
            ok = ok and fast == slow
            comparisons += 1
        assert ok, f"oracle mismatch on {spec.instance_id()}"
    report(
        "oracle-cross-check",
        ok,
        f"100 random graphs n<=8, {comparisons} optimum comparisons",
    )


def test_c11_spot_values(report):
    c6 = generate(FamilySpec("cycle", n=6))
    c5 = generate(FamilySpec("cycle", n=5))
    star7 = generate(FamilySpec("star", n=7))
    expectations = (
        (c6, Mode.DOM, 1, 2),
        (c5, Mode.KDOM, 2, 3),
        (star7, Mode.KDOM, 2, 6),
        (star7, Mode.KTUPLE, 2, 7),
    )
    ok = True
    for g, mode, k, expect in expectations:
        ok = ok and exact_minimum_naive(g, mode, k).optimum == expect
        ok = ok and exact_minimum(g, mode, k).optimum == expect
    report(
        "spot-values",
        ok,
        "C6 dom=2, C5 kdom2=3, star7 kdom2=6, star7 ktuple2=7, both oracles",
    )


def test_c12_io_round_trip(corpus_entries, report):
    specs = sorted(
        {e.spec for e in corpus_entries}, key=FamilySpec.instance_id
    )
    ok = True
    for spec in specs:
        g = generate(spec)
        for fmt in ("dimacs", "edgelist"):
            ok = ok and parse_graph(write_graph(g, fmt)) == g
        assert ok, f"round trip failed on {spec.instance_id()}"
    report(
        "io-round-trip",
        ok,
        f"{len(specs)} corpus graphs, dimacs and edgelist parse/write identity",
    )


# The worst greedy/OPT over every labelled graph with n <= 5, as measured.
WORST_RATIO_UP_TO_5 = {
    (Mode.DOM, 1): Fraction(3, 2),
    (Mode.KTUPLE, 2): Fraction(4, 3),
    (Mode.KTUPLE, 3): Fraction(5, 4),
    (Mode.KDOM, 2): Fraction(3, 2),
    (Mode.KDOM, 3): Fraction(5, 3),
}
# The same per max degree: (mode, k, Δ) -> worst greedy/OPT over those of
# the graphs with max_degree Δ.  k-tuple k needs Δ >= k - 1.
WORST_RATIO_UP_TO_5_BY_DEGREE = {
    (Mode.DOM, 1, 0): 1, (Mode.DOM, 1, 1): 1, (Mode.DOM, 1, 2): Fraction(3, 2),
    (Mode.DOM, 1, 3): 1, (Mode.DOM, 1, 4): 1,
    (Mode.KTUPLE, 2, 1): 1, (Mode.KTUPLE, 2, 2): Fraction(5, 4),
    (Mode.KTUPLE, 2, 3): Fraction(4, 3), (Mode.KTUPLE, 2, 4): 1,
    (Mode.KTUPLE, 3, 2): 1, (Mode.KTUPLE, 3, 3): Fraction(5, 4), (Mode.KTUPLE, 3, 4): 1,
    (Mode.KDOM, 2, 0): 1, (Mode.KDOM, 2, 1): 1, (Mode.KDOM, 2, 2): Fraction(3, 2),
    (Mode.KDOM, 2, 3): Fraction(3, 2), (Mode.KDOM, 2, 4): Fraction(3, 2),
    (Mode.KDOM, 3, 0): 1, (Mode.KDOM, 3, 1): 1, (Mode.KDOM, 3, 2): 1,
    (Mode.KDOM, 3, 3): Fraction(5, 3), (Mode.KDOM, 3, 4): Fraction(5, 3),
}


def test_c13_every_labelled_graph_up_to_5(report):
    # Over all labelled graphs the smallest-id tie-break meets every vertex
    # order, so this covers every fixed tie-break of these sizes.
    graphs = runs = 0
    worst = dict.fromkeys(WORST_RATIO_UP_TO_5, Fraction(0))
    by_degree = {}
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, itertools.compress(pairs, (mask >> i & 1 for i in range(len(pairs)))))
            graphs += 1
            for mode, k in worst:
                if mode is Mode.KTUPLE and k > g.min_degree() + 1:
                    continue
                runs += 1
                sol = solve(g, mode, k)
                # The trace as `solve --trace` writes it reads back as sol.
                assert solution_from_dict(json.loads(write_trace(sol)), g.fingerprint()) == sol
                assert audit(build_ledger(g, sol))[0], (n, mask, mode, k)
                opt = exact_minimum(g, mode, k, upper=sol.chosen).optimum
                assert opt == exact_minimum_naive(g, mode, k).optimum, (n, mask, mode, k)
                assert sol.size <= approximation_bound(mode, g.max_degree(), k) * opt
                ratio = Fraction(sol.size, opt)
                worst[mode, k] = max(worst[mode, k], ratio)
                key = (mode, k, g.max_degree())
                by_degree[key] = max(by_degree.get(key, ratio), ratio)
    ok = (
        (graphs, runs) == (1099, 4375)
        and worst == WORST_RATIO_UP_TO_5
        and by_degree == WORST_RATIO_UP_TO_5_BY_DEGREE
    )
    report(
        "every-labelled-graph-n<=5",
        ok,
        f"{graphs} graphs, {runs} runs: trace round trip, audit, both oracles, bound; "
        f"worst greedy/OPT {', '.join(f'{m} k={k} {r}' for (m, k), r in worst.items())}, "
        f"and per max degree, {len(by_degree)} (mode, k, max degree) pins",
    )
