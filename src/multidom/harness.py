"""Experiment harness: run greedy vs exact over instance corpora and verify
every guarantee the package makes on the way.

For each (instance, mode, k) the harness solves greedily, rebuilds the cost
ledger and runs its exact checks, solves exactly, and compares the observed
ratio against the proven factor: ln(max_degree + 1) + 1 for the
closed-neighborhood variants, ln(max_degree + k) + 1 for k-domination.
Bound comparisons happen in floating point with a 1e-9 relative slack so
instances that meet a bound with equality are not misreported.
"""

from __future__ import annotations

__all__ = [
    "CorpusEntry",
    "RatioReport",
    "CorpusSummary",
    "approximation_bound",
    "verify_instance",
    "default_corpus",
    "run_entry",
    "run_corpus",
    "summarize",
    "check_ratio_improvement",
    "GapWitnessCheck",
    "gap_witness_check",
]

import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .exact import DEFAULT_MAX_N, InstanceTooLargeError, check_max_n, exact_minimum
from .generators import FamilySpec, generate
from .graph import Graph
from .ledger import audit, build_ledger
from .solvers import KOutOfRangeError, Mode, problem_key, self_gain, solve

BOUND_SLACK = 1e-9

ER_SIZES = (8, 12, 16)
ER_PROBABILITIES = (0.2, 0.4, 0.7)
ER_SEEDS = tuple(range(10))
KDOM_KS = (1, 2, 3)
KTUPLE_KS = (1, 2, 3)
GAP_WITNESS_KS = (2, 4, 5)


@dataclass(frozen=True)
class CorpusEntry:
    spec: FamilySpec
    mode: Mode
    k: int


@dataclass(frozen=True)
class RatioReport:
    """Outcome of one (instance, mode, k) run.

    exact_size, ratio, bound_satisfied and the exact solver's work counter
    nodes_explored are None when the exact solver was skipped (instance over
    the size cap).  greedy_iterations is the length of the greedy trace.  A
    report with skip_reason set has no numeric results at all: the
    combination's precondition failed (only k-tuple with k > min_degree + 1
    in the default corpus).  ledger_time_s is the time of build_ledger plus
    audit.  ledger_rows holds (lhs, bound) of the neighborhood bound for
    every vertex in id order; it is not a CSV column.  In run_corpus,
    entries of one spec that pose the same problem (solvers.problem_key)
    share one run, so their reports differ only in mode and k:
    greedy_time_s, exact_time_s and ledger_time_s are that run's times.
    """

    instance_id: str
    family: str
    seed: int | None
    n: int
    m: int
    max_degree: int
    min_degree: int
    mode: Mode
    k: int
    greedy_size: int | None = None
    exact_size: int | None = None
    ratio: float | None = None
    bound: float | None = None
    bound_satisfied: bool | None = None
    ledger_checks_passed: bool | None = None
    trivial: bool = False
    skip_reason: str | None = None
    greedy_time_s: float | None = None
    exact_time_s: float | None = None
    nodes_explored: int | None = None
    greedy_iterations: int | None = None
    ledger_time_s: float | None = None
    ledger_rows: tuple[tuple[Fraction, Fraction], ...] = ()

    def sort_key(self) -> tuple[str, Mode, int]:
        return (self.instance_id, self.mode, self.k)


@dataclass(frozen=True)
class CorpusSummary:
    reports: int
    skipped: int
    max_ratio: float | None
    bound_violations: int
    ledger_failures: int

    @property
    def all_passed(self) -> bool:
        return self.bound_violations == 0 and self.ledger_failures == 0


def approximation_bound(mode: Mode, max_degree: int, k: int) -> float:
    """Proven approximation factor for the variant on graphs of this degree:
    ln(max_degree + 1) + 1, or ln(max_degree + k) + 1 for k-domination."""
    return math.log(max_degree + self_gain(mode, k, 0)) + 1.0


def verify_instance(
    g: Graph,
    mode: Mode,
    k: int,
    *,
    spec: FamilySpec | None = None,
    max_n: int = DEFAULT_MAX_N,
) -> RatioReport:
    """Greedy-solve, audit the ledger, exact-solve, and compare the ratio.

    The exact search descends from the greedy solution (exact_minimum's
    upper), so it only has to show that one vertex fewer does not suffice.

    Raises ValueError for max_n < 1, whether or not the exact search runs.
    """
    check_max_n(max_n)
    instance_id = spec.instance_id() if spec is not None else _fallback_id(g)
    base = dict(
        instance_id=instance_id,
        family=spec.family if spec is not None else "adhoc",
        seed=spec.seed if spec is not None else None,
        n=g.n,
        m=g.m,
        max_degree=g.max_degree(),
        min_degree=g.min_degree(),
        mode=mode,
        k=k,
    )
    g.fingerprint()  # computed once per graph and kept; not greedy work
    try:
        t0 = time.perf_counter()
        sol = solve(g, mode, k)
        greedy_time = time.perf_counter() - t0
    except KOutOfRangeError as exc:
        return RatioReport(**base, skip_reason=str(exc))
    t0 = time.perf_counter()
    ledger_ok, rows = audit(build_ledger(g, sol))
    ledger_time = time.perf_counter() - t0
    bound = approximation_bound(mode, g.max_degree(), k)
    exact_fields = {}
    try:
        exact = exact_minimum(g, mode, k, max_n=max_n, upper=sol.chosen)
    except InstanceTooLargeError:
        pass  # over the size cap: the exact fields stay None
    else:
        exact_fields = dict(
            exact_time_s=exact.time_s,
            exact_size=exact.optimum,
            ratio=sol.size / exact.optimum,
            bound_satisfied=sol.size <= bound * exact.optimum * (1 + BOUND_SLACK),
            nodes_explored=exact.nodes_explored,
        )
    return RatioReport(
        **base,
        greedy_size=sol.size,
        bound=bound,
        ledger_checks_passed=ledger_ok,
        trivial=sol.trivial,
        greedy_time_s=greedy_time,
        greedy_iterations=len(sol.iterations),
        ledger_time_s=ledger_time,
        ledger_rows=rows,
        **exact_fields,
    )


def default_corpus() -> list[CorpusEntry]:
    """The standard evaluation corpus.

    Random part: erdos_renyi for every combination of n in {8, 12, 16},
    p in {0.2, 0.4, 0.7} and seeds 0..9.  Structured part: path, cycle,
    complete, star and balanced complete_bipartite at the same sizes, plus
    gap_witness stars for k in {2, 4, 5}.  Every instance runs plain
    domination, k-tuple for k in {1, 2, 3} (combinations whose precondition
    fails are recorded as skipped) and k-domination for k in {1, 2, 3}.
    """
    specs: list[FamilySpec] = []
    for n in ER_SIZES:
        specs.append(FamilySpec("path", n=n))
        specs.append(FamilySpec("cycle", n=n))
        specs.append(FamilySpec("complete", n=n))
        specs.append(FamilySpec("star", n=n))
        specs.append(FamilySpec("complete_bipartite", a=n // 2, b=n - n // 2))
    for k in GAP_WITNESS_KS:
        specs.append(FamilySpec("gap_witness", k=k))
    for n in ER_SIZES:
        for p in ER_PROBABILITIES:
            for seed in ER_SEEDS:
                specs.append(FamilySpec("erdos_renyi", n=n, p=p, seed=seed))
    entries: list[CorpusEntry] = []
    for spec in specs:
        entries.append(CorpusEntry(spec, Mode.DOM, 1))
        for k in KTUPLE_KS:
            entries.append(CorpusEntry(spec, Mode.KTUPLE, k))
        for k in KDOM_KS:
            entries.append(CorpusEntry(spec, Mode.KDOM, k))
    return entries


def run_entry(entry: CorpusEntry, g: Graph, *, max_n: int) -> RatioReport:
    """Verify one corpus entry on g, the graph of entry.spec."""
    return verify_instance(g, entry.mode, entry.k, spec=entry.spec, max_n=max_n)


def run_corpus(entries: list[CorpusEntry], *, max_n: int = DEFAULT_MAX_N) -> list[RatioReport]:
    """Run every corpus entry and return reports in canonical order.

    Entries that share a spec share one generated graph, and entries of one
    spec that pose the same problem (solvers.problem_key: dom, ktuple k=1
    and kdom k=1 unless trivial, or repeated entries) share one run: the
    later ones copy the first one's report with their own mode and k, its
    greedy, exact and ledger times included.  Canonical order is
    (instance_id, mode, k), so output does not depend on entry order.  A
    ValueError from an entry's run is raised again naming the entry's
    index, as "corpus entry <i>: ...", and one from a spec's generator
    names the spec's first entry.
    Raises ValueError for max_n < 1.
    """
    check_max_n(max_n)
    if not entries:
        raise ValueError("corpus is empty")
    by_spec: dict[FamilySpec, list[tuple[int, CorpusEntry]]] = {}
    for i, e in enumerate(entries):
        by_spec.setdefault(e.spec, []).append((i, e))
    reports = []
    for group in by_spec.values():
        i, e = group[0]  # i is the entry in hand when a ValueError is raised
        try:
            g = generate(e.spec)
            runs: dict[tuple[Mode, int], RatioReport] = {}
            for i, e in group:
                key = problem_key(g, e.mode, e.k)
                if key in runs:
                    reports.append(replace(runs[key], mode=e.mode, k=e.k))
                else:
                    runs[key] = run_entry(e, g, max_n=max_n)
                    reports.append(runs[key])
        except ValueError as exc:
            raise ValueError(f"corpus entry {i}: {exc}") from None
    return sorted(reports, key=RatioReport.sort_key)


def summarize(reports: list[RatioReport]) -> CorpusSummary:
    skipped = sum(1 for r in reports if r.skip_reason is not None)
    ratios = [r.ratio for r in reports if r.ratio is not None]
    return CorpusSummary(
        reports=len(reports),
        skipped=skipped,
        max_ratio=max(ratios) if ratios else None,
        bound_violations=sum(1 for r in reports if r.bound_satisfied is False),
        ledger_failures=sum(1 for r in reports if r.ledger_checks_passed is False),
    )


def check_ratio_improvement(delta_max: int) -> bool:
    """Check ln(d + k) + 1 <= ln(2d) + 1 for all 1 <= k <= d <= delta_max,
    strictly when k < d and with equality at k = d.

    This is the sense in which the k-domination factor improves on the older
    ln(2 * max_degree) + 1 guarantee.
    """
    if delta_max < 1:
        raise ValueError(f"delta_max must be >= 1, got {delta_max}")
    for d in range(1, delta_max + 1):
        old = math.log(2 * d) + 1.0
        for k in range(1, d + 1):
            new = math.log(d + k) + 1.0
            if k < d and not new < old:
                return False
            if k == d and new != old:
                return False
    return True


@dataclass(frozen=True)
class GapWitnessCheck:
    """Two-step replay of the k-tuple selection rule on a witness graph.

    On a graph with multiplicity k >= 2, the first selection is the vertex
    with the largest closed neighborhood (the smallest id among ties), and
    it fully covers nothing, so the second selection scores its own closed
    neighborhood again.  `holds` records that the second score is strictly
    below the first, which happens exactly when the first choice's closed
    neighborhood is the unique largest.  Only two selections are replayed,
    so this applies for any k >= 2 even where a full k-tuple run would be
    infeasible.
    """

    k: int
    first_choice: int
    first_score: int
    second_choice: int
    second_score: int
    holds: bool


def gap_witness_check(g: Graph, k: int) -> GapWitnessCheck:
    """Replay the first two k-tuple selections and test the score gap."""
    if k < 2:
        raise ValueError(f"the gap scenario needs k >= 2, got {k}")
    if g.n < 2:
        raise ValueError(f"the gap scenario needs at least 2 vertices, got n={g.n}")
    sizes = [len(row) + 1 for row in g.adjacency]
    first = max(range(g.n), key=lambda v: (sizes[v], -v))
    # With k >= 2 a single selection fully covers nothing, so every
    # second-step score is just the closed neighborhood size again.
    second = max((v for v in range(g.n) if v != first), key=lambda v: (sizes[v], -v))
    return GapWitnessCheck(
        k=k,
        first_choice=first,
        first_score=sizes[first],
        second_choice=second,
        second_score=sizes[second],
        holds=sizes[second] < sizes[first],
    )


def _fallback_id(g: Graph) -> str:
    n, m, digest = g.fingerprint()
    return f"graph(n={n},m={m},{digest})"
