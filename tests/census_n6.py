"""The paper's claims on every labelled graph with n = 6.

tests/test_acceptance.py::test_c13_every_labelled_graph_up_to_5 covers
n <= 5.  This script runs the 32768 labelled graphs with n = 6, which take
about 35 s on a 2-core VM: too slow for the tier-1 suite, so pytest does
not collect it and CI runs it as a step of its own.  Each run of dom
k = 1, k-tuple k = 2 and 3 (where the minimum degree admits k) and
k-domination k = 2 and 3 goes through solve, build_ledger plus audit, and
exact_minimum(upper=greedy), and must stay within approximation_bound.
exact_minimum_naive is not compared here: the n <= 5 test does that.
Over all labelled graphs the smallest-id tie-break meets every vertex
order, so this covers every fixed tie-break of this size.

    PYTHONPATH=src python tests/census_n6.py

It exits 0 when every ledger passes, every ratio is within its bound, and
the run count and the worst greedy/OPT per (mode, k, max degree) equal the
pins below; otherwise it prints what differs and exits 1.
"""

from __future__ import annotations

import itertools
import sys
import time
from fractions import Fraction

from multidom import Graph, Mode, approximation_bound, audit, build_ledger, exact_minimum, solve

N = 6
MODES = ((Mode.DOM, 1), (Mode.KTUPLE, 2), (Mode.KTUPLE, 3), (Mode.KDOM, 2), (Mode.KDOM, 3))
PINNED_RUNS = 137821
# (mode, k, max degree) -> worst greedy/OPT over the n = 6 graphs of that
# max degree.  k-tuple k needs min degree >= k - 1.
PINNED_WORST = {
    (Mode.DOM, 1, 0): 1, (Mode.DOM, 1, 1): 1, (Mode.DOM, 1, 2): Fraction(3, 2),
    (Mode.DOM, 1, 3): Fraction(3, 2), (Mode.DOM, 1, 4): 1, (Mode.DOM, 1, 5): 1,
    (Mode.KTUPLE, 2, 1): 1, (Mode.KTUPLE, 2, 2): Fraction(5, 4),
    (Mode.KTUPLE, 2, 3): Fraction(3, 2), (Mode.KTUPLE, 2, 4): Fraction(4, 3),
    (Mode.KTUPLE, 2, 5): Fraction(4, 3),
    (Mode.KTUPLE, 3, 2): 1, (Mode.KTUPLE, 3, 3): Fraction(6, 5),
    (Mode.KTUPLE, 3, 4): Fraction(3, 2), (Mode.KTUPLE, 3, 5): Fraction(5, 4),
    (Mode.KDOM, 2, 0): 1, (Mode.KDOM, 2, 1): 1, (Mode.KDOM, 2, 2): Fraction(3, 2),
    (Mode.KDOM, 2, 3): Fraction(3, 2), (Mode.KDOM, 2, 4): Fraction(3, 2),
    (Mode.KDOM, 2, 5): Fraction(3, 2),
    (Mode.KDOM, 3, 0): 1, (Mode.KDOM, 3, 1): 1, (Mode.KDOM, 3, 2): 1,
    (Mode.KDOM, 3, 3): Fraction(3, 2), (Mode.KDOM, 3, 4): Fraction(3, 2),
    (Mode.KDOM, 3, 5): Fraction(3, 2),
}


def census() -> tuple[int, dict, list[str]]:
    pairs = list(itertools.combinations(range(N), 2))
    runs = 0
    worst: dict[tuple[Mode, int, int], Fraction] = {}
    problems: list[str] = []
    for mask in range(1 << len(pairs)):
        g = Graph(N, itertools.compress(pairs, (mask >> i & 1 for i in range(len(pairs)))))
        for mode, k in MODES:
            if mode is Mode.KTUPLE and k > g.min_degree() + 1:
                continue
            runs += 1
            sol = solve(g, mode, k)
            if not audit(build_ledger(g, sol))[0]:
                problems.append(f"mask {mask} {mode} k={k}: the ledger audit fails")
            opt = exact_minimum(g, mode, k, upper=sol.chosen).optimum
            if sol.size > approximation_bound(mode, g.max_degree(), k) * opt:
                problems.append(f"mask {mask} {mode} k={k}: greedy {sol.size} above OPT {opt}'s bound")
            key = (mode, k, g.max_degree())
            worst[key] = max(worst.get(key, Fraction(0)), Fraction(sol.size, opt))
    return runs, worst, problems


def main() -> int:
    start = time.perf_counter()
    runs, worst, problems = census()
    if runs != PINNED_RUNS:
        problems.append(f"{runs} runs, pinned {PINNED_RUNS}")
    for mode, k, degree in sorted(worst.keys() | PINNED_WORST.keys(), key=str):
        got, want = worst.get((mode, k, degree)), PINNED_WORST.get((mode, k, degree))
        if got != want:
            problems.append(f"worst greedy/OPT, {mode} k={k} max degree {degree}: {got}, pinned {want}")
    for line in problems:
        print(line)
    print(
        f"n = {N}: {runs} runs, {len(worst)} (mode, k, max degree) worst ratios, "
        f"{len(problems)} problems, {time.perf_counter() - start:.1f} s"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
