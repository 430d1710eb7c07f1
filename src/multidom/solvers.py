"""Greedy solvers for three domination variants, with per-iteration traces.

All three variants share one rule, run by one loop in solve():

* every vertex needs k arrivals, with k = 1 for plain domination;
* choosing v gives one arrival to each neighbor of v;
* if v itself is still uncovered (short of k arrivals), choosing v also
  gives it arrivals: one for plain and k-tuple domination, where v counts
  as one member of its own closed neighborhood, and all k - count(v) it
  still lacks for k-domination, where membership in the set satisfies v;
* arrivals to a vertex that is already covered do not count.

The greedy chooses the unchosen vertex whose choice causes the most arrivals
that still count, breaking ties toward the smallest vertex id.  So
score(v) = #uncovered neighbors of v + (the self-gain if v is uncovered).
Each decision is stated once, here, and used elsewhere instead of a test of
the mode: self_gain() states the self-gain; apply_step() makes one step by
the rule, with its IterationRecord, which solve() runs for every pick and
the ledger audit replays over a trace; satisfies() checks a set by the same
arrivals, for is_valid_solution() and the naive exact oracle.

k-tuple domination needs k <= min_degree + 1 (some closed neighborhood is
otherwise too small); k-domination accepts every k >= 1 and is trivial, with
all of V chosen, when k > max_degree (is_trivial()).

solve() keeps every vertex's score current and finds each pick with a lazy
max-heap (the accelerated greedy of Minoux, 1978) instead of scanning every
vertex.  A score is the number of the vertex's neighbours short of k
arrivals, kept by one decrement per covered neighbour (O(m) a run), plus
the self term min(k - count, self_gain(mode, k, 0)), 0 once it is covered.
A heap inspection reads that score in O(1), compares it with the top key
and re-inserts the vertex with its current score while the key is stale.
Two facts make this pick exactly what a full scan would:

* a score never rises, since counts only grow and a chosen vertex leaves
  the heap, so no stored score is below the true one;
* a key is the one int (top - score) << shift | id, with top the largest
  initial score and shift = n.bit_length(), so id < 2 ** shift.  Since no
  score exceeds top, no key is negative, and keys order exactly as the
  pairs (-score, id) do: the first top entry whose stored score,
  top - (key >> shift), is fresh has the maximum score and the smallest id
  among those that have it.  heapq then compares ints, not tuples.

A key goes stale only when its score falls, by a neighbour's coverage or an
arrival at the vertex, so a run re-inserts O(m + n) times at O(log n) each,
where the scan cost O(m + n) per pick.
verify_greedy_optimality() keeps the full scan as the independent reference.

The trace records enough state (scores, newly covered vertices and, for
k-domination, token placements) to audit every step after the fact without
re-running the search: the audit replays apply_step() on each recorded
vertex and compares the whole record.  A token is one arrival; every vertex
collects exactly k tokens over the run, and the tokens placed in one
iteration equal its score, which is what the cost-ledger checks lean on.
"""

from __future__ import annotations

__all__ = [
    "KOutOfRangeError",
    "Mode",
    "IterationRecord",
    "Solution",
    "self_gain",
    "solve",
    "apply_step",
    "satisfies",
    "is_valid_solution",
    "verify_greedy_optimality",
]

import enum
import heapq
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .graph import Graph


class KOutOfRangeError(ValueError):
    """Raised when a coverage multiplicity k is invalid for the variant."""


class Mode(str, enum.Enum):
    """Problem variant identifiers, also used in CLI and report documents.

    A Mode is a str equal to its value, so JSON and CSV render it as
    "dom", "ktuple" or "kdom" and Mode.DOM == "dom" holds."""

    DOM = "dom"
    KTUPLE = "ktuple"
    KDOM = "kdom"

    def __str__(self) -> str:  # str() and f-strings give the value on every Python
        return self.value


# The tokens_placed of every record that has none.
_NO_TOKENS: Mapping[int, int] = MappingProxyType({})


@dataclass(frozen=True)
class IterationRecord:
    """One greedy step.

    index is 1-based.  score is the selection score of the chosen vertex,
    the number of arrivals its choice causes, as apply_step() counts them
    at the pre-selection state.  newly_covered lists the vertices whose
    coverage requirement became satisfied during this step, ascending.
    tokens_placed is empty except in KDOM mode, where it maps vertex ->
    tokens received this step (the chosen vertex's own entry counts its
    deficiency top-up).  covered_after is the number of fully covered
    vertices once the step is applied.
    """

    index: int
    vertex: int
    score: int
    newly_covered: tuple[int, ...]
    tokens_placed: Mapping[int, int] = field(default_factory=dict)
    covered_after: int = 0

    def __post_init__(self) -> None:
        # A read-only copy, so a record cannot change after it is made.
        tokens = self.tokens_placed
        if tokens is not _NO_TOKENS:
            object.__setattr__(
                self, "tokens_placed", MappingProxyType(dict(tokens)) if tokens else _NO_TOKENS
            )


@dataclass(frozen=True)
class Solution:
    """Result of one greedy run.

    chosen preserves selection order; iterations align with it one-to-one.
    graph_fingerprint ties the trace back to the exact input graph.  trivial
    marks the KDOM k > max_degree case, where every vertex must be chosen and
    the greedy loop degenerates to selecting all of them.
    """

    mode: Mode
    k: int
    chosen: tuple[int, ...]
    iterations: tuple[IterationRecord, ...]
    graph_fingerprint: tuple[int, int, str]
    trivial: bool = False

    @property
    def size(self) -> int:
        return len(self.chosen)


def check_k(g: Graph, mode: Mode, k: int) -> None:
    """Raise KOutOfRangeError unless mode admits multiplicity k on g."""
    check_multiplicity(mode, k)
    if mode is Mode.KTUPLE and k > g.min_degree() + 1:
        raise KOutOfRangeError(
            f"k-tuple domination needs 1 <= k <= min_degree + 1 = {g.min_degree() + 1}, got k={k}"
        )


def check_multiplicity(mode: Mode, k: int) -> None:
    """Raise KOutOfRangeError for a k that mode admits on no graph: k != 1
    for plain domination, k < 1 for the other two."""
    _check_mode(mode)
    if mode is Mode.DOM:
        if k != 1:
            raise KOutOfRangeError(f"plain domination has no multiplicity, got k={k}")
    elif k < 1:
        name = "k-tuple domination" if mode is Mode.KTUPLE else "k-domination"
        raise KOutOfRangeError(f"{name} needs k >= 1, got k={k}")


def _check_mode(mode: Mode) -> None:
    """Raise ValueError unless mode is a Mode member; a plain string such as
    "kdom" is not one."""
    if not isinstance(mode, Mode):
        raise ValueError(f"unknown mode {mode!r}")


def is_trivial(g: Graph, mode: Mode, k: int) -> bool:
    """True iff all of V is the only solution: k-domination with
    k > max_degree, where no vertex outside the set can collect k arrivals."""
    return mode is Mode.KDOM and k > g.max_degree()


def problem_key(g: Graph, mode: Mode, k: int) -> tuple[Mode, int]:
    """A key that two (mode, k) pairs on g share exactly when they pose the
    same problem: (Mode.DOM, 1) for every mode at k = 1 unless is_trivial,
    and (mode, k) otherwise.  At k = 1 every mode has self-gain 1 and every
    vertex needs one arrival, so solve, the ledger and the exact search do
    the same work; only the trivial k-domination case (an edgeless graph)
    is marked apart.  The mode stays in the key whenever k != 1.  Raises
    ValueError for an unknown mode, as solve does, so that such an entry
    never shares a valid run."""
    _check_mode(mode)
    if k == 1 and not is_trivial(g, mode, 1):
        return (Mode.DOM, 1)
    return (mode, k)


def self_gain(mode: Mode, k: int, count: int) -> int:
    """Arrivals an uncovered vertex with count arrivals gives itself when
    chosen: all k - count it lacks for k-domination, one otherwise.  For
    0 <= count < k that is min(k - count, self_gain(mode, k, 0))."""
    return k - count if mode is Mode.KDOM else 1


def solve(g: Graph, mode: Mode, k: int = 1) -> Solution:
    """Greedy run for mode: while some vertex has fewer than k arrivals,
    choose the unchosen vertex whose choice causes the most arrivals that
    still count, breaking ties toward the smallest id.

    short[v], the number of v's neighbours short of k arrivals, is kept
    current after every step, and v's score is short[v] + min(k - count[v],
    self_gain(mode, k, 0)).  Candidates sit in a lazy min-heap of one-int
    keys (top - score) << shift | v, where top is the largest initial score
    and v < 2 ** shift.  A top key whose score differs from the current one
    goes back with that score; otherwise its vertex is taken, which the
    module docstring shows is the pick a full scan would make.

    Raises KOutOfRangeError when check_k rejects k.
    """
    check_k(g, mode, k)
    n = g.n
    adjacency = g.adjacency
    count = [0] * n  # arrivals that counted, so never above k
    short = [len(row) for row in adjacency]  # neighbours short of k arrivals
    gain0 = self_gain(mode, k, 0)
    top = max(short) + gain0
    shift = n.bit_length()  # so every id fits below the shift
    mask = (1 << shift) - 1
    heap = [(top - s - gain0) << shift | v for v, s in enumerate(short)]
    heapq.heapify(heap)
    covered = 0
    chosen: list[int] = []
    records: list[IterationRecord] = []
    while covered < n:
        while True:
            key = heap[0]
            best = key & mask
            score = short[best] + min(k - count[best], gain0)
            if score == top - (key >> shift):
                break
            heapq.heapreplace(heap, (top - score) << shift | best)
        heapq.heappop(heap)
        chosen.append(best)
        _, rec = apply_step(g, mode, k, count, best, len(chosen), covered)
        records.append(rec)
        covered = rec.covered_after
        if covered == n:
            break  # no pick follows, so no score is read again
        for u in rec.newly_covered:
            for w in adjacency[u]:
                short[w] -= 1
    return Solution(
        mode, k, tuple(chosen), tuple(records), g.fingerprint(), is_trivial(g, mode, k)
    )


def apply_step(
    g: Graph, mode: Mode, k: int, count: list[int], v: int, index: int, covered: int
) -> tuple[dict[int, int], IterationRecord]:
    """Choose v as step index of a run in which covered vertices are
    covered so far: add its arrivals to count and return them, as {vertex:
    arrivals}, with the step's record.  Only vertices short of k arrivals
    receive any.  The score is the number of arrivals."""
    tokens: dict[int, int] = {}
    if count[v] < k:
        tokens[v] = self_gain(mode, k, count[v])
    for u in g.adjacency[v]:
        if count[u] < k:
            tokens[u] = 1
    newly: list[int] = []
    for u, arrivals in tokens.items():
        count[u] += arrivals
        if count[u] == k:
            newly.append(u)
    newly.sort()
    # Positional, in field order: a keyword call costs more on every step.
    return tokens, IterationRecord(
        index,
        v,
        sum(tokens.values()),
        tuple(newly),
        tokens if mode is Mode.KDOM else _NO_TOKENS,
        covered + len(newly),
    )


def satisfies(g: Graph, mode: Mode, k: int, xs: Iterable[int]) -> bool:
    """True iff xs meets mode's requirement with multiplicity k on g, by
    solve()'s arrival rule: each member of xs gives self_gain(mode, k, 0)
    arrivals to itself and one to each neighbor, and every vertex needs k.
    Order and repeats in xs do not matter.

    Raises KOutOfRangeError for k < 1 and for plain domination with k != 1,
    ValueError for a mode that is not a Mode (such as the string "kdom"),
    and GraphError for a member outside 0..n-1.
    """
    check_multiplicity(mode, k)  # a k-tuple k above min_degree + 1 is just unmet
    count = [0] * g.n
    for x in set(xs):
        g._check_vertex(x)
        for u in g.adjacency[x]:
            count[u] += 1
        count[x] += self_gain(mode, k, 0)
    return min(count) >= k


def is_valid_solution(g: Graph, sol: Solution) -> bool:
    """Run the mode's validator over the chosen set."""
    return satisfies(g, sol.mode, sol.k, sol.chosen)


def verify_greedy_optimality(g: Graph, sol: Solution) -> bool:
    """Replay the run and confirm every step took a maximal score with the
    smallest-id tie-break, and that the recorded scores and covered counts
    match.

    This is the audit used by tests; it recomputes all candidate scores at
    each pre-selection state from one arrival count per vertex, instead of
    trusting the trace, and uses neither solve()'s heap nor apply_step().
    """
    mode, k = sol.mode, sol.k
    try:
        check_k(g, mode, k)
    except KOutOfRangeError:
        return False  # no run of solve() has this (mode, k)
    count = [0] * g.n
    chosen: set[int] = set()
    for rec in sol.iterations:
        best, best_score = -1, 0
        for v in range(g.n):
            if v in chosen:
                continue
            s = sum(1 for u in g.adjacency[v] if count[u] < k)
            if count[v] < k:
                s += self_gain(mode, k, count[v])
            if s > best_score:
                best, best_score = v, s
        if rec.vertex != best or rec.score != best_score:
            return False
        chosen.add(best)
        for u in (best, *g.adjacency[best]):
            if count[u] < k:
                count[u] += self_gain(mode, k, count[u]) if u == best else 1
        if rec.covered_after != sum(c >= k for c in count):
            return False
    return all(c >= k for c in count) and sorted(chosen) == sorted(sol.chosen)
