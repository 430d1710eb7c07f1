"""Exact-rational cost accounting for greedy solutions.

The greedy bounds rest on a charging argument: the unit spent selecting a
vertex in iteration i is split evenly among the score(i) coverage events that
step causes, so each event costs 1/score(i).  This module rebuilds that
bookkeeping from a solution trace and exposes the three facts the analysis
needs, each checkable in exact arithmetic:

* sum identity: all per-event costs add up to exactly the solution size;
* subset bound: the total charged to a vertex is at most the total it would
  have been charged by any k-subset of its closed neighborhood;
* neighborhood bound: the total charge seen around any single vertex w is at
  most a harmonic number - H(deg(w) + 1) for the closed-neighborhood
  variants, H(deg(w) + k) for k-domination.

All ledger arithmetic uses fractions.Fraction; floats only appear when
comparing harmonic numbers against logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .graph import Graph
from .solvers import Mode, Solution

_HARMONIC_CACHE: list[Fraction] = [Fraction(0)]


def harmonic(x: int) -> Fraction:
    """Exact harmonic number 1 + 1/2 + ... + 1/x, with harmonic(0) = 0."""
    if x < 0:
        raise ValueError(f"harmonic number needs x >= 0, got {x}")
    while len(_HARMONIC_CACHE) <= x:
        i = len(_HARMONIC_CACHE)
        _HARMONIC_CACHE.append(_HARMONIC_CACHE[-1] + Fraction(1, i))
    return _HARMONIC_CACHE[x]


def check_harmonic_inequalities(x_max: int, tol: float = 1e-12) -> bool:
    """Exhaustively check the two harmonic-number facts up to x_max.

    For all 0 <= y <= x <= x_max: (x - y)/x <= H(x) - H(y), checked in exact
    integer arithmetic over the common denominator lcm(1..x_max).  And for
    all 1 <= x <= x_max: H(x) <= ln(x) + 1 within tol (equality holds at
    x = 1, hence the tolerance).
    """
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    lcm = math.lcm(*range(1, x_max + 1))
    # scaled[i] = H(i) * lcm, an exact integer.
    scaled = [0] * (x_max + 1)
    for i in range(1, x_max + 1):
        scaled[i] = scaled[i - 1] + lcm // i
    for x in range(1, x_max + 1):
        sx = scaled[x]
        for y in range(x + 1):
            # (x - y)/x <= (scaled[x] - scaled[y])/lcm, cross-multiplied.
            if lcm * (x - y) > x * (sx - scaled[y]):
                return False
    return check_harmonic_log_bound(x_max, tol)


def check_harmonic_log_bound(x_max: int, tol: float = 1e-12) -> bool:
    """Check H(x) <= ln(x) + 1 + tol for all 1 <= x <= x_max."""
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    h = Fraction(0)
    for x in range(1, x_max + 1):
        h += Fraction(1, x)
        if float(h) > math.log(x) + 1 + tol:
            return False
    return True


@dataclass(frozen=True)
class CostLedger:
    """Per-vertex charging data reconstructed from one greedy run.

    For every vertex v, arrivals[v] lists the k iteration indices (1-based,
    non-decreasing) at which v's coverage requirement progressed, and
    contributors[v] lists the vertex chosen in each of those iterations.
    For the closed-neighborhood variants an arrival is "a member of N[v] was
    chosen"; for k-domination it is "a token landed on v", so a vertex's own
    deficiency top-up can repeat the same iteration.  scores[i-1] is the
    selection score of iteration i, which equals the number of arrival
    events that iteration caused.
    """

    mode: Mode
    k: int
    graph: Graph
    chosen: tuple[int, ...]
    scores: tuple[int, ...]
    arrivals: tuple[tuple[int, ...], ...]
    contributors: tuple[tuple[int, ...], ...]

    def join_iteration(self, v: int) -> int | None:
        """Iteration at which v was selected, or None."""
        try:
            return self.chosen.index(v) + 1
        except ValueError:
            return None

    def covered_at(self, v: int) -> int:
        """Iteration at which v's requirement became fully satisfied."""
        return self.arrivals[v][-1]

    def cost(self, v: int, w: int) -> Fraction:
        """Cost of v's coverage charged to w, for w in N[v].

        If w caused one of v's arrival events, the charge is one share of
        that iteration's score; otherwise w is charged the default: one
        share of the iteration that completed v's coverage.
        """
        if w != v and w not in self.graph.neighbors(v):
            raise ValueError(f"vertex {w} is not in the closed neighborhood of {v}")
        for it, contributor in zip(self.arrivals[v], self.contributors[v]):
            if contributor == w:
                return Fraction(1, self.scores[it - 1])
        return Fraction(1, self.scores[self.covered_at(v) - 1])

    def own_cost_sum(self, v: int) -> Fraction:
        """Total charged for v's own coverage: one share per arrival event."""
        return sum(
            (Fraction(1, self.scores[it - 1]) for it in self.arrivals[v]),
            Fraction(0),
        )

    def residual_sequence(self, w: int) -> tuple[int, ...]:
        """Potential-coverage counts r_0 >= r_1 >= ... >= r_m = 0 around w.

        r_i is how much of w's surroundings is still chargeable after
        iteration i: for the closed-neighborhood variants, the number of
        members of N[w] not yet fully covered; for k-domination, the number
        of w's neighbors not yet covered plus w's own remaining deficiency.
        Selecting w itself ends the sequence (r drops to 0 there).  The
        sequence stops at the first zero.
        """
        g = self.graph
        join_w = self.join_iteration(w)
        r: list[int] = []
        if self.mode is Mode.KDOM:
            nbrs = sorted(g.neighbors(w))
            joins = {u: self.join_iteration(u) for u in nbrs}
            i = 0
            while True:
                if join_w is not None and join_w <= i:
                    r.append(0)
                    break
                uncovered = sum(1 for u in nbrs if self.covered_at(u) > i)
                chosen_nbrs = sum(1 for u in nbrs if joins[u] is not None and joins[u] <= i)
                val = uncovered + max(self.k - chosen_nbrs, 0)
                r.append(val)
                if val == 0:
                    break
                i += 1
        else:
            closed = sorted(g.closed_neighborhood(w))
            i = 0
            while True:
                if self.mode is Mode.KTUPLE and join_w is not None and join_w <= i:
                    r.append(0)
                    break
                val = sum(1 for u in closed if self.covered_at(u) > i)
                r.append(val)
                if val == 0:
                    break
                i += 1
        return tuple(r)


def build_ledger(g: Graph, sol: Solution) -> CostLedger:
    """Reconstruct the charging data from a solution trace.

    Validates that the trace belongs to g, that chosen lists the iteration
    vertices in order without repeats, that iterations are numbered 1, 2,
    ..., and that its arrival bookkeeping is internally consistent (every
    vertex accumulates exactly k arrivals, completion iterations match the
    recorded newly-covered sets, and each iteration's score equals the
    arrival events it caused).
    """
    if sol.graph_fingerprint != g.fingerprint():
        raise ValueError("solution trace does not match this graph")
    if sol.chosen != tuple(rec.vertex for rec in sol.iterations):
        raise ValueError("solution chosen order does not match its iteration vertices")
    if len(set(sol.chosen)) != len(sol.chosen):
        raise ValueError("solution chooses a vertex more than once")
    n = g.n
    k = sol.k
    arrivals: list[list[int]] = [[] for _ in range(n)]
    contributors: list[list[int]] = [[] for _ in range(n)]
    for i, rec in enumerate(sol.iterations):
        if rec.index != i + 1:
            raise ValueError(f"iteration {i + 1} is numbered {rec.index}")
        events = 0
        completed = []
        if sol.mode is Mode.KDOM:
            for u in sorted(rec.tokens_placed):
                count = rec.tokens_placed[u]
                if count < 1:
                    raise ValueError(f"iteration {rec.index} places {count} tokens on {u}")
                arrivals[u].extend([rec.index] * count)
                contributors[u].extend([rec.vertex] * count)
                events += count
                if len(arrivals[u]) == k:
                    completed.append(u)
                elif len(arrivals[u]) > k:
                    raise ValueError(f"vertex {u} exceeds {k} arrivals")
        else:
            for u in sorted(g.closed_neighborhood(rec.vertex)):
                if len(arrivals[u]) < k:
                    arrivals[u].append(rec.index)
                    contributors[u].append(rec.vertex)
                    events += 1
                    if len(arrivals[u]) == k:
                        completed.append(u)
        if events != rec.score:
            raise ValueError(
                f"iteration {rec.index} score {rec.score} != {events} arrival events"
            )
        if tuple(completed) != rec.newly_covered:
            raise ValueError(
                f"iteration {rec.index} newly-covered mismatch: "
                f"{tuple(completed)} != {rec.newly_covered}"
            )
    short = [v for v in range(n) if len(arrivals[v]) != k]
    if short:
        raise ValueError(f"vertices {short} did not accumulate {k} arrivals")
    return CostLedger(
        mode=sol.mode,
        k=k,
        graph=g,
        chosen=sol.chosen,
        scores=tuple(rec.score for rec in sol.iterations),
        arrivals=tuple(tuple(a) for a in arrivals),
        contributors=tuple(tuple(c) for c in contributors),
    )


def check_sum_identity(ledger: CostLedger) -> Fraction:
    """Total of all per-vertex coverage charges; equals len(chosen) exactly.

    Each iteration splits one unit of cost over its arrival events, so the
    grand total counts one unit per chosen vertex.
    """
    return sum(
        (ledger.own_cost_sum(v) for v in range(ledger.graph.n)),
        Fraction(0),
    )


def check_subset_cost_bound(ledger: CostLedger, v: int, subset: Iterable[int]) -> bool:
    """True iff v's own coverage charge is at most the charge to subset.

    subset must be a subset of N[v] with at least k members.  The chosen
    vertices covering v were picked greedily, so charging any k-or-more
    members of v's closed neighborhood can only cost more.
    """
    w_set = frozenset(subset)
    closed = ledger.graph.closed_neighborhood(v)
    if not w_set <= closed:
        raise ValueError(f"subset {sorted(w_set)} is not within the closed neighborhood of {v}")
    if len(w_set) < ledger.k:
        raise ValueError(f"subset must have at least k={ledger.k} members, got {len(w_set)}")
    rhs = sum((ledger.cost(v, w) for w in w_set), Fraction(0))
    return ledger.own_cost_sum(v) <= rhs


def check_neighborhood_bound(ledger: CostLedger, w: int) -> tuple[Fraction, Fraction]:
    """(lhs, bound) for the per-vertex harmonic bound; lhs <= bound must hold.

    For the closed-neighborhood variants, lhs is the total coverage charge
    assigned to w over all v in N[w] and the bound is H(deg(w) + 1).  For
    k-domination, lhs adds w's own coverage charge to the charges its
    neighbors assign to it, and the bound is H(deg(w) + k).
    """
    g = ledger.graph
    if ledger.mode is Mode.KDOM:
        lhs = sum((ledger.cost(v, w) for v in g.neighbors(w)), Fraction(0))
        lhs += ledger.own_cost_sum(w)
        bound = harmonic(g.degree(w) + ledger.k)
    else:
        lhs = sum(
            (ledger.cost(v, w) for v in g.closed_neighborhood(w)), Fraction(0)
        )
        bound = harmonic(g.degree(w) + 1)
    return lhs, bound


def check_residual_decomposition(ledger: CostLedger, w: int, lhs: Fraction) -> bool:
    """Confirm the harmonic-bound derivation step by step around w.

    lhs is w's charge as returned by check_neighborhood_bound.  Three facts,
    the first two exact, and together they imply the neighborhood bound:
    lhs equals sum_i (r_{i-1} - r_i)/score_i; that is at most
    sum_i (r_{i-1} - r_i)/r_{i-1} because each greedy score dominates the
    residual; and the latter telescopes to at most H(r_0).
    """
    r = ledger.residual_sequence(w)
    per_score = Fraction(0)
    per_residual = Fraction(0)
    for i in range(1, len(r)):
        drop = r[i - 1] - r[i]
        if drop < 0:
            return False
        if drop:
            if ledger.scores[i - 1] < r[i - 1]:
                return False
            per_score += Fraction(drop, ledger.scores[i - 1])
            per_residual += Fraction(drop, r[i - 1])
    return (
        lhs == per_score
        and per_score <= per_residual
        and per_residual <= harmonic(r[0])
    )
