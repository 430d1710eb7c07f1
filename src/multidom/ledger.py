"""Exact-rational cost accounting for greedy solutions.

All three greedy bounds rest on one charging argument.  Every vertex needs k
arrivals, and the step that chooses a vertex causes as many arrivals as its
score.  The unit spent on iteration i is split evenly among its score(i)
arrivals, so each arrival costs 1/score(i).
This module replays a solution trace with the solver's own step
(solvers.apply_step), rejects a trace whose recorded step differs from the
replayed one, and checks two facts of the analysis exactly:

* sum identity: all per-arrival costs add up to exactly the solution size;
* neighborhood bound: the total charge seen around any single vertex w is at
  most H(deg(w) + self_gain), where self_gain is what w would give itself
  if chosen first: 1 for the closed-neighborhood variants, k for
  k-domination.  The potential left around w after iteration i is w's own
  greedy score at that point, its uncovered neighbors plus its self-gain
  while it is uncovered; each arrival around w is charged at most 1 over
  that potential, so the charges telescope to the harmonic number.

The third fact, the subset bound (the total charged to a vertex is at most
what any k-subset of its closed neighborhood would be charged), has an
exponential number of subsets; the tests check it against every subset on
small graphs.

Every score is at most max_degree + self_gain(mode, k, 0), so every charge,
row sum, harmonic bound and step of the residual telescoping is an integer
multiple of 1/unit, unit = lcm(1..max_degree + self_gain(mode, k, 0)).  The
checks therefore compare exact Python ints, shares of unit; a Fraction is
built only for the rows audit() returns, and floats only appear when
comparing harmonic numbers against logarithms.
audit() runs the sum identity and every vertex's neighborhood bound in one
pass.  Every completion is read from the ledger's done table, done[v] =
arrivals[v][-1]: the residual scan counts w's neighbors with done[u] > i at
each iteration i, and a chosen vertex's row takes min(joined[w], done[v])
per neighbor.  A vertex never chosen takes, for each neighbor, the share of
the iteration that completed it, so its row is one sum over done_shares.
The ledger therefore refuses, with ValueError, arrivals or joined rows that
are not one per vertex, a vertex whose arrivals are empty or end after the
last iteration, and joined rows that do not name one vertex per iteration.
"""

from __future__ import annotations

__all__ = [
    "check_harmonic_inequalities",
    "check_harmonic_log_bound",
    "CostLedger",
    "build_ledger",
    "check_sum_identity",
    "check_neighborhood_bound",
    "check_residual_decomposition",
    "audit",
]

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import accumulate, islice
from typing import Iterator

from .graph import MAX_VERTICES, Graph
from .solvers import Mode, Solution, apply_step, check_k, is_trivial, self_gain

# Float slack of H(x) <= ln(x) + 1, which holds with equality at x = 1.
LOG_BOUND_TOL = 1e-12
# The largest top score, max_degree + self_gain(mode, k, 0), of a ledger: unit
# = lcm(1..top) has about 1.44 * top bits and a residual scan top + 1 steps.
MAX_SCORE = 1 << 16


def lcm_upto(x: int) -> int:
    """lcm(1..x), with lcm_upto(0) = 1: the product, over the primes p <= x,
    of the largest power of p not above x.  It multiplies by about x / ln x
    prime powers instead of taking x lcms, so x = 10^5 takes about 0.05 s,
    where math.lcm(*range(1, x + 1)) takes about 5 s."""
    sieve = bytearray([1]) * (x + 1)
    unit = 1
    for p in range(2, x + 1):
        if sieve[p]:
            q = p
            while q * p <= x:
                q *= p
            if q > p:  # p * p <= x, so p has multiples left to strike
                sieve[p * p :: p] = bytes(len(range(p * p, x + 1, p)))
            unit *= q
    return unit


def scaled_harmonics(unit: int, x_max: int) -> Iterator[int]:
    """unit * H(0), unit * H(1), ..., unit * H(x_max) as running sums of
    unit // i, each exact when unit is a multiple of lcm(1..x_max)."""
    return accumulate((unit // i for i in range(1, x_max + 1)), initial=0)


def check_harmonic_inequalities(x_max: int) -> bool:
    """Exhaustively check the two harmonic-number facts up to x_max.

    For all 0 <= y <= x <= x_max: (x - y)/x <= H(x) - H(y), checked in exact
    integer arithmetic over the common denominator lcm(1..x_max).  And for
    all 1 <= x <= x_max: H(x) <= ln(x) + 1 within LOG_BOUND_TOL.
    """
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    lcm = lcm_upto(x_max)
    scaled = list(scaled_harmonics(lcm, x_max))  # scaled[i] = H(i) * lcm
    for x in range(1, x_max + 1):
        sx = scaled[x]
        for y in range(x + 1):
            # (x - y)/x <= (scaled[x] - scaled[y])/lcm, cross-multiplied.
            if lcm * (x - y) > x * (sx - scaled[y]):
                return False
    return check_harmonic_log_bound(x_max)


def check_harmonic_log_bound(x_max: int) -> bool:
    """Check H(x) <= ln(x) + 1 + LOG_BOUND_TOL for all 1 <= x <= x_max."""
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    unit = lcm_upto(x_max)
    scaled = islice(scaled_harmonics(unit, x_max), 1, None)  # H(x) * unit from x = 1
    # int / int is correctly rounded, so h / unit is float(H(x)) exactly.
    return all(h / unit <= math.log(x) + 1 + LOG_BOUND_TOL for x, h in enumerate(scaled, 1))


@dataclass(frozen=True)
class CostLedger:
    """Per-vertex charging data replayed from one greedy run.

    For every vertex v, arrivals[v] lists the k iteration indices (1-based,
    non-decreasing) at which v received an arrival; the vertex behind an
    arrival at iteration i is the solution's chosen[i-1].  A chosen vertex's
    self-gain lands on it in its own iteration, as k - count arrivals for
    k-domination, so an iteration can repeat there.  scores[i-1] is the
    selection score of iteration i, which equals the number of arrivals
    that iteration caused.  joined[v] is the iteration that chose v, or
    len(scores) + 1 if v was never chosen.

    unit = lcm(1..max_degree + self_gain(mode, k, 0)), shares[i-1] =
    unit // scores[i-1], so one arrival of iteration i costs shares[i-1] /
    unit exactly, done[v] = arrivals[v][-1] is the iteration that completed
    v, done_shares[v] = shares[done[v] - 1] is that iteration's share, and
    harmonics[x] = unit * H(x) for each x = deg(w) + self_gain(mode, k, 0).
    All five are derived from scores, arrivals and the graph, never passed
    in.  ValueError is raised, as no greedy run can give them, for a score
    outside 1..max_degree + self_gain(mode, k, 0), for arrivals or joined
    not of length n, for a vertex whose arrivals are empty or end after the
    last iteration, and for joined rows that do not name exactly one vertex
    for each iteration 1..len(scores) and len(scores) + 1 for the rest.

    The one charge rule: v's own coverage costs a share per arrival, and w
    in N[v] is charged for it a share of iteration min(joined[w], done[v]),
    the arrival w gave v or else the one that completed v.
    """

    mode: Mode
    k: int
    graph: Graph
    scores: tuple[int, ...]
    arrivals: tuple[tuple[int, ...], ...]
    joined: tuple[int, ...]
    unit: int = field(init=False, repr=False)
    shares: tuple[int, ...] = field(init=False, repr=False)
    done: tuple[int, ...] = field(init=False, repr=False, compare=False)
    done_shares: tuple[int, ...] = field(init=False, repr=False, compare=False)
    harmonics: dict[int, int] = field(init=False, repr=False, compare=False)  # a dict: not hashed

    def __post_init__(self) -> None:
        gain = self_gain(self.mode, self.k, 0)
        top = self.graph.max_degree() + gain
        for i, s in enumerate(self.scores, start=1):
            if not 1 <= s <= top:
                raise ValueError(f"iteration {i} has score {s} outside 1..{top}")
        n, m = self.graph.n, len(self.scores)
        for name, rows in (("arrivals", self.arrivals), ("joined", self.joined)):
            if len(rows) != n:
                raise ValueError(f"{name} has {len(rows)} rows for {n} vertices")
        for v, row in enumerate(self.arrivals):
            if not row:
                raise ValueError(f"vertex {v} has no arrivals")
            if row[-1] > m:
                raise ValueError(f"vertex {v} has last arrival {row[-1]} after iteration {m}")
        if sorted(self.joined) != [*range(1, m + 1), *[m + 1] * (n - m)]:
            raise ValueError(
                f"joined does not name one vertex per iteration 1..{m} and {m + 1} for the rest"
            )
        done = tuple(row[-1] for row in self.arrivals)
        unit = lcm_upto(top)
        # One int per distinct score, shared by every iteration that has it.
        by_score = {s: unit // s for s in set(self.scores)}
        shares = tuple(map(by_score.__getitem__, self.scores))
        # One pass up to top, keeping only the x values some bound reads.
        needed = {len(row) + gain for row in self.graph.adjacency}
        hs = {x: h for x, h in enumerate(scaled_harmonics(unit, top)) if x in needed}
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "done", done)
        object.__setattr__(self, "done_shares", tuple(shares[d - 1] for d in done))
        object.__setattr__(self, "harmonics", hs)

    def residual_sequence(self, w: int) -> tuple[int, ...]:
        """w's greedy score after each iteration: r_0 >= r_1 >= ... >= r_m = 0.

        r_i is 0 once w has been chosen.  Otherwise it is the number of w's
        neighbors not yet covered after iteration i, plus w's self-gain
        while w itself is uncovered.  The sequence stops at the first zero.
        """
        self.graph._check_vertex(w)
        done = self.done
        nbrs_done = [done[u] for u in self.graph.adjacency[w]]
        arrivals_w = self.arrivals[w]
        covered_w = done[w]
        join_w = self.joined[w]
        r: list[int] = []
        i = 0
        while True:
            val = 0
            if join_w > i:
                val = sum(1 for d in nbrs_done if d > i)
                if covered_w > i:
                    val += self_gain(self.mode, self.k, bisect_right(arrivals_w, i))
            r.append(val)
            if val == 0:
                return tuple(r)
            i += 1


def build_ledger(g: Graph, sol: Solution) -> CostLedger:
    """Replay a solution trace with the solver's own step.

    Validates that the trace belongs to g and admits its k, that its trivial
    flag equals solvers.is_trivial for them, and that chosen lists the
    iteration vertices in order without repeats.  Each iteration vertex
    must be in 0..n-1; solvers.apply_step then replays its step,
    which must cause at least one arrival, and the recorded IterationRecord
    must equal the replayed one, or the error names the first field that
    differs.  Every vertex must end with exactly k arrivals.

    The ledger holds n * k arrivals, so a k with n * k above
    graph.MAX_VERTICES raises ValueError before any of them is stored, as
    then does a top score max_degree + self_gain(mode, k, 0) above MAX_SCORE.
    """
    if sol.graph_fingerprint != g.fingerprint():
        raise ValueError("solution trace does not match this graph")
    check_k(g, sol.mode, sol.k)
    if g.n * sol.k > MAX_VERTICES:
        raise ValueError(
            f"k={sol.k} needs n * k = {g.n * sol.k} arrivals, above the cap of {MAX_VERTICES}"
        )
    top = g.max_degree() + self_gain(sol.mode, sol.k, 0)
    if top > MAX_SCORE:
        raise ValueError(
            f"k={sol.k} allows scores up to max_degree + self-gain = {top}, "
            f"above the cap of {MAX_SCORE}"
        )
    if sol.trivial != is_trivial(g, sol.mode, sol.k):
        raise ValueError(f"solution flag trivial={sol.trivial} does not match this instance")
    if sol.chosen != tuple(rec.vertex for rec in sol.iterations):
        raise ValueError("solution chosen order does not match its iteration vertices")
    if len(set(sol.chosen)) != len(sol.chosen):
        raise ValueError("solution chooses a vertex more than once")
    n = g.n
    count = [0] * n
    covered = 0
    arrivals: list[list[int]] = [[] for _ in range(n)]
    joined = [len(sol.chosen) + 1] * n
    for index, rec in enumerate(sol.iterations, start=1):
        v = rec.vertex
        if not 0 <= v < n:
            raise ValueError(f"iteration {index} chooses vertex {v} outside 0..{n - 1}")
        joined[v] = index
        tokens, replay = apply_step(g, sol.mode, sol.k, count, v, index, covered)
        if not tokens:
            raise ValueError(f"iteration {index} causes no arrivals")
        if rec != replay:
            name = next(
                f.name for f in fields(replay) if getattr(rec, f.name) != getattr(replay, f.name)
            )
            got, want = getattr(rec, name), getattr(replay, name)
            if name == "tokens_placed":
                got, want = dict(got), dict(want)
            raise ValueError(f"iteration {index}: {name} {got} != replayed {want}")
        for u, c in tokens.items():
            arrivals[u].extend([index] * c)
        covered = replay.covered_after
    short = [v for v in range(n) if count[v] != sol.k]
    if short:
        raise ValueError(f"vertices {short} did not accumulate {sol.k} arrivals")
    return CostLedger(
        mode=sol.mode,
        k=sol.k,
        graph=g,
        scores=tuple(rec.score for rec in sol.iterations),
        arrivals=tuple(tuple(a) for a in arrivals),
        joined=tuple(joined),
    )


def check_sum_identity(ledger: CostLedger) -> int:
    """Total of all per-vertex coverage charges, in shares of ledger.unit;
    equals len(chosen) * ledger.unit exactly.

    Each iteration splits one unit of cost over its arrival events, so the
    grand total counts one unit per chosen vertex.  The arrivals are counted
    per iteration first, so the total is sum_i count_i * shares[i-1].
    """
    counts = [0] * len(ledger.scores)
    for its in ledger.arrivals:
        for it in its:
            counts[it - 1] += 1
    return sum(c * s for c, s in zip(counts, ledger.shares))


def check_neighborhood_bound(ledger: CostLedger, w: int) -> tuple[int, int]:
    """(lhs, bound) for the per-vertex harmonic bound, both in shares of
    ledger.unit; lhs <= bound must hold.

    lhs is the charge w takes: its charge for each neighbor v, plus its
    self-charge, one charge per arrival that w's self-gain could settle,
    that is for its last self_gain(mode, k, 0) arrivals.  For k-domination
    those are all k of w's arrivals, each at or before joined[w], so the
    self-charge is all of w's own coverage charge; otherwise it is the one
    charge for done[w].  The bound is H(deg(w) + self_gain(mode, k, 0)),
    that is H(deg(w) + 1), or H(deg(w) + k) for k-domination, read from
    ledger.harmonics.
    """
    g = ledger.graph
    g._check_vertex(w)
    shares, done = ledger.shares, ledger.done
    join_w = ledger.joined[w]
    gain = self_gain(ledger.mode, ledger.k, 0)
    if join_w > len(shares):
        # w was never chosen: no arrival ends after the last iteration, so
        # each neighbor's min is its completion iteration.
        lhs = sum(map(ledger.done_shares.__getitem__, g.adjacency[w]))
    else:
        lhs = sum(shares[min(join_w, done[v]) - 1] for v in g.adjacency[w])
    lhs += sum(shares[min(join_w, it) - 1] for it in ledger.arrivals[w][-gain:])
    return lhs, ledger.harmonics[len(g.adjacency[w]) + gain]


def check_residual_decomposition(ledger: CostLedger, w: int, lhs: int) -> bool:
    """Confirm the harmonic-bound derivation step by step around w.

    lhs is w's charge as returned by check_neighborhood_bound.  Three facts,
    the first two exact, and together they imply the neighborhood bound:
    lhs equals sum_i (r_{i-1} - r_i)/score_i; that is at most
    sum_i (r_{i-1} - r_i)/r_{i-1} because each greedy score dominates the
    residual; and the latter telescopes to at most H(r_0).  Both sums, like
    lhs, are kept in shares of ledger.unit: every r_{i-1} is at most
    r_0 <= max_degree + self_gain(mode, k, 0), so unit // r_{i-1} is exact.

    The third fact follows from the non-increasing r that the loop checks:
    each (r_{i-1} - r_i)/r_{i-1} = sum_{j = r_i + 1}^{r_{i-1}} 1/r_{i-1} is at
    most sum_{j = r_i + 1}^{r_{i-1}} 1/j = H(r_{i-1}) - H(r_i), and these
    telescope to H(r_0) - H(r_m) <= H(r_0).  It is compared all the same.
    """
    r = ledger.residual_sequence(w)
    unit, scores, shares = ledger.unit, ledger.scores, ledger.shares
    per_score = 0
    per_residual = 0
    for i in range(1, len(r)):
        drop = r[i - 1] - r[i]
        if drop < 0:
            return False
        if drop:
            if scores[i - 1] < r[i - 1]:
                return False
            per_score += drop * shares[i - 1]
            per_residual += drop * (unit // r[i - 1])
    h = ledger.harmonics.get(r[0])
    if h is None:  # r_0 is not deg(w) + self_gain: a forged ledger
        *_, h = scaled_harmonics(unit, r[0])
    return lhs == per_score and per_score <= per_residual and per_residual <= h


def audit(ledger: CostLedger) -> tuple[bool, tuple[tuple[Fraction, Fraction], ...]]:
    """(passed, rows): every vertex's (lhs, bound) neighborhood row, as
    reduced Fractions, and whether the sum identity holds and each row
    passes lhs <= bound and its residual decomposition, all compared in
    shares of ledger.unit.  After the first failure the rows are still
    computed, but no further decomposition is checked."""
    unit = ledger.unit
    passed = check_sum_identity(ledger) == len(ledger.scores) * unit
    bounds = {h: Fraction(h, unit) for h in ledger.harmonics.values()}
    rows = []
    for w in range(ledger.graph.n):
        lhs, bound = check_neighborhood_bound(ledger, w)
        rows.append((Fraction(lhs, unit), bounds[bound]))
        passed = passed and lhs <= bound and check_residual_decomposition(ledger, w, lhs)
    return passed, tuple(rows)
