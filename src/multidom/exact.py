"""Exact minimum solvers for the three domination variants.

Two independent implementations so they can cross-check each other:

* exact_minimum_naive enumerates subsets in increasing cardinality and is
  the reference semantics (only viable for very small graphs);
* exact_minimum is a branch-and-bound search: for each target size, branch
  on the most-constrained unsatisfied vertex, including or excluding one of
  its remaining potential coverers, with sound feasibility pruning.

Both are deterministic: given the same input they visit candidates in the
same order and return the same witness, and nodes_explored is reproducible.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from .graph import Graph
from .solvers import Mode, check_k, self_gain

DEFAULT_MAX_N = 24
NAIVE_MAX_N = 8


class InstanceTooLargeError(ValueError):
    """Raised when a graph exceeds an exact solver's size cap."""


@dataclass(frozen=True)
class ExactResult:
    mode: Mode
    k: int
    optimum: int
    witness: tuple[int, ...]
    nodes_explored: int
    time_s: float


def exact_minimum_naive(g: Graph, mode: Mode, k: int = 1, *, max_n: int = NAIVE_MAX_N) -> ExactResult:
    """Minimum by subset enumeration in increasing cardinality.

    Within one cardinality, subsets are tried in lexicographic order, so the
    returned witness is the lexicographically first optimum.
    """
    _check_instance(g, mode, k, max_n)
    start = time.perf_counter()
    validator = _validator(g, mode, k)
    nodes = 0
    for size in range(g.n + 1):
        for comb in itertools.combinations(range(g.n), size):
            nodes += 1
            if validator(frozenset(comb)):
                return ExactResult(
                    mode=mode,
                    k=k,
                    optimum=size,
                    witness=comb,
                    nodes_explored=nodes,
                    time_s=time.perf_counter() - start,
                )
    raise AssertionError("unreachable: the full vertex set always satisfies the validator")


def exact_minimum(g: Graph, mode: Mode, k: int = 1, *, max_n: int = DEFAULT_MAX_N) -> ExactResult:
    """Minimum by branch and bound, trying target sizes from a lower bound up.

    Lower bounds: ceil(n / (max_degree + 1)) for plain domination (one chosen
    vertex satisfies at most max_degree + 1 vertices), k for k-tuple
    domination (every closed neighborhood needs k chosen members), and 1 for
    k-domination.
    """
    _check_instance(g, mode, k, max_n)
    start = time.perf_counter()
    if mode is Mode.KDOM and k > g.max_degree():
        # No vertex outside the set can collect k chosen neighbors, so the
        # whole vertex set is the unique solution.
        return ExactResult(
            mode=mode,
            k=k,
            optimum=g.n,
            witness=tuple(range(g.n)),
            nodes_explored=0,
            time_s=time.perf_counter() - start,
        )
    if mode is Mode.DOM:
        lower = math.ceil(g.n / (g.max_degree() + 1))
    elif mode is Mode.KTUPLE:
        lower = k
    else:
        lower = 1
    searcher = _Search(g, mode, k)
    for target in range(lower, g.n + 1):
        witness = searcher.feasible(target)
        if witness is not None:
            return ExactResult(
                mode=mode,
                k=k,
                optimum=len(witness),
                witness=tuple(sorted(witness)),
                nodes_explored=searcher.nodes,
                time_s=time.perf_counter() - start,
            )
    raise AssertionError("unreachable: the full vertex set always satisfies the validator")


def verify_monotonicity(g: Graph, k_max: int, *, max_n: int = DEFAULT_MAX_N) -> bool:
    """Check the ordering facts among the exact optima up to k_max.

    gamma_k is non-decreasing in k; gamma_xk (the k-tuple optimum, defined
    for k <= min_degree + 1) is non-decreasing in k; and for each k where
    both exist, gamma_k <= gamma_xk, since a k-tuple dominating set is in
    particular k-dominating.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    kdom = [exact_minimum(g, Mode.KDOM, k, max_n=max_n).optimum for k in range(1, k_max + 1)]
    tuple_cap = min(k_max, g.min_degree() + 1)
    ktuple = [exact_minimum(g, Mode.KTUPLE, k, max_n=max_n).optimum for k in range(1, tuple_cap + 1)]
    if any(a > b for a, b in zip(kdom, kdom[1:])):
        return False
    if any(a > b for a, b in zip(ktuple, ktuple[1:])):
        return False
    return all(kdom[i] <= ktuple[i] for i in range(len(ktuple)))


def _check_instance(g: Graph, mode: Mode, k: int, max_n: int) -> None:
    if g.n > max_n:
        raise InstanceTooLargeError(
            f"exact search capped at n <= {max_n}, got n = {g.n}"
        )
    check_k(g, mode, k)


def _validator(g: Graph, mode: Mode, k: int):
    if mode is Mode.DOM:
        return g.is_dominating
    if mode is Mode.KTUPLE:
        return lambda xs: g.is_ktuple_dominating(k, xs)
    return lambda xs: g.is_k_dominating(k, xs)


class _Search:
    """Depth-first feasibility search for one (graph, mode, k) instance.

    State is shared across target sizes; nodes accumulates over the whole
    exact_minimum call.
    """

    def __init__(self, g: Graph, mode: Mode, k: int):
        self.g = g
        self.k = k
        self.kdom = mode is Mode.KDOM
        self.nodes = 0
        # Choosing u gives one arrival to each neighbor and self_gain(mode, k,
        # 0) to u itself, so v is satisfied iff count[v] >= k.
        self.self_gain = self_gain(mode, k, 0)
        # providers[v]: the vertices whose choice gives v arrivals, sorted.
        self.providers = tuple(tuple(sorted(g.closed_neighborhood(v))) for v in range(g.n))

    def feasible(self, target: int) -> list[int] | None:
        """A satisfying set of size <= target, or None."""
        self.chosen: list[int] = []
        # decided[u]: u is chosen or excluded on the current branch.
        self.decided = [False] * self.g.n
        self.count = [0] * self.g.n
        return self._dfs(target)

    def _dfs(self, budget: int) -> list[int] | None:
        self.nodes += 1
        g = self.g
        k = self.k
        unsat = [v for v in range(g.n) if self.count[v] < k]
        if not unsat:
            return list(self.chosen)
        if budget == 0:
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
        u = branch_avail[0]
        # Include u.
        self._choose(u)
        found = self._dfs(budget - 1)
        self._unchoose(u)
        if found is not None:
            return found
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
