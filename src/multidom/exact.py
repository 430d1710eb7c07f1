"""Exact minimum solvers for the three domination variants.

Two independent implementations so they can cross-check each other:

* exact_minimum_naive enumerates subsets in increasing cardinality and is
  the reference semantics (only viable for very small graphs);
* exact_minimum is a branch-and-bound search: for each target size, branch
  on the most-constrained unsatisfied vertex, including or excluding one of
  its remaining potential coverers, with sound feasibility and counting
  pruning.  Its vertex sets are Python-int bitsets: each vertex's providers,
  the vertices still undecided on the current branch, and the unsatisfied
  vertices, which are kept in step with the arrival counts as vertices are
  chosen and unchosen, so a node costs one mask AND and one bit_count per
  unsatisfied vertex.

Both are deterministic: given the same input they visit candidates in the
same order and return the same witness, and nodes_explored is reproducible.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_MAX_N",
    "InstanceTooLargeError",
    "ExactResult",
    "exact_minimum_naive",
    "exact_minimum",
]

import itertools
import time
from dataclasses import dataclass

from .graph import Graph
from .solvers import Mode, check_k, is_trivial, satisfies, self_gain

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
    nodes = 0
    for size in range(g.n + 1):
        for comb in itertools.combinations(range(g.n), size):
            nodes += 1
            if satisfies(g, mode, k, comb):
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

    Counting bound: a solution needs n * k useful arrivals (arrivals beyond k
    at one vertex are useless), and one chosen vertex gives at most
    max_degree + self_gain(mode, k, 0) of them, one to each neighbor and its
    self-gain to itself.  So the target loop starts at
    ceil(n * k / (max_degree + self_gain)), and the search prunes a branch
    whose open deficit, the sum of k - count over the unsatisfied vertices,
    exceeds its remaining budget times max_degree + self_gain.  Both cuts
    drop only target sizes and branches that hold no solution, so the
    optimum and the witness are those of the search without them.
    """
    _check_instance(g, mode, k, max_n)
    start = time.perf_counter()
    if is_trivial(g, mode, k):
        return ExactResult(
            mode=mode,
            k=k,
            optimum=g.n,
            witness=tuple(range(g.n)),
            nodes_explored=0,
            time_s=time.perf_counter() - start,
        )
    searcher = _Search(g, mode, k)
    lower = -(-g.n * k // searcher.pick_gain)
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


def check_max_n(max_n: int) -> None:
    """Raise ValueError unless max_n, an exact-search size cap, is >= 1."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")


def _check_instance(g: Graph, mode: Mode, k: int, max_n: int) -> None:
    check_max_n(max_n)
    if g.n > max_n:
        raise InstanceTooLargeError(
            f"exact search capped at n <= {max_n}, got n = {g.n}"
        )
    check_k(g, mode, k)


class _Search:
    """Depth-first feasibility search for one (graph, mode, k) instance.

    Vertex sets are Python ints used as bitsets: bit v stands for vertex v.
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
        # The most arrivals one pick can give towards the count[v] >= k
        # goals: one to each of at most max_degree neighbors and self_gain to
        # itself.
        self.pick_gain = g.max_degree() + self.self_gain
        # providers[v]: the mask of the vertices whose choice gives v
        # arrivals, N(v) plus v itself.
        self.providers = tuple(
            sum(1 << u for u in g.adjacency[v]) | 1 << v for v in range(g.n)
        )

    def feasible(self, target: int) -> list[int] | None:
        """A satisfying set of size <= target, or None."""
        everyone = (1 << self.g.n) - 1
        self.chosen: list[int] = []
        # undecided: the vertices neither chosen nor excluded on the current
        # branch.  unsat: the vertices with count < k, kept in step with
        # count by _choose and restored by _unchoose.
        self.undecided = everyone
        self.unsat = everyone
        self.count = [0] * self.g.n
        return self._dfs(target)

    def _dfs(self, budget: int) -> list[int] | None:
        self.nodes += 1
        unsat = self.unsat
        if not unsat:
            return list(self.chosen)
        if budget == 0:
            return None
        k = self.k
        count = self.count
        providers = self.providers
        undecided = self.undecided
        kdom = self.kdom
        # Feasibility prune, and pick the most-constrained vertex: the first,
        # in id order, with the fewest remaining ways to be satisfied.
        fewest = self.g.n + 1
        branch_avail = 0
        open_deficit = 0
        rest = unsat
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            avail = providers[v] & undecided
            n_avail = avail.bit_count()
            deficit = k - count[v]
            open_deficit += deficit
            # An undecided v under k-domination can settle itself with one
            # pick; every other v needs deficit more picks among avail.
            settles_itself = kdom and undecided & bit
            if not settles_itself and (n_avail < deficit or deficit > budget):
                return None
            if n_avail < fewest:
                fewest, branch_avail = n_avail, avail
        # Counting prune: budget more picks close at most budget * pick_gain
        # of the open deficit.
        if open_deficit > budget * self.pick_gain:
            return None
        # Branch on the lowest id among the branch vertex's undecided
        # providers; avail is never empty, since an empty avail is pruned
        # above and an undecided v is its own provider.
        bit = branch_avail & -branch_avail
        u = bit.bit_length() - 1
        # Include u.
        self._choose(u)
        found = self._dfs(budget - 1)
        self._unchoose(u, unsat)
        if found is not None:
            return found
        # Exclude u.
        self.undecided ^= bit
        found = self._dfs(budget)
        self.undecided |= bit
        return found

    def _choose(self, u: int) -> None:
        k = self.k
        count = self.count
        unsat = self.unsat
        self.chosen.append(u)
        self.undecided ^= 1 << u
        count[u] += self.self_gain
        if count[u] >= k:
            unsat &= ~(1 << u)
        for w in self.g.adjacency[u]:
            count[w] += 1
            if count[w] >= k:
                unsat &= ~(1 << w)
        self.unsat = unsat

    def _unchoose(self, u: int, unsat: int) -> None:
        """Undo _choose(u); unsat is the mask saved before it."""
        self.chosen.pop()
        self.undecided |= 1 << u
        self.unsat = unsat
        self.count[u] -= self.self_gain
        for w in self.g.adjacency[u]:
            self.count[w] -= 1
