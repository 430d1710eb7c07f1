"""Exact minimum solvers for the three domination variants.

Two independent implementations so they can cross-check each other:

* exact_minimum_naive enumerates subsets in increasing cardinality and is
  the reference semantics (only viable for very small graphs);
* exact_minimum is a branch-and-bound search that starts from a known
  solution, such as the greedy one, and asks for one vertex fewer until
  there is no such set: only the last search, one below the optimum, has to
  fail.  Each search branches on the most-constrained unsatisfied vertex,
  including or excluding one of its remaining potential coverers, with
  sound feasibility and counting pruning, a closed form for the last pick,
  and no exclude branch that cannot satisfy its branch vertex.
  Its vertex sets are Python-int bitsets: each vertex's providers, the
  vertices still undecided on the current branch, and the unsatisfied
  vertices, which are kept in step with the arrival counts as vertices are
  chosen and unchosen, so a node costs a few mask operations and one
  bit_count per unsatisfied vertex.

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
from typing import Iterable

from .graph import Graph
from .solvers import Mode, check_k, satisfies, self_gain

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


def exact_minimum_naive(g: Graph, mode: Mode, k: int = 1) -> ExactResult:
    """Minimum by subset enumeration in increasing cardinality, n <= NAIVE_MAX_N.

    Within one cardinality, subsets are tried in lexicographic order, so the
    returned witness is the lexicographically first optimum.
    """
    _check_instance(g, mode, k, NAIVE_MAX_N)
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


def exact_minimum(
    g: Graph, mode: Mode, k: int = 1, *, max_n: int = DEFAULT_MAX_N, upper: Iterable[int] | None = None
) -> ExactResult:
    """Minimum by branch and bound, descending from a known solution.

    best starts as upper, a satisfying set (sorted, repeats dropped), or as
    all n vertices when upper is None.  While best is larger than the
    counting bound, the search asks for a set of at most len(best) - 1
    vertices and takes it as the new best; when there is none, best is a
    minimum and the witness.  So the last target searched is OPT - 1, and
    none at all when best already meets the bound.  nodes_explored counts
    the search nodes of every target in the descent.

    Counting bound: a solution needs n * k useful arrivals (arrivals beyond k
    at one vertex are useless), and one chosen vertex gives at most
    max_degree + self_gain(mode, k, 0) of them, one to each neighbor and its
    self-gain to itself.  So no set below ceil(n * k / (max_degree +
    self_gain)) is searched for, and the search prunes a branch whose open
    deficit, the sum of k - count over the unsatisfied vertices, exceeds its
    remaining budget times max_degree + self_gain.  Two more cuts are
    described in _Search._dfs: a closed form for the last pick, and skipping
    an exclude branch that cannot satisfy its branch vertex.

    k-domination with k > max_degree (solvers.is_trivial) needs no case of
    its own: neighbors give a vertex fewer than k arrivals, so every vertex
    must be chosen, and the search refutes n - 1 in about n nodes.

    Why the witness does not depend on the path down: the order in which
    the search visits branches does not depend on the target, and every cut
    removes only branches that hold no set within the target, or returns
    the set the search would reach first.  So the search at target t
    returns the first leaf, in that order, of size at most t.  When that
    leaf has OPT vertices it is also the answer at target OPT, the one an
    ascending loop from the counting bound returns.  Without upper the
    witness is therefore always that leaf; with upper it is that leaf too,
    unless upper is itself minimum, and then it is upper.

    Raises ValueError for an upper that does not satisfy mode and k on g,
    checked after the size cap and k.
    """
    _check_instance(g, mode, k, max_n)
    start = time.perf_counter()
    if upper is None:
        best = list(range(g.n))
    else:
        best = sorted(set(upper))
        if not satisfies(g, mode, k, best):
            raise ValueError(f"upper {best} does not satisfy {mode} with k={k}")
    searcher = _Search(g, mode, k)
    lower = -(-g.n * k // searcher.pick_gain)
    while len(best) > lower:
        smaller = searcher.feasible(len(best) - 1)
        if smaller is None:
            break
        best = sorted(smaller)
    return ExactResult(
        mode=mode,
        k=k,
        optimum=len(best),
        witness=tuple(best),
        nodes_explored=searcher.nodes,
        time_s=time.perf_counter() - start,
    )


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
        self.nodes = 0
        # Choosing u gives one arrival to each neighbor and self_gain(mode, k,
        # 0) to u itself, so v is satisfied iff count[v] >= k; an undecided v
        # settles itself with one pick iff self_gain >= k - count[v].
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
        self.count = [0] * self.g.n
        return self._dfs(target, everyone, everyone)

    def _dfs(self, budget: int, undecided: int, unsat: int) -> list[int] | None:
        """chosen plus at most budget more picks that satisfy everyone, or None.

        undecided: the vertices neither chosen nor excluded on this branch.
        unsat: the vertices with count < k.  A budget of 0 needs no case of
        its own: the counting prune below cuts it.
        """
        self.nodes += 1
        if not unsat:
            return list(self.chosen)
        k = self.k
        count = self.count
        providers = self.providers
        gain = self.self_gain
        rest = unsat
        if budget == 1:
            # One pick left: it must settle each unsatisfied v alone, so it
            # is a provider of v when v lacks one arrival, or else v itself
            # when its self-gain covers what it lacks.  The search would try
            # its branch vertex's undecided providers in id order and reach
            # the lowest such pick first, so that pick is its answer too.
            settle = undecided
            while rest and settle:
                bit = rest & -rest
                rest ^= bit
                v = bit.bit_length() - 1
                if count[v] == k - 1:
                    settle &= providers[v]
                elif gain >= k - count[v]:
                    settle &= bit
                else:
                    return None
            if not settle:
                return None
            return [*self.chosen, (settle & -settle).bit_length() - 1]
        # Feasibility prune, and pick the most-constrained vertex: the first,
        # in id order, with the fewest remaining ways to be satisfied.
        fewest = self.g.n + 1
        open_deficit = 0
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            avail = providers[v] & undecided
            n_avail = avail.bit_count()
            deficit = k - count[v]
            open_deficit += deficit
            # An undecided v whose self-gain covers its deficit can settle
            # itself with one pick; any other v needs deficit more in avail.
            if not (undecided & bit and gain >= deficit) and (n_avail < deficit or deficit > budget):
                return None
            if n_avail < fewest:
                fewest, branch_bit, branch_avail, branch_deficit = n_avail, bit, avail, deficit
        # Counting prune: budget more picks close at most budget * pick_gain
        # of the open deficit.  It also cuts a budget of 0.
        if open_deficit > budget * self.pick_gain:
            return None
        # Branch on the lowest id among the branch vertex's undecided
        # providers; avail is never empty, since an empty avail is pruned
        # above and an undecided v is its own provider.
        ubit = branch_avail & -branch_avail
        u = ubit.bit_length() - 1
        # Excluding u leaves the branch vertex fewest - 1 providers, so that
        # child is dead when it needs them all, unless the branch vertex is
        # undecided, is not u, and can settle itself.
        dead_exclude = branch_deficit >= fewest and not (
            undecided & branch_bit and ubit != branch_bit and gain >= branch_deficit
        )
        # Include u.
        chosen = self.chosen
        row = self.g.adjacency[u]
        chosen.append(u)
        count[u] += gain
        left = unsat & ~ubit if count[u] >= k else unsat
        for w in row:
            count[w] += 1
            if count[w] == k:
                left ^= 1 << w
        found = self._dfs(budget - 1, undecided ^ ubit, left)
        chosen.pop()
        count[u] -= gain
        for w in row:
            count[w] -= 1
        if found is not None or dead_exclude:
            return found
        # Exclude u.
        return self._dfs(budget, undecided ^ ubit, unsat)
