"""Immutable undirected graphs on vertex ids 0..n-1.

Vertices are plain ints.  A graph's only neighbourhood state is adjacency, one
ascending tuple of neighbour ids per vertex; neighbors() and
closed_neighborhood() build their frozensets from it when called.
"""

from __future__ import annotations

__all__ = ["MAX_VERTICES", "GraphError", "Graph"]

import hashlib
from bisect import bisect_right
from typing import Iterable, Iterator

# The most vertices a Graph may have.  Graph() checks it before any
# per-vertex allocation, so a header such as "p edge 1000000000 0" fails at
# once instead of building a billion rows.  ledger.build_ledger caps a run's
# n * k arrivals by the same number.
MAX_VERTICES = 10**7


class GraphError(ValueError):
    """Raised for invalid graph construction input."""


def check_vertex_count(n: int) -> None:
    """Raise GraphError unless 1 <= n <= MAX_VERTICES."""
    if n < 1:
        raise GraphError(f"graph needs at least one vertex, got n={n}")
    if n > MAX_VERTICES:
        raise GraphError(f"{n} vertices exceed the cap of {MAX_VERTICES}")


class Graph:
    """Undirected simple graph with a fixed vertex range 0..n-1.

    adjacency[v] is the ascending tuple of v's neighbours.  Self-loops are
    rejected, duplicate edges collapse to one, and n must be in
    1..MAX_VERTICES; edges is read once, after n is checked.  Instances are
    immutable after construction and safe to share across threads/processes.
    """

    __slots__ = ("n", "m", "adjacency", "_fingerprint")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        check_vertex_count(n)
        # Plain lists while reading; duplicates collapse one row at a time,
        # so only one set is live at once.
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u} is not allowed")
            rows[u].append(v)
            rows[v].append(u)
        self.n = n
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(row))) for row in rows
        )
        self.m = sum(map(len, self.adjacency)) // 2
        self._fingerprint: tuple[int, int, str] | None = None

    # -- basic queries ------------------------------------------------------

    def edges(self) -> Iterator[tuple[int, int]]:
        """Distinct edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max(len(a) for a in self.adjacency)

    def min_degree(self) -> int:
        return min(len(a) for a in self.adjacency)

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood: the set of vertices adjacent to v."""
        self._check_vertex(v)
        return frozenset(self.adjacency[v])

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        """Closed neighborhood: v together with its neighbors."""
        self._check_vertex(v)
        return frozenset((v, *self.adjacency[v]))

    # -- identity ------------------------------------------------------------

    def fingerprint(self) -> tuple[int, int, str]:
        """(n, m, digest) identifying the graph up to exact adjacency equality."""
        if self._fingerprint is None:
            # One payload: the header, then "u,v;" for each edge in edges()
            # order, joined one row at a time from the decimal names.
            names = list(map(str, range(self.n)))
            parts = [f"n={self.n};m={self.m};"]
            for u, row in enumerate(self.adjacency):
                higher = row[bisect_right(row, u) :]
                if higher:
                    name = names[u]
                    edges = (";" + name + ",").join([names[v] for v in higher])
                    parts.append(name + "," + edges + ";")
            digest = hashlib.sha256("".join(parts).encode()).hexdigest()[:16]
            # Lazy cache; the only mutation after __init__.
            self._fingerprint = (self.n, self.m, digest)
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- helpers --------------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} outside 0..{self.n - 1}")
