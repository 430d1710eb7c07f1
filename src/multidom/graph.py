"""Immutable undirected graphs on vertex ids 0..n-1.

Vertices are plain ints.  A graph's only neighbourhood state is adjacency, one
ascending tuple of neighbour ids per vertex.

Every Graph(n, edges) is built by one bulk pass, _adjacency.  It appends each
edge to both rows with no per-edge check, keeps a row that is already strictly
ascending as it is (only the other rows are deduplicated and sorted), and then
reads any bad edge off the rows:
* an id of n or more, or below -n, fails the append;
* any other negative id indexes a row from the end and is itself appended
  to its partner's row, whose least entry is then negative;
* a self-loop, or such a wrapped id, puts v into row v.
Only then are the edges scanned again in input order, so the error names the
first bad edge, as a check of each edge before its append would.
"""

from __future__ import annotations

__all__ = ["MAX_VERTICES", "GraphError", "Graph"]

import hashlib
from bisect import bisect_left, bisect_right
from operator import lt
from typing import Iterable

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

    adjacency[v] is the ascending tuple of v's neighbours.  Endpoints are
    ints (a bool, or any type with __index__, counts as one), self-loops are
    rejected, duplicate edges collapse to one, and n must be in
    1..MAX_VERTICES.  edges is read after n is checked, and read a second
    time only to name a bad edge; a one-pass iterator is copied into a list
    first.  Instances are immutable after construction and safe to share
    across threads/processes.
    """

    __slots__ = ("n", "m", "adjacency", "_fingerprint", "_max_degree", "_min_degree")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        check_vertex_count(n)
        self.n = n
        self.adjacency: tuple[tuple[int, ...], ...] = _adjacency(n, edges)
        self.m = sum(map(len, self.adjacency)) // 2
        # Lazy caches, set on first use; the only mutations after __init__.
        self._fingerprint: tuple[int, int, str] | None = None
        self._max_degree: int | None = None
        self._min_degree: int | None = None

    # -- basic queries ------------------------------------------------------

    def max_degree(self) -> int:
        if self._max_degree is None:
            self._max_degree = max(map(len, self.adjacency))
        return self._max_degree

    def min_degree(self) -> int:
        if self._min_degree is None:
            self._min_degree = min(map(len, self.adjacency))
        return self._min_degree

    # -- identity ------------------------------------------------------------

    def fingerprint(self) -> tuple[int, int, str]:
        """(n, m, digest) identifying the graph up to exact adjacency equality."""
        if self._fingerprint is None:
            # One payload: the header, then "u,v;" for each edge in edge_text order.
            payload = f"n={self.n};m={self.m};" + self.edge_text(0, "", ",", ";")
            digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
            self._fingerprint = (self.n, self.m, digest)
        return self._fingerprint

    def edge_text(self, base: int, before: str, between: str, after: str) -> str:
        """before + u + between + v + after for each edge (u, v), u < v, in
        lexicographic order, with ids written in decimal from base: 0 gives
        the ids, 1 the 1-based ids.  It joins one adjacency row at a time from
        precomputed names instead of formatting each edge."""
        names = list(map(str, range(base, self.n + base)))
        parts = []
        for u, row in enumerate(self.adjacency):
            higher = row[bisect_right(row, u) :]
            if higher:
                head = before + names[u] + between
                parts.append(head + (after + head).join([names[v] for v in higher]) + after)
        return "".join(parts)

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


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """The ascending, duplicate-free neighbour rows of the graph on 0..n-1
    with these edges; GraphError names the first bad edge in input order."""
    if iter(edges) is edges:  # a one-pass iterator: keep it for the rescan
        edges = list(edges)
    rows: list[list[int]] = [[] for _ in range(n)]
    try:
        for u, v in edges:
            rows[u].append(v)
            rows[v].append(u)
    except (IndexError, TypeError, ValueError):
        # An id of n or more or below -n, or an edge that is not a pair of ints.
        _raise_first_bad_edge(n, edges)
        raise
    adjacency = tuple(
        tuple(row) if all(map(lt, row, row[1:])) else tuple(sorted(set(row))) for row in rows
    )
    # Every other bad edge left a negative id or v itself in some row v, so
    # the rescan below always raises.
    for v, row in enumerate(adjacency):
        at = bisect_left(row, v)
        if (row and row[0] < 0) or row[at : at + 1] == (v,):
            _raise_first_bad_edge(n, edges)
    return adjacency


def _raise_first_bad_edge(n: int, edges: Iterable[tuple[int, int]]) -> None:
    """Raise for the first edge, in input order, that is not a pair of ints
    in 0..n-1 or is a self-loop; return if there is none."""
    for u, v in edges:
        if not (hasattr(u, "__index__") and hasattr(v, "__index__")):  # cannot index a row
            raise GraphError(f"edge ({u!r}, {v!r}) has an endpoint that is not an int")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u} is not allowed")
