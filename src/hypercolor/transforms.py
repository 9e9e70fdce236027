"""The line graph of a hypergraph, and the simple graphs it is kept as.

The two-section's facts (its maximum degree and whether it is simple)
are hypergraph invariants, read from Hypergraph.stats().
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .core import Hypergraph


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph on vertices 0..n-1, kept as sorted adjacency."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        neighbor_sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) leaves 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "adj", tuple(tuple(sorted(s)) for s in neighbor_sets)
        )

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(nb) for nb in self.adj), default=0)

    def connected_components(self) -> list[tuple[int, ...]]:
        """Vertex sets of the components, each ascending, by smallest vertex."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            stack = [start]
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self.adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(tuple(sorted(comp)))
        return comps

    def induced(self, vertices: tuple[int, ...]) -> "SimpleGraph":
        """The induced subgraph; local vertex i stands for vertices[i].

        All vertices in their own order give the graph itself, which is
        frozen, so it is shared rather than copied.
        """
        if vertices == tuple(range(self.n)):
            return self
        index = {v: i for i, v in enumerate(vertices)}
        pairs = [
            (index[u], index[v])
            for u in vertices
            for v in self.adj[u]
            if u < v and v in index
        ]
        return SimpleGraph(len(vertices), pairs)


def line_graph(h: Hypergraph) -> SimpleGraph:
    """The intersection graph of the hyperedge positions of h.

    Vertex i stands for position i; i and j are adjacent iff the hyperedges
    share a vertex.  Equal hyperedges at distinct positions are adjacent,
    so the line graph has as many vertices as h has positions.  Built from
    the positions through each vertex, so the cost is the number of such
    pairs; two hyperedges sharing several vertices give one edge.
    """
    pairs = (
        pair for x in range(h.n) for pair in combinations(h.incident(x), 2)
    )
    return SimpleGraph(h.m, pairs)
