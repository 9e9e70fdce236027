"""The line graph of a hypergraph: the one graph the package works on.

The line graph's rows (the positions each hyperedge meets) are a cached
fact of the Hypergraph and the one record of which hyperedges meet;
line_graph only wraps them, so a hypergraph builds them once and a
subhypergraph made by Hypergraph.without inherits them, cut down by
core._restricted_rows as induced subgraphs are.  A SimpleGraph is made
only from such rows: the line graph itself, or an induced subgraph of it
(a component, for the oracle and Brooks' colorer).  It keeps one more
cached fact, its rows as bitmasks (SimpleGraph._bit_view), which the
oracle reads.  The two-section's facts (its maximum degree and whether
it is simple) are hypergraph invariants, read from Hypergraph.stats().
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import Hypergraph, _restricted_rows


@dataclass(frozen=True, init=False)
class SimpleGraph:
    """An undirected simple graph on vertices 0..n-1, kept as sorted
    adjacency rows: a line graph or an induced subgraph of one."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def _from_rows(cls, adj: tuple[tuple[int, ...], ...]) -> "SimpleGraph":
        """The graph with these rows, trusted to be a symmetric, loopless
        adjacency with each row ascending; nothing is checked or copied."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(adj))
        object.__setattr__(g, "adj", adj)
        return g

    @cached_property
    def _bit_view(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(order, rank, nb): the vertices ranked by degree descending, then
        index ascending, as order[i] = v and rank[v] = i; nb[i] is the
        neighbourhood of order[i] as an int whose bit j stands for rank j.

        Built on the first use and kept, so the oracle's greedy coloring,
        clique and search on one graph share it.  The lowest set bit of a
        mask is the highest-degree, then lowest-numbered, vertex in it.
        """
        adj = self.adj
        order = sorted(range(self.n), key=lambda v: (-len(adj[v]), v))
        rank = [0] * self.n
        for i, v in enumerate(order):
            rank[v] = i
        bit = [1 << i for i in rank]
        nb = tuple(sum(map(bit.__getitem__, adj[v])) for v in order)
        return tuple(order), tuple(rank), nb

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

        Its rows are cut down by core._restricted_rows, as those that
        Hypergraph.without hands down are.  All vertices in their own order
        give the graph itself, which is frozen, so it is shared.
        """
        if vertices == tuple(range(self.n)):
            return self
        return SimpleGraph._from_rows(_restricted_rows(self.adj, vertices))


def line_graph(h: Hypergraph) -> SimpleGraph:
    """The intersection graph of the hyperedge positions of h.

    Vertex i stands for position i; i and j are adjacent iff the hyperedges
    share a vertex.  Equal hyperedges at distinct positions are adjacent,
    so the line graph has as many vertices as h has positions.  Its rows
    are h's own, built on the first call and kept (see Hypergraph.without),
    so later calls on h cost no more than the wrapper.
    """
    return SimpleGraph._from_rows(h._line_rows)
