"""The line graph of a hypergraph: the one graph the package works on.

The line graph is a cached fact of the Hypergraph (Hypergraph._line_graph),
built from its incidence lists on first use and the one record of which
hyperedges meet; line_graph returns that same object, so a hypergraph
builds it once.  A subhypergraph made by Hypergraph.without inherits it
as an induced subgraph, and SimpleGraph.induced is the one routine that
cuts rows down.  A SimpleGraph is made only from such rows: the line
graph itself, or an induced subgraph of it (a component, for the oracle
and Brooks' colorer).  It keeps one more cached fact, its rows as
bitmasks (SimpleGraph._bit_view), which the oracle reads, so every search
on one hypergraph's graph shares it.  The two-section's facts (its
maximum degree and whether it is simple) are hypergraph invariants, read
from Hypergraph.stats().
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core import Hypergraph


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph on vertices 0..n-1, kept as sorted
    adjacency rows: a line graph or an induced subgraph of one.  The rows
    are trusted to be a symmetric, loopless adjacency with each row
    ascending; nothing is checked or copied."""

    adj: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.adj)

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

        Hypergraph.without hands its line graph down through here.  All
        vertices in their own order give the graph itself, which is
        frozen, so it is shared.
        """
        if vertices == tuple(range(self.n)):
            return self
        index = [-1] * self.n
        for new, v in enumerate(vertices):
            index[v] = new
        adj = self.adj
        cut = [[k for w in adj[v] if (k := index[w]) >= 0] for v in vertices]
        # index is increasing on ascending vertices, so their rows stay sorted.
        if any(a > b for a, b in zip(vertices, vertices[1:])):
            for row in cut:
                row.sort()
        return SimpleGraph(tuple(map(tuple, cut)))


def line_graph(h: Hypergraph) -> SimpleGraph:
    """The intersection graph of the hyperedge positions of h.

    Vertex i stands for position i; i and j are adjacent iff the hyperedges
    share a vertex.  Equal hyperedges at distinct positions are adjacent,
    so the line graph has as many vertices as h has positions.  It is h's
    own, built on the first call and kept (see Hypergraph.without), so
    every call on h returns the same graph.
    """
    return h._line_graph
