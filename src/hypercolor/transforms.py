"""The line graph of a hypergraph: the one graph the package works on.

The line graph is a cached fact of the Hypergraph (Hypergraph._line_graph),
built from its hyperedges on first use as ranked neighbourhood masks, the
one record of which hyperedges meet; line_graph returns that same object,
so a hypergraph builds it once.  A component, for the oracle and Brooks'
colorer, is the line graph of the subhypergraph on its positions
(Hypergraph._keeping), which builds its own.  The oracle, first fit and
Brooks' colorer walk the masks' set bits (_ranks), not rows; adj derives
rows for the tests and the benchmark.  The two-section's facts (maximum
degree, simplicity) are hypergraph invariants in Hypergraph.stats().
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .core import Hypergraph


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph on vertices 0..n-1, kept as ranked
    neighbourhood masks: order[i] = v and rank[v] = i rank the vertices by
    degree descending, then index ascending, and nb[i] is the neighbourhood
    of order[i] as an int whose bit j stands for rank j.  The lowest set
    bit of a mask is the highest-degree, then lowest-numbered, vertex in
    it.  The masks are trusted to be symmetric and loopless; nothing is
    checked or copied."""

    order: tuple[int, ...]
    rank: tuple[int, ...]
    nb: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.order)

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """The adjacency rows, each ascending, derived from the masks on
        the first read and kept, for the tests and the benchmark's edge
        count; no package code reads them.  Each edge is read once, from
        the mask of its lower rank, shifted down past each bit as it is
        taken."""
        order = self.order
        rows: list[list[int]] = [[] for _ in order]
        for i, mask in enumerate(self.nb):
            v = order[i]
            mask >>= i + 1
            j = i
            while mask:
                step = (mask & -mask).bit_length()
                j += step
                mask >>= step
                rows[v].append(order[j])
                rows[order[j]].append(v)
        return tuple(tuple(sorted(row)) for row in rows)


def _ranks(mask: int) -> list[int]:
    """The set bits of mask, ascending."""
    ranks = []
    while mask:
        low = mask & -mask
        ranks.append(low.bit_length() - 1)
        mask ^= low
    return ranks


def line_graph(h: Hypergraph) -> SimpleGraph:
    """The intersection graph of the hyperedge positions of h.

    Vertex i stands for position i; i and j are adjacent iff the hyperedges
    share a vertex.  Equal hyperedges at distinct positions are adjacent,
    so the line graph has as many vertices as h has positions.  It is h's
    own, built on the first call and kept, so every call on h returns the
    same graph.
    """
    return h._line_graph
