"""Hypergraphs with multiset hyperedge lists on vertices 0..n-1, each
keeping its one line graph (Hypergraph._line_graph, a SimpleGraph of
neighbourhood masks built from the hyperedges), and their subhypergraphs,
all built by without(positions).  The masks are the one record of which
hyperedges meet: stats().linear is read from them, and every component
walk in the package (stats().connected's, the oracle's and Brooks'
colorer's) is a rank mask on them flooded by transforms._component_masks;
the components of the whole graph are flooded once and kept
(Hypergraph._components).  The oracle searches h less some positions as
masks on them too."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .transforms import SimpleGraph, _component_masks


class UnsupportedInputError(ValueError):
    """Raised when an operation does not apply to the given instance shape."""


@dataclass(frozen=True)
class HypergraphStats:
    """Scalar invariants of a hypergraph, as computed by Hypergraph.stats().

    rank/antirank are None when there are no hyperedges.  uniform_k is the
    common hyperedge size when all sizes agree (None otherwise), regular_d
    the common vertex degree when all degrees agree.  two_section_max_degree
    is the maximum degree of the two-section multigraph, i.e. the largest
    value of sum(len(e) - 1 for e containing x) over vertices x.  linear:
    no two positions share two vertices, so a duplicated hyperedge of size
    >= 2 breaks it and duplicated loops do not; it compares the pairs of
    positions through each vertex with the pairs that meet, the line
    graph's edges.  connected: at most one line-graph component, an
    isolated vertex being a component of its own.  Both build the line
    graph on the first call.
    """

    n: int
    m: int
    rank: Optional[int]
    antirank: Optional[int]
    max_degree: int
    min_degree: int
    loopless: bool
    linear: bool
    uniform_k: Optional[int]
    regular_d: Optional[int]
    connected: bool
    two_section_max_degree: int


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph: n vertices and an ordered multiset of hyperedges.

    Hyperedges live at positions 0..m-1 of a sequence; two positions may
    hold equal vertex sets, and every position counts separately for
    degrees, the two-section and the line graph.  Vertices are the integers
    0..n-1, each an int (not a bool or a float).  Loops (size-one hyperedges)
    are allowed; empty hyperedges are rejected.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count {n!r} is not a non-negative int")
        normalized = []
        for pos, edge in enumerate(edges):
            try:
                vs = tuple(sorted(edge))
            except TypeError:
                raise ValueError(f"hyperedge {pos} is not a set of int vertices") from None
            if not vs:
                raise ValueError(f"hyperedge {pos} is empty")
            for i, v in enumerate(vs):
                if type(v) is not int or not 0 <= v < n:
                    raise ValueError(
                        f"hyperedge {pos} contains vertex {v!r}, not an int in 0..{n - 1}"
                    )
                if i and vs[i - 1] == v:
                    raise ValueError(f"hyperedge {pos} repeats vertex {v}")
            normalized.append(vs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _incidence(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for pos, edge in enumerate(self.edges):
            for v in edge:
                inc[v].append(pos)
        return tuple(tuple(positions) for positions in inc)

    @cached_property
    def _line_graph(self) -> SimpleGraph:
        """The line graph, the one record of which hyperedges meet.  The
        positions' meeting masks give the degrees (popcount less one),
        hence the ranks; the same masks over ranks, less each position's
        own bit, are the neighbourhoods.
        """
        met = _meeting_masks(self.n, self.edges)
        order = sorted(range(self.m), key=lambda p: (-met[p].bit_count(), p))
        rank = [0] * self.m
        for i, p in enumerate(order):
            rank[p] = i
        ranked = _meeting_masks(self.n, [self.edges[p] for p in order])
        nb = tuple(mask ^ (1 << i) for i, mask in enumerate(ranked))
        return SimpleGraph(tuple(order), tuple(rank), nb)

    @cached_property
    def _components(self) -> tuple[int, ...]:
        """The rank masks of the line graph's components, flooded once:
        stats().connected counts them, and the oracle, the criticality
        table's search and Brooks' colorer walk them."""
        return tuple(_component_masks(self._line_graph, (1 << self.m) - 1))

    def incident(self, x: int) -> tuple[int, ...]:
        """Positions of the hyperedges containing vertex x, ascending."""
        if type(x) is not int or not 0 <= x < self.n:
            raise IndexError(f"vertex {x!r} not an int in 0..{self.n - 1}")
        return self._incidence[x]

    def hyperedge_degree(self, i: int) -> int:
        """Number of other positions whose hyperedge meets hyperedge i.

        Duplicate hyperedges count once per position, so a pair of equal
        edges contributes 1 to each other's degree.  It is the popcount of
        position i's line-graph mask.
        """
        self._check_position(i)
        g = self._line_graph
        return g.nb[g.rank[i]].bit_count()

    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees indexed by vertex."""
        return tuple(len(positions) for positions in self._incidence)

    def remove_hyperedge(self, i: int) -> "Hypergraph":
        """The hypergraph on the same vertices with position i deleted."""
        return self.without({i})

    def without(self, positions: Iterable[int]) -> "Hypergraph":
        """The hypergraph on the same vertices without the given positions.

        The other hyperedges keep their order and are not validated again;
        without any position it is this hypergraph itself, line graph and
        all.
        """
        gone = set(positions)
        for i in gone:
            self._check_position(i)
        if not gone:
            return self
        return _presorted(
            self.n, tuple(e for p, e in enumerate(self.edges) if p not in gone)
        )

    def stats(self) -> HypergraphStats:
        """The scalar invariants, computed on the first call and then kept."""
        return self._stats

    @cached_property
    def _stats(self) -> HypergraphStats:
        degs = self.degrees()
        max_deg = max(degs, default=0)
        min_deg = min(degs, default=0)
        sizes = [len(e) for e in self.edges]
        # A hyperedge e through x gives x, in the two-section, a multi-edge
        # to each of its other len(e) - 1 vertices.
        two_section_degs = [
            sum(sizes[p] for p in positions) - len(positions)
            for positions in self._incidence
        ]
        return HypergraphStats(
            n=self.n,
            m=self.m,
            rank=max(sizes, default=None),
            antirank=min(sizes, default=None),
            max_degree=max_deg,
            min_degree=min_deg,
            loopless=all(size >= 2 for size in sizes),
            # An ordered pair of positions counts once per vertex it shares
            # on the left and once if it meets on the right, so the sides
            # are equal iff no pair shares two vertices.
            linear=sum(d * (d - 1) for d in degs)
            == sum(mask.bit_count() for mask in self._line_graph.nb),
            uniform_k=sizes[0] if sizes and len(set(sizes)) == 1 else None,
            regular_d=max_deg if max_deg == min_deg else None,
            # An isolated vertex is a component without a hyperedge.
            connected=len(self._components) + degs.count(0) <= 1,
            two_section_max_degree=max(two_section_degs, default=0),
        )

    def _check_position(self, i: int) -> None:
        if type(i) is not int or not 0 <= i < self.m:
            raise IndexError(f"hyperedge position {i!r} not an int in 0..{self.m - 1}")


def _presorted(n: int, edges: tuple[tuple[int, ...], ...]) -> Hypergraph:
    """The hypergraph on vertices 0..n-1 with these hyperedges as they
    stand, each already a sorted tuple of distinct ints in 0..n-1: the
    parser, the random draws and without() have checked them once, so
    Hypergraph.__init__ does not check them again."""
    h = object.__new__(Hypergraph)
    object.__setattr__(h, "n", n)
    object.__setattr__(h, "edges", edges)
    return h


def _meeting_masks(n: int, edges: Sequence[tuple[int, ...]]) -> list[int]:
    """Mask i has bit j set iff hyperedges i and j share a vertex, bit i
    included: each vertex ORs in the bits of its hyperedges, and each
    hyperedge ORs its vertices' masks.  The vertex masks are a list, or a
    dict when the vertices outnumber the incidences (a small part of a
    large hypergraph), so the work is bounded by the edges, not by n."""
    at = [0] * n if n <= sum(map(len, edges)) else defaultdict(int)
    for i, edge in enumerate(edges):
        bit = 1 << i
        for v in edge:
            at[v] |= bit
    masks = []
    for edge in edges:
        mask = 0
        for v in edge:
            mask |= at[v]
        masks.append(mask)
    return masks
