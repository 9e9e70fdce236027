"""Exact chromatic indices under an explicit search budget.

The chromatic index of a hypergraph is the chromatic number of its line
graph, and the solver is a saturation-guided branch and bound on each
component of that graph, which is the line graph of the subhypergraph on
the component's positions.  It either proves an exact value or, when the
budget runs out, returns an honest bracket [lower, upper] together with
a proper coloring achieving the upper end; it never reports a wrong
exact value.  The search is deterministic, so an exact answer never
changes when the budget is enlarged, and node counts are reproducible
(wall-clock cutoffs aside).

The search is iterative, on an explicit stack, so its depth is not tied
to the interpreter's recursion limit.  It runs on bitsets, in the manner
of San Segundo et al.'s bit-parallel colorings: a SimpleGraph is its
ranked neighbourhood masks, the vertices ranked by degree, then number,
and each neighbourhood an int mask over the ranks.  A mask per
color marks the vertices with a neighbour of that color, and the
saturations are a bit-sliced counter, so coloring or uncoloring a vertex
and picking the next one (DSATUR's most saturated, then highest-degree,
then lowest-numbered vertex) cost a few big-integer operations each,
not a loop over neighbours.  DSATUR's starting coloring and the greedy
clique read the same masks, and line_graph(h) is the hypergraph's one
cached graph, so a later search or clique on h reads it too.  The search
visits the same nodes in the same order as the recursive, set-rebuilding
search (tests/brute.py keeps that one as the reference), so node counts,
brackets and witnesses are unchanged from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .coloring import Coloring, _renumbered, is_proper
from .core import Hypergraph
from .transforms import SimpleGraph, _ranks, line_graph


@dataclass(frozen=True)
class Budget:
    """Per-call search allowance: branch nodes and wall-clock seconds.

    A search visits at most max_nodes nodes; at max_nodes=0 it visits
    none, and each component is bracketed by its greedy clique and its
    starting (DSATUR) coloring.  time_limit=None disables the clock; node limits
    alone keep results machine-independent.
    """

    max_nodes: int = 10_000_000
    time_limit: Optional[float] = 30.0


class _BudgetExhausted(Exception):
    pass


class _SearchState:
    def __init__(self, budget: Budget):
        self.nodes = 0
        self._max_nodes = budget.max_nodes
        self._deadline = (
            time.monotonic() + budget.time_limit
            if budget.time_limit is not None
            else None
        )

    def tick(self) -> None:
        if self.nodes >= self._max_nodes:
            raise _BudgetExhausted
        self.nodes += 1
        if (
            self._deadline is not None
            and (self.nodes & 1023) == 0
            and time.monotonic() > self._deadline
        ):
            # Every later tick refuses before it counts, as after a node cut.
            self._max_nodes = self.nodes
            raise _BudgetExhausted


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exact-coloring search.

    lower <= q <= upper always holds; witness is a proper coloring of the
    hyperedges with exactly `upper` colors, indexed by position.  exact is
    the value when the bracket is tight, None when the budget ran out
    first.  nodes, the branch nodes visited, never exceeds the budget's
    max_nodes.
    """

    lower: int
    upper: int
    witness: Coloring
    nodes: int

    @property
    def exact(self) -> Optional[int]:
        return self.upper if self.lower == self.upper else None

    # The package reads exact; of the program only bench/tracing.py reads this.
    @property
    def complete(self) -> bool:
        return self.lower == self.upper


class _BitSaturation:
    """DSATUR's saturation on a graph's neighbourhood masks (SimpleGraph.nb).

    Masks are over ranks.  seen[c] holds the vertices with a neighbour
    colored c, and the saturation of each vertex (its number of distinct
    neighbour colors) is kept bit-sliced: bit i of planes[j] is bit j of
    the count of rank i.  uncolored holds the ranks without a color.
    assign returns the mask it newly saturated with c; the search undoes
    assignments last in, first out, so unassign with that mask restores
    seen[c] and the counts exactly.  colors bounds every color assigned,
    hence every count.
    """

    __slots__ = ("nb", "seen", "planes", "uncolored")

    def __init__(self, nb: tuple[int, ...], colors: int):
        self.nb = nb
        self.seen = [0] * (colors + 1)
        self.planes = [0] * colors.bit_length()
        self.uncolored = (1 << len(nb)) - 1

    def pick(self) -> int:
        """The uncolored rank with the largest (sat, degree, -vertex).

        Narrowing the uncolored mask plane by plane from the top leaves the
        ties at the highest saturation; their lowest rank has the highest
        degree, then the lowest number.
        """
        ties = self.uncolored
        for plane in reversed(self.planes):
            top = ties & plane
            if top:
                ties = top
        return (ties & -ties).bit_length() - 1

    def assign(self, i: int, c: int) -> int:
        x = self.nb[i] & ~self.seen[c]
        self.seen[c] |= x
        self.uncolored ^= 1 << i
        planes = self.planes
        carry, j = x, 0
        while carry:
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j += 1
        return x

    def unassign(self, i: int, c: int, x: int) -> None:
        self.seen[c] ^= x
        self.uncolored |= 1 << i
        planes = self.planes
        borrow, j = x, 0
        while borrow:
            plane = planes[j]
            planes[j] = plane ^ borrow
            borrow &= ~plane
            j += 1


def _dsatur_greedy(g: SimpleGraph) -> list[int]:
    """Greedy coloring picking the most saturated vertex first."""
    order, nb = g.order, g.nb
    colors = [0] * g.n
    # A vertex of degree d never needs a color above d + 1; rank 0, of the
    # largest degree, exists, as a component is never empty.
    sat = _BitSaturation(nb, nb[0].bit_count() + 1)
    seen = sat.seen
    for _ in range(g.n):
        i = sat.pick()
        c = 1
        while seen[c] >> i & 1:
            c += 1
        colors[order[i]] = c
        sat.assign(i, c)
    return colors


def greedy_clique(g: SimpleGraph) -> list[int]:
    """A maximal clique grown by highest degree into the candidate set.

    Its size is a certified lower bound on the chromatic number; the
    search below starts from it, and a component the budget leaves
    unsearched takes it as its lower end.  While every vertex is a
    candidate the count is the degree, so the first pick is the
    lowest-numbered vertex of maximum degree, rank 0 of the masks;
    later counts are popcounts of the candidates within a neighbourhood,
    ties going to the lowest-numbered vertex.
    """
    if not g.n:
        return []
    order, nb = g.order, g.nb
    clique = [0]
    cand = nb[0]
    while cand:
        pick = max(_ranks(cand), key=lambda i: ((cand & nb[i]).bit_count(), -order[i]))
        clique.append(pick)
        cand &= nb[pick]
    return [order[i] for i in clique]


def _component_chromatic(
    g: SimpleGraph, state: _SearchState, incumbent: Optional[list[int]] = None
) -> tuple[int, int, list[int]]:
    """(lower, upper, coloring achieving upper) for a connected graph.

    Depth-first branch and bound on an explicit stack, so deep searches
    need no recursion.  The search colors ranks of the masks.  A frame
    is [rank, next color to try, colors used on entry, color limit, the
    mask its current color saturated], the limit fixed when the frame is
    entered.
    The search starts from the incumbent, a proper coloring 1..k, when it
    uses fewer colors than DSATUR.  A lower start bound only narrows each
    frame's color limit, so it prunes the same search tree: it never
    visits a node the unseeded search would not.
    """
    best = _dsatur_greedy(g)
    if incumbent is not None and max(incumbent) < max(best):
        best = incumbent
    best_count = max(best)
    clique = greedy_clique(g)
    lb = len(clique)
    if lb == best_count:
        return lb, best_count, best

    # Search colors stay below the incumbent.
    rank, nb = g.rank, g.nb
    sat = _BitSaturation(nb, best_count - 1)
    seen, assign, unassign, pick = sat.seen, sat.assign, sat.unassign, sat.pick
    colors = [0] * g.n
    for idx, v in enumerate(clique):
        colors[rank[v]] = idx + 1
        assign(rank[v], idx + 1)
    free = g.n - lb
    stack: list[list[int]] = []
    used = lb
    try:
        while True:
            state.tick()
            if len(stack) == free:
                if used < best_count:
                    best_count = used
                    best = [colors[i] for i in rank]
            else:
                # Colors beyond used+1 are interchangeable, so trying one of
                # them suffices; anything at or above the incumbent cannot
                # improve it.  (Here and below, a comparison in place of
                # min and max saves a call per node.)
                limit = used + 1 if used + 1 < best_count else best_count - 1
                stack.append([pick(), 1, used, limit, 0])
            # Back up to the deepest frame with a color left, and take it.
            while stack:
                frame = stack[-1]
                i, c, used, limit, saturated = frame
                if colors[i]:
                    unassign(i, colors[i], saturated)
                    colors[i] = 0
                    if best_count == lb:
                        stack.pop()
                        continue
                while c <= limit and seen[c] >> i & 1:
                    c += 1
                if c > limit:
                    stack.pop()
                    continue
                frame[1] = c + 1
                colors[i] = c
                frame[4] = assign(i, c)
                if c > used:
                    used = c
                break
            if not stack:
                break
    except _BudgetExhausted:
        return lb, best_count, best
    return best_count, best_count, best


def chromatic_index(
    h: Hypergraph, budget: Budget = Budget(), incumbent: Optional[Coloring] = None
) -> OracleResult:
    """Minimum colors for the hyperedges so intersecting ones differ.

    Computed as the chromatic number of the line graph, component by
    component; the witness is indexed by hyperedge position.  The
    components share one budget; once it runs out, each component left is
    bracketed by its greedy clique and its starting coloring.  The
    hyperedges through any one vertex are pairwise intersecting, so an
    open bracket's lower end is raised to the maximum vertex degree; an
    exact value is already at least that.

    incumbent, a proper coloring of the hyperedges, is restricted to each
    component, renumbered 1..k there, and used as that component's
    starting coloring when it beats DSATUR's.  At any node budget it can
    only narrow the bracket and lower the node count, never change an
    exact answer; a coloring that is not proper raises ValueError.
    """
    if incumbent is not None and not is_proper(h, incumbent):
        raise ValueError("incumbent is not a proper coloring of the hyperedges")
    state = _SearchState(budget)
    lower = upper = 0
    witness = [0] * h.m
    for comp in h._components():
        start = (
            None
            if incumbent is None
            else _renumbered([incumbent.colors[v] for v in comp])
        )
        g = line_graph(h._keeping(comp))
        lo, hi, local = _component_chromatic(g, state, start)
        for i, v in enumerate(comp):
            witness[v] = local[i]
        lower = max(lower, lo)
        upper = max(upper, hi)
    if lower < upper:
        lower = max(lower, max(h.degrees()))
    return OracleResult(lower, upper, Coloring(tuple(witness)), state.nodes)


@dataclass(frozen=True)
class EdgeCriticality:
    """One row of a criticality table."""

    position: int
    degree: int
    q_without: Optional[int]
    critical: Optional[bool]


@dataclass(frozen=True)
class CriticalCore:
    """A subhypergraph with the same chromatic index, every edge critical.

    removed lists the original positions deleted, in deletion order.
    complete=False flags a budget interruption: the hypergraph returned is
    then merely an intermediate stage.
    """

    hypergraph: Hypergraph
    complete: bool
    removed: tuple[int, ...]


@dataclass(frozen=True)
class CriticalityReport:
    """Per-hyperedge criticality, plus the key inequality's verdict.

    lemma_ok reports whether q - 1 <= hyperedge degree held for every
    hyperedge whose criticality was decided positively.  That inequality
    holds for every critical e of any hypergraph, loops and duplicate
    edges included: if e's neighbours missed a color of a (q-1)-coloring
    of h - e, e could take that color and h would need only q - 1.  So a
    False here indicates an implementation bug, not a discovery.
    complete is True when q and every row were decided within budget.
    core is the critical core of h with the same q (see
    criticality_report), or None when it was not asked for.
    """

    q: Optional[int]
    entries: tuple[EdgeCriticality, ...]
    complete: bool
    lemma_ok: bool
    core: Optional[CriticalCore]


class _Rows:
    """q(h - deleted - e) for the rows of a table and its extraction.

    Built once from h, its chromatic index q and a proper q-coloring of h.
    The deleted positions are those of h's edges missing from the current
    subhypergraph h', whose chromatic index is q as well.  A row is proved
    without a search by one of three facts of the base search:
    - a vertex of degree q in h none of whose edges is deleted or e leaves
      q pairwise intersecting edges in h' - e, so q(h' - e) >= q, and
      removing an edge never raises q: e is removable;
    - so does a q-clique of h's line graph (greedy_clique) avoiding them;
    - when no other edge of h' has e's color in the base coloring, that
      coloring of h' - e uses q - 1 colors, and one deletion lowers q by
      at most 1, so e is critical.
    Any other row is searched from the base coloring restricted to h' - e,
    which only prunes the search, so a row decided by a plain search
    within the budget is decided here too, with the same value.  The
    candidate h' - e is h.without(...), which builds its own line graph.
    """

    def __init__(self, h: Hypergraph, q: int, witness: Coloring):
        self.h = h
        self.q = q
        self.colors = witness.colors
        # Sets of q pairwise intersecting positions: the edges through a
        # vertex of degree q, and the greedy clique when it has q members.
        # line_graph(h) is the graph the base search ran on when h is connected.
        self.cliques = [set(h.incident(x)) for x, d in enumerate(h.degrees()) if d == q]
        clique = greedy_clique(line_graph(h))
        if len(clique) == q:
            self.cliques.append(set(clique))
        self.classes: dict[int, list[int]] = {}
        for pos, c in enumerate(witness.colors):
            self.classes.setdefault(c, []).append(pos)

    def q_without(self, deleted: list[int], e: int, budget: Budget) -> Optional[int]:
        """q of h without the deleted positions and e; None if undecided."""
        gone = {e, *deleted}
        # q pairwise intersecting edges left make q colors necessary, and
        # no deletion raises q.
        if any(gone.isdisjoint(clique) for clique in self.cliques):
            return self.q
        # The base coloring without e uses q - 1 colors, and one deletion
        # lowers q by at most 1.
        if gone.issuperset(self.classes[self.colors[e]]):
            return self.q - 1
        start = [c for p, c in enumerate(self.colors) if p not in gone]
        return chromatic_index(
            self.h.without(gone), budget, incumbent=Coloring(tuple(_renumbered(start)))
        ).exact


def criticality_report(
    h: Hypergraph, budget: Budget = Budget(), extract: bool = False
) -> CriticalityReport:
    """Tabulate criticality, check q - 1 <= d(e) for critical e, and with
    extract, reduce h to a critical core.

    Each row is q(h - e), decided by proof where the base search gives
    one and searched otherwise (see _Rows).  The lemma check runs on every
    critical row however it was decided.

    The core scans positions once in ascending order and deletes each one
    whose removal keeps q, so it is deterministic.  A row the table proved
    critical is kept without a search: in every subhypergraph h' of h that
    holds e and has the same q, q(h' - e) <= q(h - e) = q - 1.  Before the
    first deletion a row takes the table's value; after it, _Rows decides
    it on the current h'.  An undecided row or q ends the extraction,
    incomplete.  Every hyperedge of a complete core is critical.
    """
    base = chromatic_index(h, budget)
    if base.exact is None:
        core = CriticalCore(h, False, ()) if extract else None
        return CriticalityReport(None, (), False, True, core)
    q = base.exact
    rows = _Rows(h, q, base.witness)
    entries = []
    for i in range(h.m):
        q_without = rows.q_without([], i, budget)
        crit = None if q_without is None else q_without == q - 1
        entries.append(EdgeCriticality(i, h.hyperedge_degree(i), q_without, crit))
    complete = all(e.critical is not None for e in entries)
    lemma_ok = all(q - 1 <= e.degree for e in entries if e.critical)
    core = None
    if extract:
        removed: list[int] = []
        core_complete = True
        for entry in entries:
            if entry.critical is True:
                continue
            q_without = (
                rows.q_without(removed, entry.position, budget)
                if removed
                else entry.q_without
            )
            if q_without is None:
                core_complete = False
                break
            if q_without == q:
                removed.append(entry.position)
        core = CriticalCore(h.without(removed), core_complete, tuple(removed))
    return CriticalityReport(q, tuple(entries), complete, lemma_ok, core)
