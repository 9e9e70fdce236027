"""Exact chromatic numbers under an explicit search budget.

The solver is a saturation-guided branch and bound.  It either proves an
exact value or, when the budget runs out, returns an honest bracket
[lower, upper] together with a proper coloring achieving the upper end;
it never reports a wrong exact value.  The search is deterministic, so
an exact answer never changes when the budget is enlarged, and node
counts are reproducible (wall-clock cutoffs aside).

The search is iterative, on an explicit stack, so its depth is not tied
to the interpreter's recursion limit.  Each vertex keeps counts of the
colors on its neighbours, updated as vertices are colored and uncolored,
so a branch node costs time in the degree of one vertex instead of a
rebuild of every saturation set.  It visits the same nodes in the same
order as the recursive, set-rebuilding search (tests/brute.py keeps that
one as the reference), so node counts, brackets and witnesses are
unchanged from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .coloring import Coloring
from .core import Hypergraph
from .transforms import SimpleGraph, line_graph


@dataclass(frozen=True)
class Budget:
    """Per-call search allowance: branch nodes and wall-clock seconds.

    time_limit=None disables the clock; node limits alone keep results
    machine-independent.
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
        self.nodes += 1
        if self.nodes > self._max_nodes:
            raise _BudgetExhausted
        if (
            self._deadline is not None
            and (self.nodes & 1023) == 0
            and time.monotonic() > self._deadline
        ):
            raise _BudgetExhausted


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exact-coloring search.

    lower <= chi <= upper always holds; witness is a proper coloring with
    exactly `upper` colors (indexed by vertex for chromatic_number, by
    hyperedge position for chromatic_index).  exact is the value when the
    bracket is tight, None when the budget ran out first.
    """

    lower: int
    upper: int
    witness: Coloring
    nodes: int

    @property
    def exact(self) -> Optional[int]:
        return self.upper if self.lower == self.upper else None

    @property
    def complete(self) -> bool:
        return self.lower == self.upper


class _Saturation:
    """Neighbour color counts and the DSATUR pick key, kept incrementally.

    counts[v][c] is the number of neighbours of v holding color c, and
    key[v] = sat*n*n + deg*n + (n-1-v), where sat is the number of distinct
    colors among them: integer order on key is the order of the tuple
    (sat, deg, -v).  A colored vertex's key is lowered by n**3, more than
    any key, so the largest key belongs to an uncolored vertex while one
    is left.  assign and unassign must be called in matching pairs.
    """

    __slots__ = ("adj", "n", "nn", "off", "counts", "key")

    def __init__(self, g: SimpleGraph, slots: int):
        n = g.n
        self.adj = g.adj
        self.n = n
        self.nn = n * n
        self.off = n * n * n
        self.counts = [[0] * slots for _ in range(n)]
        self.key = [len(nb) * n + n - 1 - v for v, nb in enumerate(g.adj)]

    def pick(self) -> int:
        """The uncolored vertex with the largest key."""
        return self.n - 1 - max(self.key) % self.n

    def assign(self, v: int, c: int) -> None:
        key, nn, counts = self.key, self.nn, self.counts
        key[v] -= self.off
        for w in self.adj[v]:
            row = counts[w]
            k = row[c]
            if not k:
                key[w] += nn
            row[c] = k + 1

    def unassign(self, v: int, c: int) -> None:
        key, nn, counts = self.key, self.nn, self.counts
        key[v] += self.off
        for w in self.adj[v]:
            row = counts[w]
            k = row[c] - 1
            row[c] = k
            if not k:
                key[w] -= nn


def _dsatur_greedy(g: SimpleGraph) -> list[int]:
    """Greedy coloring picking the most saturated vertex first."""
    colors = [0] * g.n
    # A vertex of degree d never needs a color above d + 1.
    sat = _Saturation(g, g.max_degree() + 2)
    for _ in range(g.n):
        v = sat.pick()
        row = sat.counts[v]
        c = 1
        while row[c]:
            c += 1
        colors[v] = c
        sat.assign(v, c)
    return colors


def greedy_clique(g: SimpleGraph) -> list[int]:
    """A maximal clique grown by highest degree into the candidate set.

    Its size is a certified lower bound on the chromatic number; the
    search below starts from it, and bracket reports reuse it.
    """
    adj_sets = [set(nb) for nb in g.adj]
    cand = set(range(g.n))
    clique: list[int] = []
    while cand:
        pick = max(cand, key=lambda v: (len(adj_sets[v] & cand), -v))
        clique.append(pick)
        cand &= adj_sets[pick]
    return clique


def _component_chromatic(
    g: SimpleGraph, state: _SearchState
) -> tuple[int, int, list[int]]:
    """(lower, upper, coloring achieving upper) for a connected graph.

    Depth-first branch and bound on an explicit stack, so deep searches
    need no recursion.  A frame is [vertex, next color to try, colors used
    on entry, color limit], the limit fixed when the frame is entered.
    """
    best = _dsatur_greedy(g)
    best_count = max(best)
    clique = greedy_clique(g)
    lb = len(clique)
    if lb == best_count:
        return lb, best_count, best

    # Search colors stay below the incumbent, so it bounds the rows.
    sat = _Saturation(g, best_count + 1)
    counts, assign, unassign, pick = sat.counts, sat.assign, sat.unassign, sat.pick
    colors = [0] * g.n
    for idx, v in enumerate(clique):
        colors[v] = idx + 1
        assign(v, idx + 1)
    free = g.n - lb
    stack: list[list[int]] = []
    used = lb
    try:
        while True:
            state.tick()
            if len(stack) == free:
                if used < best_count:
                    best_count = used
                    best = colors.copy()
            else:
                # Colors beyond used+1 are interchangeable, so trying one of
                # them suffices; anything at or above the incumbent cannot
                # improve it.
                stack.append([pick(), 1, used, min(used + 1, best_count - 1)])
            # Back up to the deepest frame with a color left, and take it.
            while stack:
                frame = stack[-1]
                v, c, used, limit = frame
                if colors[v]:
                    unassign(v, colors[v])
                    colors[v] = 0
                    if best_count == lb:
                        stack.pop()
                        continue
                row = counts[v]
                while c <= limit and row[c]:
                    c += 1
                if c > limit:
                    stack.pop()
                    continue
                frame[1] = c + 1
                colors[v] = c
                assign(v, c)
                used = max(used, c)
                break
            if not stack:
                break
    except _BudgetExhausted:
        return lb, best_count, best
    return best_count, best_count, best


def chromatic_number(
    g: SimpleGraph, budget: Budget = Budget(), lower_hint: int = 0
) -> OracleResult:
    """Chromatic number of a simple graph, componentwise.

    lower_hint must be a valid lower bound for the whole graph (for
    example a known clique size); it can only tighten the reported
    bracket, never change an exact answer.
    """
    state = _SearchState(budget)
    lower = max(lower_hint, 1 if g.n else 0)
    upper = 0
    witness = [0] * g.n
    exhausted = False
    for comp in g.connected_components():
        sub = g.induced(comp)
        if exhausted:
            local = _dsatur_greedy(sub)
            lo, hi = 1, max(local)
        else:
            lo, hi, local = _component_chromatic(sub, state)
            exhausted = lo != hi
        for i, v in enumerate(comp):
            witness[v] = local[i]
        lower = max(lower, lo)
        upper = max(upper, hi)
    if not exhausted:
        lower = max(lower, upper)
    return OracleResult(lower, upper, Coloring(tuple(witness)), state.nodes)


def chromatic_index(h: Hypergraph, budget: Budget = Budget()) -> OracleResult:
    """Minimum colors for the hyperedges so intersecting ones differ.

    Computed as the chromatic number of the line graph; the witness is
    indexed by hyperedge position.  The hyperedges through any one vertex
    are pairwise intersecting, so the maximum vertex degree seeds the
    lower bound.
    """
    if h.m == 0:
        return OracleResult(0, 0, Coloring(()), 0)
    hint = max(h.degrees(), default=0)
    return chromatic_number(line_graph(h), budget, lower_hint=hint)


@dataclass(frozen=True)
class EdgeCriticality:
    """One row of a criticality table."""

    position: int
    degree: int
    q_without: Optional[int]
    critical: Optional[bool]


@dataclass(frozen=True)
class CriticalityReport:
    """Per-hyperedge criticality, plus the key inequality's verdict.

    lemma_ok reports whether q - 1 <= hyperedge degree held for every
    hyperedge whose criticality was decided positively; a False here on a
    loopless instance indicates an implementation bug, not a discovery.
    complete is True when q and every row were decided within budget.
    """

    q: Optional[int]
    entries: tuple[EdgeCriticality, ...]
    complete: bool
    lemma_ok: bool


def criticality_report(h: Hypergraph, budget: Budget = Budget()) -> CriticalityReport:
    """Tabulate criticality and check q - 1 <= d(e) for critical e."""
    base = chromatic_index(h, budget)
    if base.exact is None:
        return CriticalityReport(None, (), False, True)
    q = base.exact
    entries = []
    complete = True
    lemma_ok = True
    for i in range(h.m):
        deg = h.hyperedge_degree(i)
        sub = chromatic_index(h.remove_hyperedge(i), budget)
        if sub.exact is None:
            entries.append(EdgeCriticality(i, deg, None, None))
            complete = False
            continue
        crit = sub.exact == q - 1
        entries.append(EdgeCriticality(i, deg, sub.exact, crit))
        if crit and not q - 1 <= deg:
            lemma_ok = False
    return CriticalityReport(q, tuple(entries), complete, lemma_ok)


@dataclass(frozen=True)
class CriticalCore:
    """A subhypergraph with the same chromatic index, every edge critical.

    removed lists the original positions deleted, in deletion order.
    complete=False flags a budget interruption: the hypergraph returned is
    then merely an intermediate stage.
    """

    hypergraph: Hypergraph
    q: Optional[int]
    complete: bool
    removed: tuple[int, ...]


def extract_critical(
    h: Hypergraph, rep: CriticalityReport, budget: Budget = Budget()
) -> CriticalCore:
    """Greedily delete hyperedges whose removal keeps q, until none does.

    rep is criticality_report(h, ...), the extraction's first pass.
    Positions are scanned once in ascending order and each removable one
    is deleted, so the result is deterministic.  A row the table proved
    critical is kept without a search: in every subhypergraph h' of h that
    holds e and has the same q, q(h' - e) <= q(h - e) = q - 1, so e stays
    critical there.  Before the first deletion the table has searched
    each candidate itself: the first removable row is deleted on its word,
    and an undecided row ends the extraction, incomplete, since the table
    already ran out of budget on that very candidate.  Every row after the
    first deletion that is not proved critical is searched again.  Every
    hyperedge of a complete result is critical: removing it would lower q.
    """
    q = rep.q
    if q is None:
        return CriticalCore(h, None, False, ())
    cur = h
    removed: list[int] = []
    for entry in rep.entries:
        if entry.critical is True:
            continue
        if not removed and entry.critical is None:
            return CriticalCore(h, q, False, ())
        candidate = cur.remove_hyperedge(entry.position - len(removed))
        if removed:
            sub = chromatic_index(candidate, budget)
            if sub.exact is None:
                return CriticalCore(cur, q, False, tuple(removed))
            if sub.exact != q:
                continue
        removed.append(entry.position)
        cur = candidate
    return CriticalCore(cur, q, True, tuple(removed))
