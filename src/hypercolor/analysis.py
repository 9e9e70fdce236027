"""Degree bounds on the chromatic index and the bound-verdict engine.

The central comparison throughout is q(H) against the two-section degree
bound max_degree([H]_2) + 1, where Delta_2 abbreviates max_degree([H]_2).
Condition tags name the shapes for which that bound is established;
_CONDITIONS below defines each tag as one predicate over HypergraphStats,
and conditions(h) returns the tags that hold.  bound_set(h) returns the
upper bounds on q(h), and verify_conjecture reports both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .coloring import Coloring, brooks_color, greedy_color, is_proper
from .core import Hypergraph, HypergraphStats
from .oracle import Budget, chromatic_index

HOLDS = "HOLDS"
VIOLATED = "VIOLATED"
UNRESOLVED = "UNRESOLVED"


def _uniform_linear(st: HypergraphStats) -> bool:
    """Linear and k-uniform with k >= 2 (so m >= 1): the U65 scope."""
    return st.linear and st.uniform_k is not None and st.uniform_k >= 2


def _open(st: HypergraphStats) -> bool:
    return _uniform_linear(st) and not any(
        holds(st) for tag, holds in _CONDITIONS.items() if tag.startswith("U65")
    )


# The condition tags, each one predicate over the stats in integer
# arithmetic.  THM3 reads max_degree <= sqrt(Delta_2 + 1) + 1, so it holds
# at max_degree <= 1.  RK61 is the strict greedy regime.  RK62 puts the
# line-graph greedy bound rank * (max_degree - 1) + 1 within Delta_2 + 1.
# The U65 tags and OPEN classify linear k-uniform instances with k >= 2;
# OPEN, given when no U65 tag applies, marks where the bound is unsettled.
_CONDITIONS: dict[str, Callable[[HypergraphStats], bool]] = {
    "THM1": lambda st: st.m >= 1 and st.loopless
        and st.antirank ** 2 >= st.two_section_max_degree + 1,
    "THM2": lambda st: _uniform_linear(st) and st.regular_d == st.uniform_k + 1,
    "THM3": lambda st: st.loopless
        and (st.max_degree - 1) ** 2 <= st.two_section_max_degree + 1,
    "RK61": lambda st: st.m >= 1 and st.loopless
        and st.antirank ** 2 > st.two_section_max_degree + 1,
    "RK62": lambda st: st.m >= 1
        and st.rank * (st.max_degree - 1) <= st.two_section_max_degree,
    "U65_1": lambda st: _uniform_linear(st) and st.uniform_k == 2,
    "U65_2": lambda st: _uniform_linear(st)
        and st.uniform_k ** 2 >= st.two_section_max_degree + 1,
    "U65_3": lambda st: _uniform_linear(st)
        and st.two_section_max_degree == st.uniform_k ** 2,
    "U65_4": lambda st: _uniform_linear(st) and st.uniform_k >= 3
        and st.uniform_k * (st.max_degree - 1) <= st.two_section_max_degree,
    "OPEN": _open,
}


def conditions(h: Hypergraph) -> frozenset[str]:
    """The condition tags whose hypotheses h satisfies."""
    st = h.stats()
    return frozenset(tag for tag, holds in _CONDITIONS.items() if holds(st))


@dataclass(frozen=True)
class InequalityCheck:
    """One structural identity or inequality, with its scope and outcome."""

    name: str
    applicable: bool
    ok: bool
    detail: str


@dataclass(frozen=True)
class InequalityReport:
    checks: tuple[InequalityCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks if c.applicable)


def inequality_suite(h: Hypergraph) -> InequalityReport:
    """Structural sanity checks; a failed applicable check means a bug.

    two-section-degree-floor: Delta_2 >= (antirank - 1) * max_degree on
    loopless instances.  edge-degree-incidence-sum: every hyperedge degree
    is at most sum(deg(x) - 1 over its vertices), with equality on linear
    instances.  uniform-regular-count: on linear k-uniform (k+1)-regular
    instances, k*m = (k+1)*n, Delta_2 = k^2 - 1 and every hyperedge degree
    is k^2.
    """
    st = h.stats()
    checks = []

    floor_applicable = st.m >= 1 and st.loopless
    if floor_applicable:
        ok = st.two_section_max_degree >= (st.antirank - 1) * st.max_degree
        detail = (
            f"{st.two_section_max_degree} >= "
            f"({st.antirank} - 1) * {st.max_degree}"
        )
    else:
        ok, detail = True, "needs m >= 1 and no loops"
    checks.append(InequalityCheck("two-section-degree-floor", floor_applicable, ok, detail))

    # Hyperedge degrees are popcounts of the line graph's masks, read as
    # the oracle reads h's components.
    g = h._line_graph
    sum_applicable = st.m >= 1
    if sum_applicable:
        ok = True
        worst = ""
        degs = h.degrees()
        for i, edge in enumerate(h.edges):
            d = g.nb[g.rank[i]].bit_count()
            bound = sum([degs[x] for x in edge]) - len(edge)
            if d > bound or (st.linear and d != bound):
                ok = False
                worst = f"; position {i}: degree {d} vs sum {bound}"
                break
        detail = (
            f"checked {h.m} positions, equality required: "
            f"{'yes' if st.linear else 'no'}{worst}"
        )
    else:
        ok, detail = True, "needs m >= 1"
    checks.append(InequalityCheck("edge-degree-incidence-sum", sum_applicable, ok, detail))

    urc_applicable = _CONDITIONS["THM2"](st)
    if urc_applicable:
        k = st.uniform_k
        count_ok = k * st.m == (k + 1) * st.n
        d2_ok = st.two_section_max_degree == k * k - 1
        deg_ok = all(mask.bit_count() == k * k for mask in g.nb)
        ok = count_ok and d2_ok and deg_ok
        detail = (
            f"k*m={k * st.m} vs (k+1)*n={(k + 1) * st.n}, "
            f"Delta_2={st.two_section_max_degree} vs k^2-1={k * k - 1}, "
            f"hyperedge degrees all k^2={k * k}: {'yes' if deg_ok else 'no'}"
        )
    else:
        ok, detail = True, "needs linear k-uniform (k+1)-regular"
    checks.append(InequalityCheck("uniform-regular-count", urc_applicable, ok, detail))

    return InequalityReport(tuple(checks))


@dataclass(frozen=True)
class BoundSet:
    """The computed upper-bound values for one instance.

    two_section, Delta_2 + 1, is the conjectured ceiling and always
    present.  greedy is the first-fit bound, max over k in antirank..rank
    of k * (floor(Delta_2 / (k-1)) - 1) + 1; its analysis needs every
    hyperedge size to be at least 2.  rank_degree is
    rank * (max_degree - 1) + 1: a hyperedge meets at most
    rank * (max_degree - 1) others, so first-fit through the line graph
    never needs more colors.  edge_degree, the maximum hyperedge degree
    plus one, sharpens it.  The last three are None when m = 0, and
    greedy also when a loop is present.
    """

    two_section: int
    greedy: Optional[int]
    rank_degree: Optional[int]
    edge_degree: Optional[int]


def bound_set(h: Hypergraph) -> BoundSet:
    """The upper bounds on q(h), each None where its precondition fails."""
    st = h.stats()
    greedy = rank_degree = edge_degree = None
    if st.m:
        rank_degree = st.rank * (st.max_degree - 1) + 1
        # Rank 0 has the largest hyperedge degree.
        edge_degree = h._line_graph.nb[0].bit_count() + 1
        if st.loopless:
            d2 = st.two_section_max_degree
            greedy = max(
                k * (d2 // (k - 1) - 1) + 1 for k in range(st.antirank, st.rank + 1)
            )
    return BoundSet(st.two_section_max_degree + 1, greedy, rank_degree, edge_degree)


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking q <= Delta_2 + 1 on one instance.

    status is HOLDS only with proof in hand: an exact q within the bound,
    or a verified proper coloring using at most the bound.  VIOLATED
    likewise needs proof that q exceeds the bound: an exact value, or a
    certified lower bound, above it.  Anything undecided (the oracle's
    budget ran out, or was 0 nodes, with the bracket across the bound)
    stays UNRESOLVED.  conditions lists the tags whose hypotheses the
    instance satisfies; efl_ok compares q against the vertex count on
    linear instances (None when not linear or undecided); oracle_nodes
    counts the nodes the oracle visited, at most the budget's max_nodes.
    """

    stats: HypergraphStats
    bounds: BoundSet
    conditions: frozenset[str]
    q_lower: int
    q_upper: int
    q_exact: Optional[int]
    status: str
    efl_ok: Optional[bool]
    witness: Coloring
    oracle_nodes: int


def verify_conjecture(h: Hypergraph, budget: Budget = Budget()) -> Verdict:
    """Check q(H) <= max two-section degree + 1 on one instance.

    q is bracketed by chromatic_index(h, budget), the one bracket
    routine.  At max_nodes=0 no node is searched: the bracket is DSATUR's
    coloring over the greedy clique, the counting floor and the maximum
    degree, which can still settle the status whenever it clears the
    bound on either side.
    """
    st = h.stats()
    bounds = bound_set(h)
    bf = bounds.two_section

    res = chromatic_index(h, budget)
    q_lower, q_upper, witness = res.lower, res.upper, res.witness
    if not is_proper(h, witness):
        raise RuntimeError("internal error: emitted coloring is not proper")
    if witness.q_used != q_upper:
        raise RuntimeError("internal error: witness does not match q_upper")
    q_exact = res.exact

    if q_lower > bf:
        # A violation verdict is an alarm, so cross-examine it: any proper
        # coloring within the bound would prove the lower bound wrong.
        for alt in (greedy_color(h), brooks_color(h)):
            if alt.q_used <= bf and is_proper(h, alt):
                raise RuntimeError(
                    "internal error: lower bound exceeds a constructive coloring"
                )
        status = VIOLATED
    elif q_upper <= bf:
        status = HOLDS
    else:
        status = UNRESOLVED

    if not st.linear:
        efl_ok = None
    elif q_upper <= st.n:
        efl_ok = True
    elif q_lower > st.n:
        efl_ok = False
    else:
        efl_ok = None

    return Verdict(
        stats=st,
        bounds=bounds,
        conditions=conditions(h),
        q_lower=q_lower,
        q_upper=q_upper,
        q_exact=q_exact,
        status=status,
        efl_ok=efl_ok,
        witness=witness,
        oracle_nodes=res.nodes,
    )
