"""Hypergraph edge coloring: structure, colorers, exact oracle, bounds.

The package centers on one comparison: the chromatic index q(H) of a
hypergraph against the maximum degree of its two-section multigraph plus
one, read from Hypergraph.stats().  It provides the structures
(hypergraphs with their invariants, line graphs), constructive colorers
with classical guarantees, an exact branch-and-bound oracle with honest
budgets, degree-bound checkers, a verdict engine, instance generators,
and a file format plus CLI.
"""

from .analysis import (
    HOLDS,
    UNRESOLVED,
    VIOLATED,
    BoundSet,
    InequalityCheck,
    InequalityReport,
    Verdict,
    bound_set,
    conditions,
    inequality_suite,
    verify_conjecture,
)
from .coloring import (
    Coloring,
    brooks_color,
    greedy_color,
    is_proper,
    vizing_edge_color,
)
from .core import Hypergraph, HypergraphStats, UnsupportedInputError
from .hgr import HgrParseError, digest, dump, load, parse_hgr, serialize_hgr
from .instances import (
    FamilySpec,
    GenerationError,
    Rng,
    affine_plane,
    complete_graph,
    cycle,
    derive_seed,
    fano,
    generate,
    parse_family,
    projective_plane,
    random_hypergraph,
    random_linear,
    steiner_triple,
    survey_instance,
)
from .oracle import (
    Budget,
    CriticalCore,
    CriticalityReport,
    EdgeCriticality,
    OracleResult,
    chromatic_index,
    criticality_report,
    greedy_clique,
)
from .report import TOOL_VERSION
from .transforms import line_graph

__version__ = TOOL_VERSION

__all__ = [
    "HOLDS",
    "UNRESOLVED",
    "VIOLATED",
    "BoundSet",
    "Budget",
    "Coloring",
    "CriticalCore",
    "CriticalityReport",
    "EdgeCriticality",
    "FamilySpec",
    "GenerationError",
    "HgrParseError",
    "Hypergraph",
    "HypergraphStats",
    "InequalityCheck",
    "InequalityReport",
    "OracleResult",
    "Rng",
    "TOOL_VERSION",
    "UnsupportedInputError",
    "Verdict",
    "affine_plane",
    "bound_set",
    "brooks_color",
    "chromatic_index",
    "complete_graph",
    "conditions",
    "criticality_report",
    "cycle",
    "derive_seed",
    "digest",
    "dump",
    "fano",
    "generate",
    "greedy_clique",
    "greedy_color",
    "inequality_suite",
    "is_proper",
    "line_graph",
    "load",
    "parse_family",
    "parse_hgr",
    "projective_plane",
    "random_hypergraph",
    "random_linear",
    "serialize_hgr",
    "steiner_triple",
    "survey_instance",
    "verify_conjecture",
    "vizing_edge_color",
]
