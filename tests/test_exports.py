"""The package's export list."""

from __future__ import annotations

import hypercolor
from hypercolor import analysis, coloring, oracle, transforms


def test_exported_names_resolve_and_removed_ones_are_gone():
    namespace: dict = {}
    exec("from hypercolor import *", namespace)
    assert len(set(hypercolor.__all__)) == len(hypercolor.__all__)
    assert [name for name in hypercolor.__all__ if name not in namespace] == []
    # The two-section multigraph left the package: Delta_2 and linearity
    # come from Hypergraph.stats().
    for name in ("Multigraph", "two_section", "max_degree_two_section"):
        assert name not in namespace
        assert not hasattr(hypercolor, name)
        assert not hasattr(transforms, name)
    # Bounds and condition tags are read through bound_set and conditions,
    # criticality through criticality_report.
    for name, module in (
        ("two_section_bound", analysis),
        ("greedy_bound", analysis),
        ("rank_degree_bound", analysis),
        ("edge_degree_bound", analysis),
        ("antirank_condition", analysis),
        ("uniform_regular_condition", analysis),
        ("max_degree_condition", analysis),
        ("rank_product_condition", analysis),
        ("classify_uniform", analysis),
        ("is_critical", oracle),
    ):
        assert name not in namespace
        assert not hasattr(hypercolor, name)
        assert not hasattr(module, name)
    for name in ("bound_set", "conditions", "criticality_report"):
        assert name in hypercolor.__all__
    # Every colorer and the oracle return one Coloring; Vizing takes the
    # 2-uniform hypergraph itself.
    for name in ("EdgeColoring", "VertexColoring", "vizing_edge_color_hypergraph"):
        assert name not in namespace
        assert not hasattr(hypercolor, name)
        assert not hasattr(coloring, name)
    assert "Coloring" in hypercolor.__all__
    assert namespace["Coloring"] is coloring.Coloring
    assert not hasattr(transforms.SimpleGraph, "neighbors")
    assert not hasattr(transforms.SimpleGraph, "edges")
    # The size facts are read from stats(), not from the hypergraph.
    h = hypercolor.fano()
    for name in ("rank", "antirank", "loopless"):
        assert not hasattr(h, name)
        assert hasattr(h.stats(), name)
