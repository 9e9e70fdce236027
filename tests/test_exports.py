"""The package's export list."""

from __future__ import annotations

import importlib
import inspect
from dataclasses import fields

import pytest

import hypercolor
from hypercolor import analysis, coloring, core, instances, oracle, transforms


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
    # criticality and its core through criticality_report.
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
        ("extract_critical", oracle),
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
    # Hypergraphs in, colorings by position out: the line graph is the one
    # graph, made only from a hypergraph's rows, and brooks_color(h) colors
    # its vertices, the hyperedges.
    for name in ("neighbors", "edges", "has_edge", "degree"):
        assert not hasattr(transforms.SimpleGraph, name)
    # The graph is its ranked masks: a part of it is the line graph of a
    # subhypergraph, so no rows are cut and no second view is kept.
    for name in ("induced", "connected_components", "_bit_view"):
        assert not hasattr(transforms.SimpleGraph, name)
    assert not hasattr(core.Hypergraph, "_component_count")
    with pytest.raises(TypeError):
        transforms.SimpleGraph(2, [(0, 1)])
    assert "SimpleGraph" not in hypercolor.__all__
    assert not hasattr(hypercolor, "SimpleGraph")
    assert "line_graph" in hypercolor.__all__
    for name, module in (
        ("brooks_edge_color", coloring),
        ("is_proper_vertex_coloring", coloring),
        ("chromatic_number", oracle),
    ):
        assert name not in namespace
        assert not hasattr(hypercolor, name)
        assert not hasattr(module, name)
    # The size, linearity and connectivity facts are read from stats(), and
    # vertex degrees from degrees() or incident(), not from other methods.
    h = hypercolor.fano()
    for name in ("rank", "antirank", "loopless", "linear", "connected"):
        assert not hasattr(h, name)
        assert hasattr(h.stats(), name)
    for name in ("is_linear", "_is_linear", "connected_components", "vertex_degree"):
        assert not hasattr(h, name)
    # A report carries its core; the two hand no state to each other.
    assert [f.name for f in fields(oracle.CriticalityReport)] == [
        "q", "entries", "complete", "lemma_ok", "core"
    ]
    assert [f.name for f in fields(oracle.CriticalCore)] == [
        "hypergraph", "complete", "removed"
    ]
    # A search starts from its own DSATUR coloring; no caller seeds it.
    # Positions left out and a target are keyword-only.
    params = inspect.signature(oracle.chromatic_index).parameters
    assert list(params) == ["h", "budget", "without", "target"]
    assert [params[name].kind for name in ("without", "target")] == [
        inspect.Parameter.KEYWORD_ONLY
    ] * 2


# bench/tracing.py finds these by name: it wraps each public function of a
# layer whose __module__ is that layer (and cli._survey_worker), patches
# the three methods, and its hooks read the result attributes.  A name it
# cannot find reads as 0 there, so each must stay where it looks.
_TRACED_FUNCTIONS = (
    "oracle.chromatic_index",
    "oracle.greedy_clique",
    "transforms.line_graph",
    "coloring.is_proper",
    "analysis.verify_conjecture",
    "instances.random_linear",
    "hgr.parse_hgr",
    "hgr.serialize_hgr",
    "cli._survey_worker",
)


def test_the_names_the_benchmark_traces_are_defined():
    for name in _TRACED_FUNCTIONS:
        layer, attr = name.split(".")
        module = importlib.import_module(f"hypercolor.{layer}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name
    for owner, attr in (
        (core.Hypergraph, "stats"),
        (core.Hypergraph, "remove_hyperedge"),
        (instances.Rng, "sample_sorted"),
    ):
        assert inspect.isfunction(getattr(owner, attr, None)), attr
    h = hypercolor.fano()
    assert len(transforms.line_graph(h).adj) == 7
    res = oracle.chromatic_index(h, oracle.Budget(1000, None))
    assert res.complete is True and res.nodes == 0
    assert instances.random_linear(8, 5, 3, 7).m == 5
