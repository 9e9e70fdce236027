"""Per-layer tracing for the benchmark's traced passes.

The layers are the hypercolor modules.  ``Tracer.install`` wraps every
public function of each layer in every namespace that holds it (so both
``analysis.chromatic_index`` and ``oracle.chromatic_index`` are traced),
plus ``Hypergraph.stats``, ``Hypergraph.remove_hyperedge`` and the
survey's per-instance worker.  ``Rng.sample_sorted`` runs millions of
times, so it is counted, not spanned.  Nothing under ``src/`` changes:
the wrappers are set from here, in the benchmark's own process.

Spans stay in memory as (name, start, end, parent, instance, error) and
are written out as JSON lines after the timed part.  A span's self time is
its duration minus the durations of its child spans; a layer's busy time
is the sum of its spans' self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("instances", "core", "transforms", "coloring", "oracle", "analysis", "hgr", "report", "cli")

# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload it should move).
LAYER_METRICS = {
    "instances.busy_s": ("s", "lower", "survey.ops_per_s, survey-jobs2.ops_per_s"),
    "instances.calls": ("count", "lower", "survey.ops_per_s"),
    "instances.sample_draws": ("count", "lower", "survey.ops_per_s, survey-jobs2.ops_per_s"),
    "instances.accept_ratio": ("frac", "higher", "survey.ops_per_s, survey-jobs2.ops_per_s"),
    "instances.restarts": ("count", "lower", "survey.ops_per_s"),
    "core.stats_calls": ("count", "lower", "large-structure.wall_s"),
    "core.stats_busy_s": ("s", "lower", "large-structure.wall_s"),
    "core.remove_calls": ("count", "lower", "critical-core.wall_s"),
    "transforms.line_graph_calls": ("count", "lower", "critical-core.wall_s"),
    "transforms.line_graph_busy_s": ("s", "lower", "large-structure.wall_s, critical-core.wall_s"),
    "transforms.line_graph_edges": ("count", "lower", "large-structure.peak_rss_mb"),
    "transforms.two_section_busy_s": ("s", "lower", "large-structure.wall_s"),
    "coloring.calls": ("count", "lower", "large-structure.wall_s"),
    "coloring.busy_s": ("s", "lower", "large-structure.wall_s"),
    "coloring.is_proper_busy_s": ("s", "lower", "large-structure.wall_s"),
    "oracle.calls": ("count", "lower", "critical-core.wall_s"),
    "oracle.busy_s": ("s", "lower", "oracle-deep.wall_s, critical-core.wall_s"),
    "oracle.nodes": ("count", "lower", "oracle-deep.bracket_size_sum; oracle-deep.wall_s via STS(15) only"),
    "oracle.nodes_per_s": ("1/s", "higher", "oracle-deep.wall_s, critical-core.wall_s; not survey or large-structure"),
    "oracle.exact_ratio": ("frac", "higher", "oracle-deep.bracket_size_sum"),
    "oracle.clique_busy_s": ("s", "lower", "critical-core.wall_s"),
    "analysis.verify_calls": ("count", "lower", "large-structure.wall_s"),
    "analysis.self_s": ("s", "lower", "large-structure.wall_s"),
    "hgr.busy_s": ("s", "lower", "large-structure.wall_s, survey.ops_per_s"),
    "hgr.bytes": ("bytes", "lower", "large-structure.wall_s, survey.ops_per_s"),
    "report.busy_s": ("s", "lower", "large-structure.wall_s, survey.ops_per_s"),
    "report.bytes": ("bytes", "lower", "large-structure.wall_s, survey.ops_per_s"),
    "cli.self_s": ("s", "lower", "survey-jobs2.ops_per_s"),
    "trace.overhead_frac": ("frac", "lower", "none: traced wall_s / untraced wall_s - 1"),
}

def _on_chromatic_index(counts, args, result):
    counts["oracle_nodes"] += result.nodes
    counts["oracle_exact"] += int(result.complete)


def _on_line_graph(counts, args, result):
    counts["line_graph_edges"] += sum(len(nb) for nb in result.adj) // 2


def _on_random_linear(counts, args, result):
    counts["edges_accepted"] += result.m


def _on_parse_hgr(counts, args, result):
    counts["hgr_bytes"] += len(args[0])


def _on_serialize_hgr(counts, args, result):
    counts["hgr_bytes"] += len(result)


def _on_report(counts, args, result):
    if isinstance(result, str):
        counts["report_bytes"] += len(result)
    elif isinstance(result, list):
        counts["report_bytes"] += sum(len(line) for line in result)


_HOOKS = {
    "oracle.chromatic_index": _on_chromatic_index,
    "transforms.line_graph": _on_line_graph,
    "instances.random_linear": _on_random_linear,
    "hgr.parse_hgr": _on_parse_hgr,
    "hgr.serialize_hgr": _on_serialize_hgr,
}


def _survey_instance_id(args) -> str:
    return f"/instance{args[0][1]}"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.instance = ""
        self._stack: list = []
        self._undo: list = []

    def _span(self, name, fn, hook=None, instance_of=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tracer.instance
            if instance_of is not None:
                tracer.instance = outer + instance_of(args)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.instance, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
                tracer.instance = outer
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import hypercolor

        modules = {layer: importlib.import_module(f"hypercolor.{layer}") for layer in LAYERS}
        namespaces = [hypercolor, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                # The one private function worth a span: the survey's
                # per-instance unit of work, which also names the instance.
                if attr.startswith("_") and attr != "_survey_worker":
                    continue
                name = f"{layer}.{attr}"
                hook = _HOOKS.get(name, _on_report if layer == "report" else None)
                instance_of = _survey_instance_id if attr == "_survey_worker" else None
                wrapper = self._span(name, fn, hook, instance_of)
                for namespace in namespaces:
                    for held, value in list(vars(namespace).items()):
                        if value is fn:
                            self._set(namespace, held, wrapper)
        graph = modules["core"].Hypergraph
        self._set(graph, "stats", self._span("core.stats", graph.stats))
        self._set(graph, "remove_hyperedge", self._span("core.remove_hyperedge", graph.remove_hyperedge))
        rng = modules["instances"].Rng
        self._set(rng, "sample_sorted", self._count("sample_draws", rng.sample_sorted))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_spans(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "instance", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_frac."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_by_name = defaultdict(float)
        calls = Counter()
        errors = Counter()
        for index, (name, start, end, _, _, error) in enumerate(self.spans):
            self_by_name[name] += end - start - child_time[index]
            calls[name] += 1
            errors[name] += error
        busy = defaultdict(float)
        layer_calls = Counter()
        for name, seconds in self_by_name.items():
            layer = name.split(".")[0]
            busy[layer] += seconds
            layer_calls[layer] += calls[name]
        c = self.counts
        oracle_calls = calls["oracle.chromatic_index"]
        return {
            "instances.busy_s": busy["instances"],
            "instances.calls": layer_calls["instances"],
            "instances.sample_draws": c["sample_draws"],
            "instances.accept_ratio": c["edges_accepted"] / c["sample_draws"] if c["sample_draws"] else 0.0,
            "instances.restarts": errors["instances.random_linear"],
            "core.stats_calls": calls["core.stats"],
            "core.stats_busy_s": self_by_name["core.stats"],
            "core.remove_calls": calls["core.remove_hyperedge"],
            "transforms.line_graph_calls": calls["transforms.line_graph"],
            "transforms.line_graph_busy_s": self_by_name["transforms.line_graph"],
            "transforms.line_graph_edges": c["line_graph_edges"],
            "transforms.two_section_busy_s": self_by_name["transforms.max_degree_two_section"]
            + self_by_name["transforms.two_section"],
            "coloring.calls": layer_calls["coloring"],
            "coloring.busy_s": busy["coloring"],
            "coloring.is_proper_busy_s": self_by_name["coloring.is_proper"],
            "oracle.calls": oracle_calls,
            "oracle.busy_s": busy["oracle"],
            "oracle.nodes": c["oracle_nodes"],
            "oracle.nodes_per_s": c["oracle_nodes"] / busy["oracle"] if busy["oracle"] else 0.0,
            "oracle.exact_ratio": c["oracle_exact"] / oracle_calls if oracle_calls else 0.0,
            "oracle.clique_busy_s": self_by_name["oracle.greedy_clique"],
            "analysis.verify_calls": calls["analysis.verify_conjecture"],
            "analysis.self_s": busy["analysis"],
            "hgr.busy_s": busy["hgr"],
            "hgr.bytes": c["hgr_bytes"],
            "report.busy_s": busy["report"],
            "report.bytes": c["report_bytes"],
            "cli.self_s": busy["cli"],
        }
