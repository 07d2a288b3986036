"""Spans around the calls into kcut's layers, installed only for a traced run.

Each wrapped public function is replaced in its defining module and in every
``kcut`` module that imported the name, so calls between layers are seen as
well as the benchmark's own calls.  Spans stay in memory (name, start, end,
parent span, operation id) and are written as JSONL when the run ends.  A
layer's self time is its spans' durations minus the durations of their
direct child spans; the program is single-threaded, so children never
overlap.

Two counts would slow the spans they sit in several times over, so they come
from a counting pass over one more round, run after the timed rounds, that
records no spans: ``dp.peak_alloc_mb`` (tracemalloc on inside DP calls) and
``sparsify.units_drawn`` / ``units_kept`` (every draw of the sampling stage's
random generator is counted).
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc

# (layer, defining module, function); the span is named "<layer>.<function>".
TARGETS = (
    ("graph", "graph", "read_graph"),
    ("graph", "graph", "round_to_multigraph"),
    ("graph", "graph", "cut_weight"),
    ("cuts", "cuts", "approx2_kcut"),
    ("cuts", "cuts", "global_min_2cut"),
    ("cuts", "cuts", "min_st_edge_cut"),
    ("sparsify", "sparsify", "strip_cheap_2cuts"),
    ("sparsify", "sparsify", "sample_edges"),
    ("decomposition", "decomposition", "build_unbreakable_decomposition"),
    ("decomposition", "decomposition", "find_breakability_witness"),
    ("treepack", "treepack", "pack_trees"),
    ("treepack", "treepack", "enumerate_spanning_trees"),
    ("dp", "dp", "solve_exact"),
    ("dp", "dp", "exact_values"),
    ("scheme", "scheme", "solve"),
)

DP_CALLS = ("dp.solve_exact", "dp.exact_values")

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "graph.read_graph_s": ("s", "lower"),
    "graph.read_graph_calls": ("count", "lower"),
    "graph.round_to_multigraph_s": ("s", "lower"),
    "graph.round_to_multigraph_calls": ("count", "lower"),
    "graph.cut_weight_s": ("s", "lower"),
    "graph.cut_weight_calls": ("count", "lower"),
    "cuts.approx2_kcut_s": ("s", "lower"),
    "cuts.approx2_kcut_calls": ("count", "lower"),
    "cuts.global_min_2cut_s": ("s", "lower"),
    "cuts.global_min_2cut_calls": ("count", "lower"),
    "cuts.min_st_edge_cut_s": ("s", "lower"),
    "cuts.min_st_edge_cut_calls": ("count", "lower"),
    "sparsify.strip_cheap_2cuts_s": ("s", "lower"),
    "sparsify.strip_cheap_2cuts_calls": ("count", "lower"),
    "sparsify.sample_edges_s": ("s", "lower"),
    "sparsify.sample_edges_calls": ("count", "lower"),
    "sparsify.units_drawn": ("count", "lower"),
    "sparsify.units_kept": ("count", "lower"),
    "decomposition.build_s": ("s", "lower"),
    "decomposition.build_calls": ("count", "lower"),
    "decomposition.witness_searches": ("count", "lower"),
    "decomposition.witnesses_found": ("count", "higher"),
    "decomposition.bags": ("count", "higher"),
    "decomposition.max_bag": ("count", "lower"),
    "treepack.trees_s": ("s", "lower"),
    "treepack.calls": ("count", "lower"),
    "treepack.trees": ("count", "lower"),
    "dp.eval_s": ("s", "lower"),
    "dp.calls": ("count", "lower"),
    "dp.states": ("count", "lower"),
    "dp.trees_tried": ("count", "lower"),
    "dp.peak_alloc_mb": ("MB", "lower"),
    "scheme.solve_self_s": ("s", "lower"),
    "scheme.solve_calls": ("count", "lower"),
    "scheme.sampled_ops": ("count", "higher"),
    "traced.ops_per_s": ("1/s", "higher"),
}


def _total(graph) -> int:
    return sum(w for _, _, w in graph.edges)


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.stack: list[int] = []
        self.op: object = "setup"
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.patched: dict[str, list[str]] = {}
        self.counting_pass = False

    # -- recording -----------------------------------------------------------

    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.counting_pass:
                return self._count(name, fn, args, kwargs)
            self.calls[name] = self.calls.get(name, 0) + 1
            stats = before = None
            if name == "dp.exact_values":
                stats = args[5] if len(args) > 5 else kwargs.get("stats_out")
                if stats is None:
                    stats = kwargs["stats_out"] = {}
                before = (stats.get("trees", 0), stats.get("states", 0))
            idx = len(self.spans)
            span = [name, time.perf_counter() - self.t0, None, self.stack[-1] if self.stack else None, self.op]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter() - self.t0
                self.stack.pop()
            self._observe(name, result, stats, before)
            return result

        return wrapper

    def _count(self, name, fn, args, kwargs):
        if name == "sparsify.sample_edges":
            result = fn(*args, **kwargs)
            if result.rate < 1:
                self._add("sparsify.units_kept", _total(result.graph))
            return result
        if name not in DP_CALLS:
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            self.counts["dp.peak_alloc_mb"] = max(self.counts.get("dp.peak_alloc_mb", 0.0), peak)

    def _observe(self, name, result, stats, before) -> None:
        if name == "decomposition.find_breakability_witness" and result is not None:
            self._add("decomposition.witnesses_found", 1)
        elif name == "decomposition.build_unbreakable_decomposition":
            td = result[0] if isinstance(result, tuple) else result
            self._add("decomposition.bags", len(td.bags))
            big = max(len(b) for b in td.bags)
            self.counts["decomposition.max_bag"] = max(self.counts.get("decomposition.max_bag", 0), big)
        elif name.startswith("treepack."):
            self._add("treepack.trees", len(result))
        elif name == "dp.solve_exact":
            self._add("dp.states", result.dp_states)
            self._add("dp.trees_tried", result.trees_tried)
        elif name == "dp.exact_values":
            self._add("dp.trees_tried", stats["trees"] - before[0])
            self._add("dp.states", stats["states"] - before[1])
        elif name == "scheme.solve":
            rate = result.stats.sample_rate
            if rate is not None and rate < 1:
                self._add("scheme.sampled_ops", 1)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in every loaded kcut module that holds it."""
        mods = {n: m for n, m in sys.modules.items() if n == "kcut" or n.startswith("kcut.")}
        for layer, module, fn_name in TARGETS:
            original = getattr(mods[f"kcut.{module}"], fn_name)
            wrapper = self._wrap(f"{layer}.{fn_name}", original)
            holders = []
            for mod_name, mod in sorted(mods.items()):
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    holders.append(mod_name)
            self.patched[f"{layer}.{fn_name}"] = holders

    def needs_counting_pass(self) -> bool:
        return any(self.calls.get(name) for name in DP_CALLS + ("sparsify.sample_edges",))

    def start_counting_pass(self) -> None:
        """Stop recording spans; count DP allocations and sampling draws."""
        self.counting_pass = True
        sparsify = sys.modules["kcut.sparsify"]
        if getattr(sparsify, "random", None) is sys.modules["random"]:
            sparsify.random = _counting_random(self)
            self.patched["sparsify.random"] = ["kcut.sparsify"]

    # -- summary -----------------------------------------------------------------

    def summary(self, ops_per_s: float) -> dict[str, float]:
        incl: dict[str, float] = {}
        self_t: dict[str, float] = {}
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            incl[name] = incl.get(name, 0.0) + (end - start)
            self_t[name] = self_t.get(name, 0.0) + (end - start - child[i])
        calls = self.calls
        out: dict[str, float] = {}
        for fn in ("read_graph", "round_to_multigraph", "cut_weight"):
            out[f"graph.{fn}_s"] = incl.get(f"graph.{fn}", 0.0)
            out[f"graph.{fn}_calls"] = calls.get(f"graph.{fn}", 0)
        for fn in ("approx2_kcut", "global_min_2cut", "min_st_edge_cut"):
            out[f"cuts.{fn}_s"] = incl.get(f"cuts.{fn}", 0.0)
            out[f"cuts.{fn}_calls"] = calls.get(f"cuts.{fn}", 0)
        for fn in ("strip_cheap_2cuts", "sample_edges"):
            out[f"sparsify.{fn}_s"] = self_t.get(f"sparsify.{fn}", 0.0)
            out[f"sparsify.{fn}_calls"] = calls.get(f"sparsify.{fn}", 0)
        dec = ("decomposition.build_unbreakable_decomposition", "decomposition.find_breakability_witness")
        tp = ("treepack.pack_trees", "treepack.enumerate_spanning_trees")
        out["decomposition.build_s"] = sum(self_t.get(n, 0.0) for n in dec)
        out["decomposition.build_calls"] = calls.get(dec[0], 0)
        out["decomposition.witness_searches"] = calls.get(dec[1], 0)
        out["treepack.trees_s"] = sum(incl.get(n, 0.0) for n in tp)
        out["treepack.calls"] = sum(calls.get(n, 0) for n in tp)
        out["dp.eval_s"] = sum(self_t.get(n, 0.0) for n in DP_CALLS)
        out["dp.calls"] = sum(calls.get(n, 0) for n in DP_CALLS)
        out["scheme.solve_self_s"] = self_t.get("scheme.solve", 0.0)
        out["scheme.solve_calls"] = calls.get("scheme.solve", 0)
        out["traced.ops_per_s"] = ops_per_s
        for key in PER_LAYER:
            out.setdefault(key, self.counts.get(key, 0))
        return {key: out[key] for key in PER_LAYER}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def _counting_random(tracer: Tracer):
    """A stand-in for the ``random`` module inside kcut.sparsify whose
    generators count every draw into ``sparsify.units_drawn``.  A zero count
    beside nonzero ``units_kept`` means the stage no longer draws through
    ``kcut.sparsify.random`` and the hook needs moving."""
    import random as real

    class CountingRandom(real.Random):
        def random(self):
            tracer._add("sparsify.units_drawn", 1)
            return super().random()

        def getrandbits(self, k):
            tracer._add("sparsify.units_drawn", 1)
            return super().getrandbits(k)

    class Module:
        Random = CountingRandom

        def __getattr__(self, attr):
            return getattr(real, attr)

    return Module()
