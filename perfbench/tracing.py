"""Spans around depkit's public functions, installed from outside the package.

A traced iteration patches every public function of the layer modules
(``corpus``, ``normalize``, ``extract``, ``graph``, ``rebuild``, ``learn``)
plus the hot public methods named in ``TRACED_METHODS``.  Each patch replaces
the function object wherever a ``depkit`` module holds it, so names imported
by value (``rebuild`` imports ``decompose`` and ``minimize_env``) are traced
too.  Spans stay in memory until the iteration ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("corpus", "normalize", "extract", "graph", "rebuild", "learn")

# score_premise is called once per (conjecture, candidate) pair, millions of
# times per evaluation; a span there would measure the tracer, so the learn
# metrics count ranked candidates from the arguments of ``rank`` instead.
UNTRACED = {"learn.score_premise"}

TRACED_METHODS = {
    "corpus": {
        "Corpus": ("candidate_environment", "accepts", "check_item"),
        "Environment": ("replace_kind", "restrict"),
    },
    "graph": {"DepGraph": ("reach", "reverse_reach", "closure_counts", "reverse_counts")},
}


def _summary(name: str, args, kwargs, result) -> dict | None:
    """Counts the per-layer metrics read off a call's arguments or result."""
    if name == "extract.minimize_env":
        return {"oracle_calls": result.oracle_calls, "removed": sum(result.removed.values())}
    if name == "extract.trace_extract":
        return {"edges": len(result)}
    if name == "extract.extract_corpus" and result.min_edges is not None:
        return {"min_edges": len(result.min_edges)}
    if name == "extract.compare_methods":
        return {"trace_only": result["totals"]["trace_only"]}
    if name == "normalize.normalize_corpus":
        reports = result[1].values()
        return {
            "rewrites": sum(
                r.blocks_split + r.links_rewritten + r.reservations_split + len(r.fresh_labels)
                for r in reports
            )
        }
    if name in ("graph.build_graph", "graph.build_graph_from_edges"):
        return {"granularity": result.granularity.value, "edges": len(result.edges)}
    if name == "graph.stats":
        return {"granularity": args[0].granularity.value, "tdeps": result.tdeps}
    if name == "rebuild.plan":
        return {"granularity": result.granularity.value, "skipped": len(result.skipped_opaque)}
    if name == "rebuild.execute":
        return {"verified": result.verified_count}
    if name == "rebuild.speedup_report":
        return {"ratio": result["ratio"]}
    if name == "learn.rank":
        candidates = args[3] if len(args) > 3 else kwargs["candidates"]
        return {"candidates": len(candidates)}
    if name == "learn.evaluate_chrono":
        return {
            "evaluated": result["evaluated"],
            "recall_at_10": result["recall_at_k"].get(10, 0.0),
            "mean_rank": result["mean_rank"],
        }
    if name == "learn.export_problems":
        return {"files": len(result)}
    return None


class Span:
    __slots__ = ("name", "phase", "start", "end", "parent", "info")

    def __init__(self, name, phase, start, parent):
        self.name = name
        self.phase = phase
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None


class Tracer:
    """Records spans while installed; ``phase`` tags each span with the
    benchmark stage that was running when it opened (worker threads of a
    pool have no parent span, so the tag is how their spans are attributed)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase: str | None = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = Span(name, self.phase, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def _wrap(self, name: str, fn):
        tracer = self

        perf_counter = time.perf_counter

        # Inlined rather than built on ``span()``: this runs ~10^5 times per
        # extraction and a generator-based context manager doubles its cost.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(name, tracer.phase, perf_counter(), stack[-1] if stack else None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                span.info = _summary(name, args, kwargs, result)
                return result
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "depkit" or n.startswith("depkit.")]
        for layer in LAYERS:
            mod = sys.modules[f"depkit.{layer}"]
            for attr, fn in vars(mod).copy().items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or name in UNTRACED
                ):
                    continue
                traced = self._wrap(name, fn)
                for holder in modules:
                    for held_name, held in vars(holder).copy().items():
                        if held is fn:
                            self._patch(holder, held_name, traced)
            for cls_name, methods in TRACED_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for method in methods:
                    self._patch(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def dump(self, path: Path) -> None:
        """Write every span as ``[name, phase, start, end, parent_index]``,
        gzip-compressed (an extraction iteration records ~3 * 10^5 spans)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s.name, s.phase, s.start, s.end, index[id(s.parent)] if s.parent is not None else None]
            for s in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump(rows, out, separators=(",", ":"))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per span id: duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(id(span), ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(span)] = (span.end - span.start) - covered
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (spans outside a stage,
    such as those of the benchmark's own output checks, are ignored)."""
    spans = [s for s in spans if s.phase is not None and not s.name.startswith("stage.")]
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def pick(names, phases=None, granularity=None):
        return [
            s
            for name in names
            for s in by_name.get(name, ())
            if (phases is None or s.phase in phases)
            and (granularity is None or (s.info or {}).get("granularity") == granularity)
        ]

    def secs(*names, phases=None, granularity=None):
        return sum(own[id(s)] for s in pick(names, phases, granularity))

    def calls(*names, phases=None):
        return len(pick(names, phases))

    def total(name, key, phases=None, granularity=None):
        return sum((s.info or {}).get(key, 0) for s in pick({name}, phases, granularity))

    def last(name, key, phases=None, granularity=None):
        found = pick({name}, phases, granularity)
        return found[-1].info[key] if found else 0

    def layer(prefix):
        return [name for name in by_name if name.startswith(prefix + ".")]

    check = ("corpus.Corpus.accepts", "corpus.Corpus.check_item")
    edit = ("corpus.Environment.replace_kind", "corpus.Environment.restrict")
    reach = ("graph.DepGraph.reach", "graph.DepGraph.reverse_reach",
             "graph.DepGraph.closure_counts", "graph.DepGraph.reverse_counts")
    oracle = total("extract.minimize_env", "oracle_calls", phases={"extract"})
    removed = total("extract.minimize_env", "removed", phases={"extract"})
    return {
        "corpus.parse_s": secs("corpus.parse_corpus", "corpus.parse_source", "corpus.file_tag"),
        "corpus.candidate_env_calls": calls("corpus.Corpus.candidate_environment"),
        "corpus.candidate_env_s": secs("corpus.Corpus.candidate_environment"),
        "corpus.check_calls": calls(*check),
        "corpus.check_s": secs(*check),
        "corpus.env_edit_calls": calls(*edit),
        "corpus.env_edit_s": secs(*edit),
        "normalize.time_s": secs(*layer("normalize")),
        "normalize.rewrites": total("normalize.normalize_corpus", "rewrites"),
        "extract.decompose_calls": calls("extract.decompose"),
        "extract.decompose_s": secs("extract.decompose"),
        "extract.trace_s": secs("extract.trace_extract"),
        "extract.trace_edges": total("extract.trace_extract", "edges"),
        "extract.minimize_s": secs("extract.minimize_env", phases={"extract"}),
        "extract.oracle_calls": oracle,
        "extract.removed": removed,
        "extract.removal_yield": removed / oracle if oracle else 0.0,
        "extract.minimize_unseeded_s": secs("extract.minimize_env", phases={"minimize"}),
        "extract.oracle_calls_unseeded": total("extract.minimize_env", "oracle_calls", phases={"minimize"}),
        "extract.min_edges": total("extract.extract_corpus", "min_edges", phases={"extract"}),
        "extract.redundant_edges": total("extract.compare_methods", "trace_only"),
        "extract.compare_s": secs("extract.compare_methods"),
        "extract.write_edges_s": secs("extract.write_edges_jsonl", "extract.edge_record"),
        "extract.read_edges_s": secs("extract.read_edges_jsonl"),
        "graph.build_s": secs("graph.build_graph", "graph.build_graph_from_edges"),
        "graph.reach_s": secs(*reach),
        "graph.stats_s": secs("graph.stats", "graph.stats_json", "graph.kind_table"),
        "graph.closure_s": secs("graph.transitive_closure"),
        "graph.cumulative_s": secs("graph.reverse_cumulative", "graph.cumulative_csv"),
        "graph.dot_s": secs("graph.to_dot"),
        "graph.edges": last("graph.build_graph", "edges", phases={"graph"}, granularity="item"),
        "graph.file_edges": last("graph.build_graph", "edges", phases={"graph"}, granularity="file"),
        "graph.tdeps": last("graph.stats", "tdeps", phases={"graph"}, granularity="item"),
        "rebuild.plan_item_s": secs("rebuild.plan", granularity="item"),
        "rebuild.plan_file_s": secs("rebuild.plan", granularity="file"),
        "rebuild.plans": calls("rebuild.plan"),
        "rebuild.execute_s": secs("rebuild.execute"),
        "rebuild.executed_items": total("rebuild.execute", "verified"),
        "rebuild.skipped_opaque": total("rebuild.plan", "skipped"),
        "rebuild.file_item_ratio": last("rebuild.speedup_report", "ratio"),
        "learn.eval_s": secs(*layer("learn"), phases={"eval"}),
        "learn.export_s": secs(*layer("learn"), phases={"export"}),
        "learn.evaluated": last("learn.evaluate_chrono", "evaluated"),
        "learn.candidates_ranked": total("learn.rank", "candidates"),
        "learn.files_written": last("learn.export_problems", "files"),
        "learn.recall_at_10": last("learn.evaluate_chrono", "recall_at_10"),
        "learn.mean_rank": last("learn.evaluate_chrono", "mean_rank"),
    }
