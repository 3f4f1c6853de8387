"""The three workloads: their inputs, one measured iteration each, and the
output checks that run after each timed stage.

Every workload uses ``generate_corpus(items, seed, family="mixed",
per_file=10)``.  At the gated 3000 items the quadratic costs already
dominate (candidate environments, per-call file closure, ranking every
preceding item) while one iteration still takes seconds.

depkit is called through its module objects (``extract.extract_corpus``,
not a name imported by value), so the tracer's patches reach these calls.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import shutil
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from statistics import median

from depkit import corpus, extract, gen, graph, learn, normalize, rebuild

ITEMS = 3000
JOBS = 2  # = nproc of the 2-core reference machine; threads beyond it are not measured
EDITS = 4
SPEEDUP_SAMPLES = 100
K_VALUES = (1, 10, 50)
EXPORT_K = 10


def unit_of(metric: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB")):
        if metric.endswith(suffix):
            return unit
    if metric.endswith(("_ratio", "_yield", "recall_at_10")):
        return "ratio"
    if metric.endswith("mean_rank"):
        return "rank"
    return "count"


class Clock:
    """Time per named stage.

    Untraced clocks also scale each stage to the reference machine speed.
    The shared host's speed drifts by 20-40% within minutes, so each stage is
    bracketed by speed probes (consecutive stages share one) and its time
    multiplied by ``speed_factor(probe before, probe after)``; ``raw`` keeps
    the unscaled times.  With a tracer, each stage also opens a span and
    tags the spans inside it with the stage name.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self._probe: float | None = None

    @contextmanager
    def stage(self, name: str):
        tracer = self.tracer
        if tracer is None and self._probe is None:
            self._probe = speed_probe()
        if tracer is not None:
            tracer.phase = name
        start = time.perf_counter()
        try:
            with tracer.span(f"stage.{name}") if tracer is not None else nullcontext():
                yield
        finally:
            took = time.perf_counter() - start
            self.raw.setdefault(name, []).append(took)
            if tracer is None:
                after = speed_probe()
                self.scaled.setdefault(name, []).append(took * speed_factor(self._probe, after))
                self._probe = after
            else:
                tracer.phase = None

    def wall(self, scaled: bool = True) -> float:
        return sum(sum(times) for times in (self.scaled if scaled else self.raw).values())


class Checks:
    """Output checks; each counts as one attempted operation (per-item
    checks count one per item)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.messages) < 20:
            self.messages.append(f"{what}: {failed} of {attempted}")

    def expect(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


_PROBE_NAMES = [f"item{i}" for i in range(3000)]
# Typical speed_probe() on the reference machine (2-core Xeon VM, Python
# 3.11), so scaled times read as seconds on that machine.
PROBE_REF_S = 0.2


def speed_probe() -> float:
    """Seconds for a fixed pure-Python job shaped like depkit's inner loops
    (string tuples, frozensets, dict lookups).  It never calls depkit, so a
    change to depkit cannot move it, and runs with the collector off, so
    the size of the heap around it does not either."""
    gc.disable()
    try:
        start = time.perf_counter()
        names = _PROBE_NAMES
        for r in range(270):
            keep = frozenset(names[r : 2000 + r])
            index = {name: i for i, name in enumerate(names)}
            kept = tuple(name for name in names if name in keep)
            sum(index[name] for name in kept)
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_factor(probe_before: float, probe_after: float) -> float:
    """Multiplier that takes a time measured between two probes to the
    reference machine speed."""
    return PROBE_REF_S / ((probe_before + probe_after) / 2)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """One digest over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _dump(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# Set-up (runs in its own process) ---------------------------------------------


def make_inputs(workload: str, work: Path, items: int, seed: int) -> None:
    """The corpus; for ``rebuild`` and ``learn`` also its ``deps.jsonl``,
    written the way ``depkit extract`` writes it by default."""
    gen.write_corpus(gen.generate_corpus(items, seed, family="mixed", per_file=10), work / "corpus")
    if workload != "extract":
        parsed = corpus.parse_corpus(work / "corpus")
        extract.write_edges_jsonl(work / "deps.jsonl", extract.extract_corpus(parsed, mode="both"))


# Measured iterations ------------------------------------------------------------


def run_extract(work: Path, seed: int, clock: Clock, checks: Checks) -> dict[str, str]:
    out = work / "out"
    out.mkdir(exist_ok=True)
    with clock.stage("extract"):
        parsed = corpus.parse_corpus(work / "corpus")
        normalized, _ = normalize.normalize_corpus(parsed)
        seeded = extract.extract_corpus(normalized, mode="both", jobs=JOBS)
        report = extract.compare_methods(normalized, seeded.trace_edges, seeded.minimization)
        extract.write_edges_jsonl(out / "deps.jsonl", seeded)
        _dump(out / "compare.json", report)
    with clock.stage("minimize"):
        unseeded = extract.extract_corpus(
            normalized, mode="minimize", seed_from_trace=False, jobs=JOBS
        )

    bad = sum(
        not normalized.accepts(normalized.item(r.item_name), r.minimal_env)
        for r in seeded.minimization
    )
    checks.count(len(normalized), bad, "items whose minimal environment does not verify")
    checks.expect(report["totals"]["min_only"] == 0, "minimized dependencies outside the trace")
    checks.expect(
        seeded.min_edges == unseeded.min_edges, "seeded and unseeded minimization disagree"
    )
    return {"deps.jsonl": file_digest(out / "deps.jsonl"), "compare.json": file_digest(out / "compare.json")}


def edit_stream(parsed: corpus.Corpus, seed: int) -> list[tuple[str, rebuild.ChangeKind]]:
    """EDITS single-item edits alternating stmt and body.  Body edits go to
    opaque items when there are any, so that opacity pruning is exercised."""
    rng = random.Random(seed)
    names = [item.name for item in parsed.items]
    opaque = [item.name for item in parsed.items if item.opacity is corpus.Opacity.OPAQUE] or names
    edits = []
    for i in range(EDITS):
        if i % 2:
            edits.append((opaque[rng.randrange(len(opaque))], rebuild.ChangeKind.BODY_ONLY))
        else:
            edits.append((names[rng.randrange(len(names))], rebuild.ChangeKind.STATEMENT_OR_TYPE))
    return edits


def run_rebuild(work: Path, seed: int, clock: Clock, checks: Checks) -> dict[str, str]:
    out = work / "out"
    out.mkdir(exist_ok=True)
    ITEM, FILE = graph.Granularity.ITEM, graph.Granularity.FILE
    with clock.stage("load"):
        parsed = corpus.parse_corpus(work / "corpus")
        edges = extract.read_edges_jsonl(work / "deps.jsonl")
    with clock.stage("graph"):
        item_g = graph.build_graph(parsed, edges, ITEM)
        file_g = graph.build_graph(parsed, edges, FILE)
        item_stats, file_stats = graph.stats(item_g), graph.stats(file_g)
        cumulative = graph.reverse_cumulative(item_g)
        closure = graph.transitive_closure(item_g)
        graph.to_dot(item_g)
    checks.expect(len(closure.edges) == item_stats.tdeps, "closure edge count differs from tdeps")
    checks.expect(
        bool(cumulative) and cumulative[-1][1] == len(parsed), "cumulative distribution misses items"
    )
    checks.expect(file_stats.items == len(parsed.files()), "file graph node count")

    for name, kind in edit_stream(parsed, seed):
        change = rebuild.ChangeSet.single(name, kind)
        with clock.stage("simulate"):
            fresh = corpus.parse_corpus(work / "corpus")
            g = graph.build_graph(fresh, extract.read_edges_jsonl(work / "deps.jsonl"), ITEM)
            pruned = rebuild.plan(g, change, granularity=ITEM, honor_opacity=True)
            executed = rebuild.execute(pruned, fresh)
        checks.count(
            len(pruned.to_recheck),
            len(executed.failed) + len(executed.missing),
            "re-checked items that fail on the unedited corpus",
        )
        full = rebuild.plan(item_g, change, granularity=ITEM)
        by_file = rebuild.plan(item_g, change, granularity=FILE)
        checks.expect(set(pruned.to_recheck) <= set(full.to_recheck), "opacity-pruned plan exceeds the unpruned plan")
        checks.expect(set(full.to_recheck) <= set(by_file.to_recheck), "item plan exceeds the file plan")

    with clock.stage("speedup"):
        report = rebuild.speedup_report(item_g, samples=SPEEDUP_SAMPLES, rng_seed=seed)
        _dump(out / "speedup.json", report)
    checks.expect(report["item_total"] <= report["file_total"], "item plans cost more than file plans")
    return {"speedup.json": file_digest(out / "speedup.json")}


def run_learn(work: Path, seed: int, clock: Clock, checks: Checks) -> dict[str, str]:
    out = work / "out"
    problems = out / "problems"
    shutil.rmtree(problems, ignore_errors=True)
    out.mkdir(exist_ok=True)
    with clock.stage("load"):
        parsed = corpus.parse_corpus(work / "corpus")
        edges = extract.read_edges_jsonl(work / "deps.jsonl")
    with clock.stage("eval"):
        result = learn.evaluate_chrono(parsed, edges, K_VALUES, baseline_seed=seed)
        # Keys as ``depkit learn eval`` prints them.
        for key in ("recall_at_k", "baseline_recall_at_k"):
            result[key] = {str(k): v for k, v in result[key].items()}
        _dump(out / "eval.json", result)
    with clock.stage("export"):
        written = learn.export_problems(parsed, edges, EXPORT_K, problems)

    recalls = [result["recall_at_k"][str(k)] for k in K_VALUES]
    checks.expect(all(a <= b for a, b in zip(recalls, recalls[1:])), "recall@k decreases as k grows")
    checks.expect(result["evaluated"] > 0, "no theorem was evaluated")
    theorems = sum(1 for item in parsed.items if item.kind is corpus.ItemKind.THEOREM)
    checks.expect(len(written) == theorems, "one problem file per theorem")
    return {"eval.json": file_digest(out / "eval.json"), "problems": tree_digest(problems)}


RUNNERS = {"extract": run_extract, "rebuild": run_rebuild, "learn": run_learn}


def details(workload: str, clocks: list[Clock]) -> dict[str, float]:
    """Workload-specific end-to-end metrics: medians over the iterations."""
    def med(stage):
        return median(t for c in clocks for t in c.scaled[stage])

    if workload == "extract":
        return {"extract_s": med("extract"), "minimize_s": med("minimize")}
    if workload == "rebuild":
        return {
            "graph_s": med("graph"),
            "simulate_ms": 1000 * med("simulate"),
            "plans_per_s": 2 * SPEEDUP_SAMPLES / med("speedup"),
        }
    return {"learn_eval_s": med("eval"), "learn_export_s": med("export")}
