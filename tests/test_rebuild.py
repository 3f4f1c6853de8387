"""Re-verification planning, opacity pruning, execution, and speedup measurement."""

from __future__ import annotations

import json
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from statistics import median

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depkit import rebuild
from depkit.corpus import Corpus, DepEdge, ItemKind, Opacity, Visibility, parse_source
from depkit.errors import CycleDetectedError, DepkitError, UnknownItemError
from depkit.extract import extract_corpus, trace_extract
from depkit.gen import FAMILIES, generate_corpus
from depkit.graph import DepGraph, Granularity, build_graph, build_graph_from_edges, stats
from depkit.normalize import normalize_corpus
from depkit.rebuild import (
    ChangeKind,
    ChangeSet,
    execute,
    plan,
    speedup_report,
)

from _oracles import reachable_pairs_bruteforce
from _oracles import speedup_report as speedup_report_by_lists
from conftest import corpus_from


def _generated(items: int, seed: int, family: str = "mixed", per_file: int = 10):
    files = generate_corpus(items=items, seed=seed, family=family, per_file=per_file)
    raw = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
    corpus, _ = normalize_corpus(raw)
    return corpus, build_graph(corpus, trace_extract(corpus))


def _dep(src: str, dst: str) -> DepEdge:
    return DepEdge(src, dst, Visibility.EXPLICIT, Opacity.TRANSPARENT)


# plan ------------------------------------------------------------------------


def test_plan_leaf_item_costs_one(opaque_chain_corpus):
    g = build_graph(opaque_chain_corpus, trace_extract(opaque_chain_corpus))
    p = plan(g, ChangeSet.single("c"))
    assert p.to_recheck == ("c",)
    assert p.cost == 1
    assert p.skipped_opaque == frozenset()


def test_plan_chain_statement_change_rechecks_all(opaque_chain_corpus):
    g = build_graph(opaque_chain_corpus, trace_extract(opaque_chain_corpus))
    p = plan(g, ChangeSet.single("a", ChangeKind.STATEMENT_OR_TYPE), honor_opacity=True)
    assert p.to_recheck == ("a", "b", "c")


def test_plan_opaque_body_change_prunes_dependents(opaque_chain_corpus):
    corpus = opaque_chain_corpus
    assert corpus.item("a").opacity is Opacity.OPAQUE
    g = build_graph(corpus, trace_extract(corpus))
    p = plan(g, ChangeSet.single("a", ChangeKind.BODY_ONLY), honor_opacity=True)
    assert p.to_recheck == ("a",)
    assert p.skipped_opaque == frozenset({"b", "c"})
    # without the opacity flag the same change invalidates everything
    blunt = plan(g, ChangeSet.single("a", ChangeKind.BODY_ONLY), honor_opacity=False)
    assert blunt.to_recheck == ("a", "b", "c")


def test_plan_transparent_body_change_propagates():
    corpus = corpus_from(
        "def base := lit;\nthm dep : uses base by base;\n"
    )
    g = build_graph(corpus, trace_extract(corpus))
    p = plan(g, ChangeSet.single("base", ChangeKind.BODY_ONLY), honor_opacity=True)
    assert p.to_recheck == ("base", "dep")


def test_plan_file_granularity_rechecks_whole_files(tmp_path):
    (tmp_path / "one.art").write_text("def a := lit;\ndef unrelated := lit;\n")
    (tmp_path / "two.art").write_text("thm b : uses a by a;\n")
    from depkit.corpus import parse_corpus

    corpus = parse_corpus(tmp_path)
    g = build_graph(corpus, trace_extract(corpus))
    p = plan(g, ChangeSet.single("a"), granularity=Granularity.FILE)
    assert p.to_recheck == ("a", "unrelated", "b")
    assert p.cost == 3


def test_plan_requires_known_items(opaque_chain_corpus):
    g = build_graph(opaque_chain_corpus, trace_extract(opaque_chain_corpus))
    with pytest.raises(UnknownItemError):
        plan(g, ChangeSet.single("ghost"))


def test_plan_is_topologically_ordered_and_contains_changed():
    corpus, g = _generated(items=40, seed=17)
    order = {name: i for i, name in enumerate(g.nodes)}
    for name in list(g.nodes)[::5]:
        p = plan(g, ChangeSet.single(name))
        indices = [order[n] for n in p.to_recheck]
        assert indices == sorted(indices)
        assert name in p.to_recheck


def _plan_from_reverse_reach(g, changes: ChangeSet, honor_opacity: bool):
    """The item plan as the union of the changed items' ``reverse_reach()``
    rows: (to_recheck, skipped_opaque)."""
    rev = g.reverse_reach()
    recheck = full = 0
    for name, kind in changes.changes:
        i = g.index_of(name)
        full |= 1 << i | rev[i]
        pruned = (
            honor_opacity and kind is ChangeKind.BODY_ONLY and g.opacities[name] is Opacity.OPAQUE
        )
        recheck |= 1 << i if pruned else 1 << i | rev[i]
    skipped = full & ~recheck
    return (
        tuple(n for j, n in enumerate(g.nodes) if recheck >> j & 1),
        frozenset(n for j, n in enumerate(g.nodes) if skipped >> j & 1),
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_item_plans_on_a_fresh_graph_equal_plans_from_the_reverse_reach_rows(family):
    """Every node, statement and body edits, with and without opacity, and
    random sets of up to five edits: a plan on a fresh graph equals the plan
    on a graph whose ``reverse_reach()`` table is built, and both equal the
    union of the changed items' rows."""
    rng = random.Random(FAMILIES.index(family))
    corpus, _ = _generated(items=60, seed=71, family=family)
    edges = trace_extract(corpus)
    built = build_graph(corpus, edges)
    built.reverse_reach()
    change_sets = [
        ChangeSet.single(name, kind) for name in built.nodes for kind in ChangeKind
    ] + [
        ChangeSet(tuple((rng.choice(built.nodes), rng.choice(list(ChangeKind))) for _ in range(k)))
        for k in (1, 2, 3, 5) for _ in range(25)
    ]
    skipped = 0
    for changes in change_sets:
        for honor in (False, True):
            fresh = plan(build_graph(corpus, edges), changes, Granularity.ITEM, honor)
            assert fresh == plan(built, changes, Granularity.ITEM, honor)
            expected = _plan_from_reverse_reach(built, changes, honor)
            assert (fresh.to_recheck, fresh.skipped_opaque) == expected
            skipped += len(fresh.skipped_opaque)
    rev = built.reverse_reach()
    prunable = any(
        built.opacities[n] is Opacity.OPAQUE and rev[i] for i, n in enumerate(built.nodes)
    )
    assert (skipped > 0) == prunable


def test_item_plans_never_build_the_reverse_reach_table(monkeypatch):
    corpus, g = _generated(items=60, seed=72)
    monkeypatch.setattr(DepGraph, "reverse_reach", lambda self: pytest.fail("reverse_reach"))
    for name in g.nodes:
        for kind in ChangeKind:
            for honor in (False, True):
                plan(g, ChangeSet.single(name, kind), Granularity.ITEM, honor)
    plan(g, ChangeSet(tuple((name, ChangeKind.BODY_ONLY) for name in g.nodes)), honor_opacity=True)


def test_item_plans_contained_in_file_plans_1000_changes():
    import random

    rng = random.Random(99)
    corpora = [_generated(items=60, seed=s, per_file=10) for s in (31, 32, 33)]
    for _ in range(1000):
        corpus, g = corpora[rng.randrange(len(corpora))]
        name = g.nodes[rng.randrange(len(g.nodes))]
        kind = rng.choice([ChangeKind.BODY_ONLY, ChangeKind.STATEMENT_OR_TYPE])
        opacity = rng.random() < 0.5
        item_plan = plan(g, ChangeSet.single(name, kind), Granularity.ITEM, opacity)
        file_plan = plan(g, ChangeSet.single(name, kind), Granularity.FILE, opacity)
        assert set(item_plan.to_recheck) <= set(file_plan.to_recheck)


def test_opacity_pruning_never_skips_transparent_reverse_paths():
    for seed in (41, 42, 43):
        corpus, g = _generated(items=45, seed=seed)
        transparent_pairs = reachable_pairs_bruteforce(
            g.nodes,
            [e.pair() for e in g.edges if e.opacity is Opacity.TRANSPARENT],
        )
        for name in g.nodes:
            p = plan(g, ChangeSet.single(name, ChangeKind.BODY_ONLY), honor_opacity=True)
            for skipped in p.skipped_opaque:
                assert (skipped, name) not in transparent_pairs, (name, skipped)


def test_file_plans_match_brute_force_file_closure():
    """Every item, both edit kinds, with and without opacity pruning."""
    for seed in (51, 52, 53):
        corpus, g = _generated(items=60, seed=seed, per_file=7)
        files_of = {it.name: it.source_file for it in corpus.items}
        file_nodes = list(dict.fromkeys(files_of[n] for n in g.nodes))
        file_edges = {
            (files_of[s], files_of[d]) for s, d in (e.pair() for e in g.edges)
            if files_of[s] != files_of[d]
        }
        file_pairs = reachable_pairs_bruteforce(file_nodes, file_edges)
        for name in g.nodes:
            home = files_of[name]
            dependents = {a for (a, b) in file_pairs if b == home}
            for kind in ChangeKind:
                for honor in (False, True):
                    propagates = (
                        not honor
                        or kind is ChangeKind.STATEMENT_OR_TYPE
                        or corpus.item(name).opacity is Opacity.TRANSPARENT
                    )
                    affected = {home} | (dependents if propagates else set())
                    skipped = dependents - affected
                    p = plan(g, ChangeSet.single(name, kind), Granularity.FILE, honor)
                    assert p.to_recheck == tuple(n for n in g.nodes if files_of[n] in affected)
                    assert p.skipped_opaque == frozenset(
                        n for n in g.nodes if files_of[n] in skipped
                    )


def _verdicts(corpus: Corpus) -> dict[str, bool]:
    return {
        item.name: corpus.accepts(item, corpus.candidate_environment(i))
        for i, item in enumerate(corpus.items)
    }


def _edit_symbols(items) -> list[str]:
    """Names a random edit may use: defined earlier, later, or nowhere."""
    names = [it.name for it in items if it.kind in (ItemKind.DEFINITION, ItemKind.THEOREM)]
    return names + ["nowhere"]


def _statement_edit(corpus: Corpus, rng: random.Random) -> tuple[str, ChangeKind, Corpus]:
    """One random statement edit: delete an item, or give a hint or a
    reservation other symbols."""
    items = list(corpus.items)
    symbols = _edit_symbols(items)
    editable = [i for i, it in enumerate(items) if it.kind in (ItemKind.HINT, ItemKind.RESERVATION)]
    if not editable or rng.random() < 0.4:
        i = rng.randrange(len(items))
        return items[i].name, ChangeKind.STATEMENT_OR_TYPE, Corpus(items[:i] + items[i + 1 :])
    i = rng.choice(editable)
    count = 1 if items[i].kind is ItemKind.RESERVATION else rng.randint(1, 2)
    items[i] = replace(items[i], statement_symbols=tuple(rng.sample(symbols, count)))
    return items[i].name, ChangeKind.STATEMENT_OR_TYPE, Corpus(items)


def _body_edit(corpus: Corpus, rng: random.Random) -> tuple[str, ChangeKind, Corpus]:
    """One random body edit: give a definition another body, or a theorem
    another justification (other references, or ``by auto``)."""
    items = list(corpus.items)
    symbols = _edit_symbols(items)
    i = rng.choice(
        [i for i, it in enumerate(items) if it.kind in (ItemKind.DEFINITION, ItemKind.THEOREM)]
    )
    picked = tuple(rng.sample(symbols, rng.randint(0, 2)))
    if items[i].kind is ItemKind.DEFINITION:
        items[i] = replace(items[i], body_symbols=picked)
    else:
        auto = rng.random() < 0.3
        items[i] = replace(items[i], by_refs=() if auto else picked, by_auto=auto)
    return items[i].name, ChangeKind.BODY_ONLY, Corpus(items)


@pytest.mark.parametrize("family", FAMILIES)
def test_item_plans_cover_every_verdict_an_edit_changes(family):
    """Rebuild soundness: recheck every item after a random statement edit
    and after a random body edit; each item whose verdict flips, or that is
    gone, is in the item plan of that edit, over traced and over minimized
    edges, with and without opacity."""
    rng = random.Random(FAMILIES.index(family))
    flipped_total = 0
    edited_flips = {ChangeKind.STATEMENT_OR_TYPE: 0, ChangeKind.BODY_ONLY: 0}
    for seed in (61, 62, 63):
        corpus, traced = _generated(items=40, seed=seed, family=family)
        minimized = build_graph(corpus, extract_corpus(corpus, mode="minimize").min_edges)
        before = _verdicts(corpus)
        for _ in range(25):
            for edit in (_statement_edit, _body_edit):
                name, kind, edited = edit(corpus, rng)
                after = _verdicts(edited)
                flipped = {n for n, ok in before.items() if after.get(n) is not ok}
                flipped_total += len(flipped - {name})
                edited_flips[kind] += name in flipped
                for g in (traced, minimized):
                    for honor in (False, True):
                        p = plan(g, ChangeSet.single(name, kind), Granularity.ITEM, honor)
                        assert flipped <= set(p.to_recheck), (name, flipped - set(p.to_recheck))
    assert flipped_total > 0 and all(edited_flips.values())


# execute ---------------------------------------------------------------------


def test_execute_noop_change_all_pass(five_file_corpus):
    corpus, _ = normalize_corpus(five_file_corpus)
    g = build_graph(corpus, trace_extract(corpus))
    p = plan(g, ChangeSet.single("plus"))
    report = execute(p, corpus)
    assert report.failed == ()
    assert set(report.passed) == set(p.to_recheck)
    assert report.verified_count == p.cost


def test_execute_after_deleting_needed_definition(five_file_corpus):
    corpus, _ = normalize_corpus(five_file_corpus)
    g = build_graph(corpus, trace_extract(corpus))
    p = plan(g, ChangeSet.single("plus"))
    edited = Corpus([it for it in corpus.items if it.name != "plus"])
    report = execute(p, edited)
    assert report.missing == ("plus",)
    failures = dict(report.failed)
    assert failures["plus_zero"] == "UnresolvedSymbol"
    assert "plus_comm" in failures


def test_execute_body_edit_of_transparent_def_rechecks_and_passes():
    corpus = corpus_from(
        "def helper := lit;\ndef base := lit;\nthm dep : uses base by base;\n"
    )
    g = build_graph(corpus, trace_extract(corpus))
    p = plan(g, ChangeSet.single("base", ChangeKind.BODY_ONLY), honor_opacity=True)
    assert p.to_recheck == ("base", "dep")
    edited = corpus_from(
        "def helper := lit;\ndef base := helper;\nthm dep : uses base by base;\n"
    )
    report = execute(p, edited)
    assert report.failed == ()
    assert set(report.passed) == {"base", "dep"}
    # an edit that breaks the body surfaces as a coded failure instead
    broken = corpus_from(
        "def helper := lit;\ndef base := missing;\nthm dep : uses base by base;\n"
    )
    report = execute(p, broken)
    assert dict(report.failed)["base"] == "UnresolvedSymbol"
    assert "dep" in report.passed


@pytest.mark.parametrize(
    "g",
    [
        build_graph_from_edges(trace_extract(corpus_from("def a := lit;\nthm t : uses a by a;\n"))),
        DepGraph(["a", "t"], [], Granularity.ITEM),
    ],
    ids=["from-edges", "no-edges"],
)
def test_file_plans_need_the_file_map(g):
    with pytest.raises(DepkitError, match="file map"):
        plan(g, ChangeSet.single("a"), Granularity.FILE)
    with pytest.raises(DepkitError, match="file map"):
        speedup_report(g, samples=2)


def test_file_plans_reject_files_out_of_topological_order():
    """Interleaved files whose items depend on each other both ways."""
    files = {"a": "f1.art", "b": "f2.art", "c": "f1.art"}
    g = DepGraph(["a", "b", "c"], [_dep("b", "a"), _dep("c", "b")], Granularity.ITEM, files=files)
    with pytest.raises(CycleDetectedError):
        plan(g, ChangeSet.single("a"), Granularity.FILE)


def test_file_projection_and_file_plans_never_read_edges(five_file_corpus, monkeypatch):
    """Both are built from the item graph's bit rows."""
    corpus, _ = normalize_corpus(five_file_corpus)
    edges = trace_extract(corpus)
    g = build_graph(corpus, edges)
    monkeypatch.setattr(DepGraph, "edges", property(lambda self: pytest.fail("read .edges")))
    build_graph(corpus, edges, Granularity.FILE)
    for item in corpus.items:
        plan(g, ChangeSet.single(item.name), Granularity.FILE)


# speedup_report --------------------------------------------------------------


def test_speedup_edgeless_one_item_per_file_ratio_is_one():
    corpus = corpus_from("def a := lit;", "a.art")
    items = list(corpus.items)
    for extra in ("b", "c"):
        items += parse_source(f"def {extra} := lit;", f"{extra}.art")
    corpus = Corpus(items)
    g = build_graph(corpus, [])
    report = speedup_report(g, samples=3)  # exhaustive: samples == items
    assert report["exhaustive"]
    assert report["item_mean"] == report["file_mean"] == 1.0
    assert report["ratio"] == 1.0


def test_speedup_matches_brute_force_recount_seed_42():
    corpus, g = _generated(items=100, seed=42, per_file=10)
    samples = 60
    report = speedup_report(g, samples=samples, rng_seed=42)

    import random

    rng = random.Random(42)
    picks = [g.nodes[rng.randrange(len(g.nodes))] for _ in range(samples)]
    item_pairs = reachable_pairs_bruteforce(g.nodes, [e.pair() for e in g.edges])
    files_of = {it.name: it.source_file for it in corpus.items}
    file_edges = {
        (files_of[s], files_of[d]) for s, d in (e.pair() for e in g.edges)
        if files_of[s] != files_of[d]
    }
    file_nodes = list(dict.fromkeys(files_of[n] for n in g.nodes))
    file_pairs = reachable_pairs_bruteforce(file_nodes, file_edges)
    item_total = 0
    file_total = 0
    for name in picks:
        item_total += 1 + sum(1 for (a, b) in item_pairs if b == name)
        affected = {files_of[name]} | {a for (a, b) in file_pairs if b == files_of[name]}
        file_total += sum(1 for n in g.nodes if files_of[n] in affected)
    assert report["item_total"] == item_total
    assert report["file_total"] == file_total
    assert report["ratio"] == pytest.approx((file_total / samples) / (item_total / samples))


def test_speedup_exhaustive_mean_equals_arl_plus_one():
    corpus, g = _generated(items=80, seed=7, per_file=8)
    report = speedup_report(g, samples=len(g.nodes))
    assert report["exhaustive"]
    s = stats(g)
    lhs = Fraction(report["item_total"], report["samples"]) - 1
    rhs = Fraction(s.tdeps, s.items)
    assert lhs == rhs
    assert report["item_mean"] - 1 == pytest.approx(s.arl)


@pytest.mark.parametrize("family", FAMILIES)
def test_exhaustive_speedup_counts_equal_plan_costs(family):
    """The popcount path agrees with plans made one node at a time."""
    _, g = _generated(items=60, seed=11, family=family, per_file=6)
    report = speedup_report(g, samples=len(g.nodes))
    for gran in (Granularity.ITEM, Granularity.FILE):
        costs = [plan(g, ChangeSet.single(name), gran).cost for name in g.nodes]
        assert report[f"{gran.value}_total"] == sum(costs)
        assert report[f"{gran.value}_median"] == float(median(costs))


def test_speedup_reproducible_for_same_seed():
    _, g = _generated(items=50, seed=3)
    assert speedup_report(g, 20, rng_seed=5) == speedup_report(g, 20, rng_seed=5)
    assert speedup_report(g, 20, rng_seed=5) != speedup_report(g, 20, rng_seed=6)


@settings(max_examples=150, deadline=None)
@given(
    nodes=st.integers(min_value=1, max_value=14),
    per_file=st.integers(min_value=1, max_value=5),
    edge_seed=st.integers(min_value=0, max_value=2**16),
    density=st.sampled_from([0.0, 0.2, 0.6]),
    side=st.sampled_from([-1, 0, 1]),
    gap=st.integers(min_value=1, max_value=40),
    rng_seed=st.integers(min_value=0, max_value=2**16),
)
def test_speedup_report_from_tallies_equals_the_report_from_pick_lists(
    nodes, per_file, edge_seed, density, side, gap, rng_seed
):
    """Byte for byte, on random graphs of contiguous files, with samples
    below, equal to (exhaustive) and above the node count."""
    samples = nodes + side * gap
    if samples < 1:
        samples = 1 + gap % nodes
    rng = random.Random(edge_seed)
    names = [f"n{i}" for i in range(nodes)]
    edges = [
        _dep(names[i], names[j]) for i in range(nodes) for j in range(i) if rng.random() < density
    ]
    files = {name: f"f{i // per_file}.art" for i, name in enumerate(names)}
    g = DepGraph(names, edges, Granularity.ITEM, files=files)
    report = speedup_report(g, samples, rng_seed=rng_seed)
    expected = speedup_report_by_lists(g, samples, rng_seed=rng_seed)
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)


def _speedup_peak(g: DepGraph, samples: int) -> int:
    tracemalloc.start()
    try:
        speedup_report(g, samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_speedup_memory_follows_the_graph_not_the_samples():
    """The picks are tallied per node: at 100·n samples the report peaks
    within twice its peak at n + 1 draws, where lists of picks and costs
    would take about 70 times as much."""
    _, g = _generated(items=300, seed=5)
    n = len(g.nodes)
    speedup_report(g, 1)  # the graph's cached rows are built outside the traced runs
    assert _speedup_peak(g, 100 * n) < 2 * _speedup_peak(g, n + 1)


def test_a_huge_sample_count_costs_time_not_memory(monkeypatch):
    """``--samples`` has no upper bound: a huge count is a long run, not a
    usage error, and memory stays that of the graph.  The run is stopped
    after 20·n draws instead of being run out."""

    class Stop(Exception):
        pass

    class CountedRandom(random.Random):
        draws = 0

        def randrange(self, n):
            CountedRandom.draws += 1
            if CountedRandom.draws > 20 * n:
                raise Stop
            return super().randrange(n)

    _, g = _generated(items=300, seed=5)
    n = len(g.nodes)
    speedup_report(g, 1)
    bound = 2 * _speedup_peak(g, n + 1)
    monkeypatch.setattr(rebuild.random, "Random", CountedRandom)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            speedup_report(g, 10**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert CountedRandom.draws == 20 * n + 1
    assert peak < bound
