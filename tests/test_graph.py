"""Graph construction, closure, statistics, and exports."""

from __future__ import annotations

import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from depkit import extract
from depkit.corpus import Corpus, DepEdge, ItemKind, Opacity, Visibility, parse_source
from depkit.errors import CycleDetectedError, DepkitError, UnknownItemError
from depkit.extract import (
    edge_record,
    extract_corpus,
    read_edges_jsonl,
    trace_extract,
    write_edges_jsonl,
)
from depkit.gen import FAMILIES, generate_corpus
from depkit.graph import (
    DepGraph,
    Granularity,
    GraphStats,
    build_graph,
    build_graph_from_edges,
    cumulative_csv,
    kind_table,
    load_set,
    reverse_cumulative,
    stats,
    to_dot,
    transitive_closure,
)
from depkit.learn import dependency_map, evaluate_chrono
from depkit.normalize import normalize_corpus
from depkit.rebuild import ChangeKind, ChangeSet, plan, speedup_report

from _oracles import (
    file_rows_by_bits,
    reachable_pairs_bruteforce,
    read_edges_as_list,
    reverse_reach_by_bits,
    topological_order_by_rounds,
)
from conftest import corpus_from


def _chain3() -> tuple[Corpus, list[DepEdge]]:
    corpus = corpus_from("def a := lit;\nthm b : uses a by a;\nthm c : uses b by b;\n")
    return corpus, trace_extract(corpus)


def _edge(src, dst, vis=Visibility.EXPLICIT, opa=Opacity.TRANSPARENT) -> DepEdge:
    return DepEdge(src, dst, vis, opa)


def _edges_by_shifts(g: DepGraph) -> tuple[DepEdge, ...]:
    """``g``'s direct edges by the rule of the rows, bit by bit: for each
    set bit ``j`` of a row, explicit when bit ``j`` of its explicit row is
    set and transparent when bit ``j`` of its transparent row is."""
    return tuple(
        DepEdge(
            src,
            g.nodes[j],
            Visibility.EXPLICIT if expl >> j & 1 else Visibility.IMPLICIT,
            Opacity.TRANSPARENT if trans >> j & 1 else Opacity.OPAQUE,
        )
        for src, row, trans, expl in zip(g.nodes, g.deps, g.transparent, g.explicit)
        for j in range(row.bit_length())
        if row >> j & 1
    )


@given(
    nodes=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    density=st.sampled_from([0.02, 0.1, 0.4, 0.9]),
)
def test_edges_equal_the_shift_rule_on_random_graphs(nodes, seed, density):
    """``DepGraph.edges`` reads each row's attributes once; its edges, in
    order and with their attributes, are those of the shift rule, on random
    graphs with duplicate records and on their transitive closures."""
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    records = [
        DepEdge(names[i], names[j], rng.choice(list(Visibility)), rng.choice(list(Opacity)))
        for i in range(nodes)
        for j in range(i)
        for _ in range(rng.choice((1, 1, 2)))
        if rng.random() < density
    ]
    g = DepGraph(names, records, Granularity.ITEM)
    for graph in (g, transitive_closure(g)):
        assert graph.edges == _edges_by_shifts(graph)


def _flipped(edge: DepEdge, visibility: bool) -> DepEdge:
    """``edge`` with its visibility (or else its opacity) turned over."""
    vis, opa = edge.visibility, edge.opacity
    if visibility:
        vis = Visibility.IMPLICIT if vis is Visibility.EXPLICIT else Visibility.EXPLICIT
    else:
        opa = Opacity.OPAQUE if opa is Opacity.TRANSPARENT else Opacity.TRANSPARENT
    return DepEdge(edge.src, edge.dst, vis, opa)


@pytest.mark.parametrize("family", FAMILIES)
def test_edge_view_reads_as_the_tuple_of_the_shift_rule(family):
    """``g.edges`` is a view over the rows that ``len``, indexing, slicing,
    ``in`` and ``==`` treat as the tuple of the shift rule, on the item,
    file and closure graphs of every family."""
    item_g, _ = _generated_graph(family, 7, Granularity.ITEM)
    file_g, _ = _generated_graph(family, 7, Granularity.FILE)
    for g in (item_g, file_g, transitive_closure(item_g), transitive_closure(file_g)):
        edges, expected = g.edges, _edges_by_shifts(g)
        assert expected and tuple(edges) == expected
        assert len(edges) == len(expected)
        assert edges[0] == expected[0] and edges[-1] == expected[-1]
        assert edges[len(expected) // 2] == expected[len(expected) // 2]
        for index in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                expected[index]
            with pytest.raises(IndexError):
                edges[index]
        for part in (
            slice(None),
            slice(2, -1, 3),
            slice(-4, None),
            slice(None, None, -1),
            slice(-2, 1, -3),
            slice(len(expected) + 1, None),
        ):
            assert type(edges[part]) is tuple and edges[part] == expected[part]
        for edge in expected:
            assert edge in edges
            assert _flipped(edge, visibility=True) not in edges
            assert _flipped(edge, visibility=False) not in edges
        assert DepEdge("nowhere", expected[0].dst, Visibility.EXPLICIT, Opacity.OPAQUE) not in edges
        assert edges.index(expected[-1]) == len(expected) - 1
        assert tuple(reversed(edges)) == expected[::-1]
        assert edges == expected and expected == edges and not edges != expected
        assert edges == g.edges and g.edges == edges
        assert edges != expected[:-1] and expected[1:] != edges and edges != list(expected)
    assert item_g.edges != file_g.edges


def test_edge_view_of_an_empty_graph_is_empty():
    edges = DepGraph(["a", "b"], [], Granularity.ITEM).edges
    assert not edges and len(edges) == 0 and edges == () and () == edges
    assert edges[:] == () and _edge("b", "a") not in edges
    with pytest.raises(IndexError):
        edges[0]


def test_counting_closure_edges_builds_no_edge(monkeypatch):
    """``len`` of a closure's edges reads the rows: on a 1,000-item chain,
    whose closure holds 499,500 pairs, it builds no ``DepEdge`` and
    allocates less than 1 MB at peak, where a tuple of the pairs would take
    tens of MB."""
    files = generate_corpus(items=1000, seed=1, family="chain")
    corpus = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
    closure = transitive_closure(build_graph(corpus, trace_extract(corpus)))

    def refuse(self, *args):
        raise AssertionError("a DepEdge was built")

    monkeypatch.setattr(DepEdge, "__init__", refuse)
    tracemalloc.start()
    try:
        assert len(closure.edges) == 499_500
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _rows_from_positions_equal_the_bit_walk(g: DepGraph) -> None:
    """``g``'s reverse rows, and the file rows of all three kinds when it
    has a file map, equal those of the walk over every row's bits."""
    assert g.reverse_reach() == reverse_reach_by_bits(g)
    if g.files:
        file_g = g._file_projection()[0]
        assert (file_g.deps, file_g.transparent, file_g.explicit) == file_rows_by_bits(g)


@pytest.mark.parametrize("family", FAMILIES)
def test_positions_give_the_rows_of_the_bit_walk(family):
    """Folded positions (item graphs) and positions derived from rows (file
    projections and closures) give the transposition and the projection of
    the bit walk."""
    item_g, _ = _generated_graph(family, 7, Granularity.ITEM)
    file_g, _ = _generated_graph(family, 7, Granularity.FILE)
    for g in (item_g, file_g, transitive_closure(item_g), transitive_closure(file_g)):
        _rows_from_positions_equal_the_bit_walk(g)


@given(
    nodes=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    density=st.sampled_from([0.02, 0.1, 0.4, 0.9]),
    per_file=st.integers(min_value=1, max_value=6),
)
def test_positions_give_the_rows_of_the_bit_walk_on_random_graphs(nodes, seed, density, per_file):
    """The same on random graphs folded from duplicate edge records, whose
    files are runs of ``per_file`` nodes, and on their closures."""
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    records = [
        DepEdge(names[i], names[j], rng.choice(list(Visibility)), rng.choice(list(Opacity)))
        for i in range(nodes)
        for j in range(i)
        if rng.random() < density
        for _ in range(rng.choice((1, 1, 2)))
    ]
    files = {name: f"f{i // per_file}" for i, name in enumerate(names)}
    g = DepGraph(names, records, Granularity.ITEM, files=files)
    for graph in (g, transitive_closure(g)):
        _rows_from_positions_equal_the_bit_walk(graph)


def test_load_path_builds_no_edge(tmp_path, monkeypatch):
    """Reading deps and building, querying and ranking from the records
    builds no ``DepEdge``, and the read peaks below the list reader's on a
    file whose edge list outweighs one block's decoding."""
    files = generate_corpus(items=1500, seed=3, family="mixed")
    corpus = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
    path = tmp_path / "deps.jsonl"
    write_edges_jsonl(path, extract_corpus(corpus, mode="both"))

    def refuse(self, *args):
        raise AssertionError("a DepEdge was built")

    with monkeypatch.context() as patch:
        patch.setattr(DepEdge, "__init__", refuse)
        records = read_edges_jsonl(path)
        item_g = build_graph(corpus, records, Granularity.ITEM)
        file_g = build_graph(corpus, records, Granularity.FILE)
        stats(item_g), stats(file_g), reverse_cumulative(item_g)
        speedup_report(item_g, samples=50)
        plan(item_g, ChangeSet.single(corpus.items[0].name, ChangeKind.STATEMENT_OR_TYPE))
        build_graph_from_edges(records)
        dependency_map(records)
        evaluate_chrono(corpus, records, [1, 10], baseline_seed=1)
    assert len(records) == len(item_g.edges) > 2000

    peaks = []
    for read in (read_edges_jsonl, read_edges_as_list):
        read(path)  # warm: the first read's one-time allocations count for neither
        tracemalloc.start()
        try:
            read(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1]


# build_graph -----------------------------------------------------------------


def test_single_file_chain_projects_to_one_file_node():
    corpus, edges = _chain3()
    g = build_graph(corpus, edges, Granularity.FILE)
    assert g.nodes == ("inline.art",)
    assert g.edges == ()


def test_two_file_projection(tmp_path):
    (tmp_path / "file1.art").write_text("def a := lit;\n")
    (tmp_path / "file2.art").write_text("thm b : uses a by a;\n")
    from depkit.corpus import parse_corpus

    corpus = parse_corpus(tmp_path)
    g = build_graph(corpus, trace_extract(corpus), Granularity.FILE)
    assert [(e.src, e.dst) for e in g.edges] == [("file2.art", "file1.art")]


def test_five_file_fixture_file_edges_match_hand_count(five_file_corpus):
    normalized, _ = normalize_corpus(five_file_corpus)
    g = build_graph(normalized, trace_extract(normalized), Granularity.FILE)
    assert {(e.src, e.dst) for e in g.edges} == {
        ("b.art", "a.art"),
        ("c.art", "a.art"),
        ("c.art", "b.art"),
        ("d.art", "c.art"),
        ("e.art", "d.art"),
    }


@pytest.mark.parametrize(
    "attrs",
    [
        [(Visibility.IMPLICIT, Opacity.OPAQUE), (Visibility.EXPLICIT, Opacity.OPAQUE)],
        [(Visibility.IMPLICIT, Opacity.OPAQUE), (Visibility.IMPLICIT, Opacity.TRANSPARENT)],
        [(Visibility.EXPLICIT, Opacity.OPAQUE), (Visibility.IMPLICIT, Opacity.TRANSPARENT)],
        [(Visibility.IMPLICIT, Opacity.OPAQUE), (Visibility.IMPLICIT, Opacity.OPAQUE)],
        [
            (Visibility.IMPLICIT, Opacity.OPAQUE),
            (Visibility.EXPLICIT, Opacity.OPAQUE),
            (Visibility.IMPLICIT, Opacity.TRANSPARENT),
        ],
    ],
)
def test_duplicate_records_merge_alike_on_every_path(tmp_path, attrs):
    """Explicit wins and transparent wins, whichever record comes first."""
    corpus = Corpus(parse_source("def a := lit;", "a.art") + parse_source("def b := lit;", "b.art"))
    explicit = any(vis is Visibility.EXPLICIT for vis, _ in attrs)
    transparent = any(opa is Opacity.TRANSPARENT for _, opa in attrs)
    expected_vis = Visibility.EXPLICIT if explicit else Visibility.IMPLICIT
    expected_opa = Opacity.TRANSPARENT if transparent else Opacity.OPAQUE
    for order in itertools.permutations(attrs):
        records = [DepEdge("b", "a", vis, opa) for vis, opa in order]
        path = tmp_path / "deps.jsonl"
        path.write_text("".join(edge_record(e, "trace") + "\n" for e in records))
        (from_file,) = read_edges_jsonl(path)
        (in_graph,) = DepGraph(["a", "b"], records, Granularity.ITEM).edges
        (projected,) = build_graph(corpus, records, Granularity.FILE).edges
        assert from_file == in_graph == DepEdge("b", "a", expected_vis, expected_opa)
        assert projected == DepEdge("b.art", "a.art", expected_vis, expected_opa)


def test_read_edges_keeps_first_seen_order(tmp_path):
    records = [_edge("c", "a"), _edge("b", "a"), _edge("c", "a", Visibility.IMPLICIT), _edge("c", "b")]
    path = tmp_path / "deps.jsonl"
    path.write_text("".join(edge_record(e, "min") + "\n" for e in records))
    assert [e.pair() for e in read_edges_jsonl(path)] == [("c", "a"), ("b", "a"), ("c", "b")]


def test_unknown_item_rejected(redundant_hint_corpus):
    with pytest.raises(UnknownItemError):
        build_graph(redundant_hint_corpus, [_edge("t", "nowhere")])


def test_forward_edge_rejected(redundant_hint_corpus):
    """A forward edge or a self-edge, at file granularity too, although both
    ends lie in one file."""
    for granularity in Granularity:
        for edge in (_edge("f", "t"), _edge("t", "t")):
            with pytest.raises(CycleDetectedError):
                build_graph(redundant_hint_corpus, [edge], granularity)


def test_read_edges_builds_one_edge_per_distinct_pair(tmp_path, monkeypatch):
    records = [
        _edge("c", "a", Visibility.IMPLICIT, Opacity.OPAQUE),
        _edge("b", "a"),
        _edge("c", "a", Visibility.IMPLICIT),
        _edge("c", "b"),
        _edge("c", "a", opa=Opacity.OPAQUE),
    ]
    path = tmp_path / "deps.jsonl"
    path.write_text("".join(edge_record(e, m) + "\n" for m in ("trace", "min") for e in records))
    built = []

    def counting_edge(*args):
        built.append(args)
        return DepEdge(*args)

    monkeypatch.setattr(extract, "DepEdge", counting_edge)
    assert read_edges_jsonl(path) == [_edge("c", "a"), _edge("b", "a"), _edge("c", "b")]
    assert len(built) == 3


def test_build_graph_from_edges_topologically_sorts():
    g = build_graph_from_edges([_edge("c", "b"), _edge("b", "a")])
    assert g.nodes == ("a", "b", "c")
    for cycle in ([_edge("a", "b"), _edge("b", "a")], [_edge("a", "a")]):
        with pytest.raises(CycleDetectedError):
            build_graph_from_edges(cycle)


@pytest.mark.parametrize("family", FAMILIES)
def test_build_graph_from_edges_orders_like_round_based_sort(family):
    rng = random.Random(FAMILIES.index(family))
    for seed in (5, 6):
        files = generate_corpus(items=60, seed=seed, family=family, per_file=10)
        corpus = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
        edges = list(trace_extract(corpus))
        for _ in range(3):
            expected = topological_order_by_rounds(edges)
            assert build_graph_from_edges(edges).nodes == tuple(expected)
            rng.shuffle(edges)


# transitive_closure ----------------------------------------------------------


def test_closure_of_chain_matches_brute_force():
    corpus, edges = _chain3()
    g = build_graph(corpus, edges)
    closed = transitive_closure(g)
    assert {(e.src, e.dst) for e in closed.edges} == {("b", "a"), ("c", "b"), ("c", "a")}
    oracle = reachable_pairs_bruteforce(g.nodes, [e.pair() for e in g.edges])
    assert {(e.src, e.dst) for e in closed.edges} == oracle


def test_closure_identity_on_edgeless_graph(redundant_hint_corpus):
    g = build_graph(redundant_hint_corpus, [])
    assert transitive_closure(g).edges == ()


def test_closure_idempotent():
    corpus, edges = _chain3()
    closed = transitive_closure(build_graph(corpus, edges))
    again = transitive_closure(closed)
    assert again.edges == closed.edges


def test_closure_matches_brute_force_on_generated_corpora():
    for seed in (2, 6):
        files = generate_corpus(items=26, seed=seed, family="mixed")
        raw = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
        corpus, _ = normalize_corpus(raw)
        g = build_graph(corpus, trace_extract(corpus))
        closed = {(e.src, e.dst) for e in transitive_closure(g).edges}
        assert closed == reachable_pairs_bruteforce(g.nodes, [e.pair() for e in g.edges])


def test_closure_only_edge_attributes_follow_witnessing_paths():
    corpus = corpus_from(
        "def a := lit;\n"
        "def b : a := lit;\n"
        "thm c : uses b by b;\n"   # c -> b (opaque target? b transparent)
    )
    # b -> a transparent, c -> b transparent: closure edge c -> a transparent
    g = build_graph(corpus, trace_extract(corpus))
    closed = {(e.src, e.dst): e for e in transitive_closure(g).edges}
    assert closed[("c", "a")].opacity is Opacity.TRANSPARENT
    # with an opaque middle item every path to the root is blocked
    corpus2 = corpus_from(
        "def a := lit;\n"
        "def opaque b : a := lit;\n"
        "thm c : uses b by b;\n"
    )
    g2 = build_graph(corpus2, trace_extract(corpus2))
    closed2 = {(e.src, e.dst): e for e in transitive_closure(g2).edges}
    assert closed2[("c", "b")].opacity is Opacity.OPAQUE
    assert closed2[("c", "a")].opacity is Opacity.OPAQUE


# stats -----------------------------------------------------------------------


def test_stats_chain_of_three():
    corpus, edges = _chain3()
    s = stats(build_graph(corpus, edges))
    assert (s.items, s.deps, s.tdeps) == (3, 2, 3)
    assert s.p == 100.0
    assert s.arl == 1.0
    assert s.mrl == 1.0


def test_stats_from_published_pairs():
    corn_item = GraphStats.from_counts(items=9462, tdeps=3_614_445)
    assert abs(corn_item.p - 8.0) <= 0.1
    assert abs(corn_item.arl - 382.0) <= 0.5
    corn_file = GraphStats.from_counts(items=9462, tdeps=24_385_358)
    assert abs(corn_file.p - 54.5) <= 0.1
    assert abs(corn_file.arl - 2577.2) <= 0.5


def test_stats_streaming_equals_materialized_closure():
    for seed in (1, 4):
        files = generate_corpus(items=24, seed=seed, family="mixed")
        raw = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
        corpus, _ = normalize_corpus(raw)
        g = build_graph(corpus, trace_extract(corpus))
        s = stats(g)
        closed = transitive_closure(g)
        assert s.tdeps == len(closed.edges)
        recomputed = GraphStats.from_counts(
            items=len(g.nodes),
            tdeps=len(closed.edges),
            deps=len(g.edges),
            reverse_counts=g.reverse_counts(),
        )
        assert recomputed == s


@given(st.integers(min_value=2, max_value=400), st.integers(min_value=0))
def test_stats_formulas(items, tdeps):
    tdeps = tdeps % (items * (items - 1) // 2 + 1)
    s = GraphStats.from_counts(items=items, tdeps=tdeps)
    assert s.p == pytest.approx(100.0 * tdeps / (items * (items - 1) / 2))
    assert s.arl == pytest.approx(tdeps / items)


def test_kind_table_single_dependency():
    corpus = corpus_from("def d := lit;\nthm t : uses d by d;\n")
    table = kind_table(build_graph(corpus, trace_extract(corpus)))
    assert table["theorem"]["from"] == 1
    assert table["definition"]["to"] == 1


def test_kind_table_hints_differ_between_methods(redundant_hint_corpus):
    result = extract_corpus(redundant_hint_corpus, mode="both")
    trace_table = kind_table(build_graph(redundant_hint_corpus, result.trace_edges))
    min_table = kind_table(build_graph(redundant_hint_corpus, result.min_edges))
    assert trace_table["hint"]["to"] == 2
    assert min_table["hint"]["to"] == 1


def test_kind_table_from_counts_partition_deps(five_file_corpus):
    normalized, _ = normalize_corpus(five_file_corpus)
    g = build_graph(normalized, trace_extract(normalized))
    table = kind_table(g)
    assert sum(row["from"] for row in table.values()) == len(g.edges)
    assert sum(row["to"] for row in table.values()) == len(g.edges)


@pytest.mark.parametrize("family", FAMILIES)
def test_kind_table_from_rows_counts_the_edges(family):
    """The table read from the rows equals one count per edge of ``g.edges``,
    on the traced and the minimized graphs of every family."""
    for seed in (5, 6):
        files = generate_corpus(items=60, seed=seed, family=family, per_file=10)
        corpus = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
        result = extract_corpus(corpus)
        for edges in (result.trace_edges, result.min_edges):
            g = build_graph(corpus, edges)
            expected = {kind.value: {"from": 0, "to": 0} for kind in ItemKind}
            for edge in g.edges:
                expected[g.kinds[edge.src].value]["from"] += 1
                expected[g.kinds[edge.dst].value]["to"] += 1
            assert kind_table(g) == expected


def _generated_graph(family: str, seed: int, granularity: Granularity):
    """A generated corpus's graph, with its direct edges and their attributes
    worked out from the extracted records without ``DepGraph``: per (src,
    dst) pair, whether some record of it is explicit and some transparent."""
    files = generate_corpus(items=48, seed=seed, family=family, per_file=5)
    corpus = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
    records = trace_extract(corpus)
    home = {it.name: it.source_file for it in corpus.items}
    direct: dict[tuple[str, str], tuple[bool, bool]] = {}
    for edge in records:
        src, dst = edge.pair()
        if granularity is Granularity.FILE:
            src, dst = home[src], home[dst]
            if src == dst:
                continue
        explicit, transparent = direct.get((src, dst), (False, False))
        direct[(src, dst)] = (
            explicit or edge.visibility is Visibility.EXPLICIT,
            transparent or edge.opacity is Opacity.TRANSPARENT,
        )
    return build_graph(corpus, records, granularity), direct


@pytest.mark.parametrize("granularity", list(Granularity))
@pytest.mark.parametrize("family", FAMILIES)
def test_closure_queries_match_brute_force(family, granularity):
    for seed in (1, 2):
        g, direct = _generated_graph(family, seed, granularity)
        position = {name: i for i, name in enumerate(g.nodes)}
        assert [(e.src, e.dst) for e in g.edges] == sorted(
            direct, key=lambda pair: (position[pair[0]], position[pair[1]])
        )
        assert {
            e.pair(): (e.visibility is Visibility.EXPLICIT, e.opacity is Opacity.TRANSPARENT)
            for e in g.edges
        } == direct
        pairs = reachable_pairs_bruteforce(g.nodes, direct)
        forward = [{position[b] for a, b in pairs if a == name} for name in g.nodes]
        backward = [{position[a] for a, b in pairs if b == name} for name in g.nodes]
        assert [{j for j in range(len(g.nodes)) if bits >> j & 1} for bits in g.reach()] == forward
        assert [
            {j for j in range(len(g.nodes)) if bits >> j & 1} for bits in g.reverse_reach()
        ] == backward
        assert g.closure_counts() == (len(pairs), [len(users) for users in backward])
        assert stats(g).deps == len(direct)


@pytest.mark.parametrize("granularity", list(Granularity))
@pytest.mark.parametrize("family", FAMILIES)
def test_closure_edge_attributes_match_brute_force(family, granularity):
    """A closure-only edge is transparent (explicit) iff a path of transparent
    (explicit) edges joins its ends; a direct edge keeps its attributes."""
    for seed in (3, 4):
        g, direct = _generated_graph(family, seed, granularity)
        explicit_pairs = reachable_pairs_bruteforce(g.nodes, [p for p, a in direct.items() if a[0]])
        transparent_pairs = reachable_pairs_bruteforce(
            g.nodes, [p for p, a in direct.items() if a[1]]
        )
        closed = transitive_closure(g).edges
        assert {e.pair() for e in closed} == reachable_pairs_bruteforce(g.nodes, direct)
        for edge in closed:
            expected = direct.get(
                edge.pair(), (edge.pair() in explicit_pairs, edge.pair() in transparent_pairs)
            )
            assert (
                edge.visibility is Visibility.EXPLICIT,
                edge.opacity is Opacity.TRANSPARENT,
            ) == expected, edge


# reverse_cumulative ----------------------------------------------------------


def test_reverse_cumulative_chain():
    corpus, edges = _chain3()
    assert reverse_cumulative(build_graph(corpus, edges)) == [(0, 1), (1, 2), (2, 3)]


def test_reverse_cumulative_edgeless(redundant_hint_corpus):
    g = build_graph(redundant_hint_corpus, [])
    assert reverse_cumulative(g) == [(0, 5)]


def test_reverse_cumulative_is_monotone(five_file_corpus):
    normalized, _ = normalize_corpus(five_file_corpus)
    g = build_graph(normalized, trace_extract(normalized))
    counts = [count for _, count in reverse_cumulative(g)]
    assert counts == sorted(counts)
    assert counts[-1] == len(g.nodes)


def test_reverse_cumulative_matches_its_definition_on_a_generated_corpus():
    """For each threshold t, the number of nodes with at most t reverse
    dependents, with dependents counted by brute-force reachability."""
    files = generate_corpus(items=150, seed=3, family="mixed")
    raw = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
    corpus, _ = normalize_corpus(raw)
    g = build_graph(corpus, trace_extract(corpus))
    pairs = reachable_pairs_bruteforce(g.nodes, [e.pair() for e in g.edges])
    dependents = {node: sum(1 for _, dst in pairs if dst == node) for node in g.nodes}
    thresholds = sorted(set(dependents.values()))
    assert len(thresholds) > 10
    assert reverse_cumulative(g) == [
        (t, sum(1 for count in dependents.values() if count <= t)) for t in thresholds
    ]


# load_set --------------------------------------------------------------------


def test_load_set_isolated_item():
    corpus = corpus_from("def a := lit;")
    g = build_graph(corpus, [])
    assert load_set(g, "a") == ["a"]


def test_load_set_chain():
    corpus, edges = _chain3()
    g = build_graph(corpus, edges)
    assert load_set(g, "c") == ["a", "b", "c"]


def test_load_set_subset_of_prefix(five_file_corpus):
    normalized, _ = normalize_corpus(five_file_corpus)
    g = build_graph(normalized, trace_extract(normalized))
    order = {name: i for i, name in enumerate(g.nodes)}
    for name in g.nodes:
        loaded = load_set(g, name)
        assert loaded[-1] == name
        indices = [order[n] for n in loaded]
        assert indices == sorted(indices)
        assert all(i <= order[name] for i in indices)
    with pytest.raises(UnknownItemError):
        load_set(g, "ghost")


def test_projection_monotonicity(five_file_corpus):
    """Counted in items, file-based invalidation covers item-based."""
    normalized, _ = normalize_corpus(five_file_corpus)
    edges = trace_extract(normalized)
    item_g = build_graph(normalized, edges, Granularity.ITEM)
    file_g = build_graph(normalized, edges, Granularity.FILE)
    item_counts = dict(zip(item_g.nodes, item_g.reverse_counts()))
    files_of = {it.name: it.source_file for it in normalized.items}
    file_sizes: dict[str, int] = {}
    for f in files_of.values():
        file_sizes[f] = file_sizes.get(f, 0) + 1
    file_rev = dict(zip(file_g.nodes, file_g.reverse_reach()))
    for name, count in item_counts.items():
        home = files_of[name]
        bits = file_rev[home]
        affected = {home}
        while bits:
            low = bits & -bits
            affected.add(file_g.nodes[low.bit_length() - 1])
            bits ^= low
        items_invalidated = sum(file_sizes[f] for f in affected) - 1  # not x itself
        assert items_invalidated >= count


# exports ---------------------------------------------------------------------


def test_dot_and_csv_exports_are_deterministic(redundant_hint_corpus):
    result = extract_corpus(redundant_hint_corpus, mode="trace")
    g1 = build_graph(redundant_hint_corpus, result.trace_edges)
    g2 = build_graph(redundant_hint_corpus, list(result.trace_edges))
    assert to_dot(g1) == to_dot(g2)
    assert cumulative_csv(g1) == cumulative_csv(g2)
    assert to_dot(g1).startswith("digraph deps {")
    assert cumulative_csv(g1).splitlines()[0] == "threshold,item_count"


@pytest.mark.parametrize("bad", ['q"x.art', "q\\.art"])
def test_dot_rejects_a_file_name_it_cannot_quote(bad):
    """A file node is written between quotes as it is, so a path holding
    ``"`` or ``\\`` is rejected by name; other paths are written."""
    items = parse_source("def a := lit;\n", "sub/a.art") + parse_source(
        "thm b : uses a by a;\n", bad
    )
    corpus = Corpus(items)
    g = build_graph(corpus, trace_extract(corpus), Granularity.FILE)
    with pytest.raises(DepkitError, match=re.escape(repr(bad))):
        to_dot(g)
    good = Corpus(items[:1] + parse_source("thm b : uses a by a;\n", "q x.art"))
    dot = to_dot(build_graph(good, trace_extract(good), Granularity.FILE))
    assert '  "q x.art" -> "sub/a.art" [style=solid];' in dot.splitlines()
