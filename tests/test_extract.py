"""Decomposition, minimization (against an exhaustive oracle), and tracing."""

from __future__ import annotations

import json
import math
import random
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depkit.corpus import (
    KIND_FIELDS,
    Corpus,
    DepEdge,
    Environment,
    Item,
    ItemKind,
    Opacity,
    Visibility,
    parse_corpus,
    parse_source,
)
from depkit.errors import CorpusMismatchError, NotVerifiableError, ParseError
from depkit.extract import (
    EdgeRecords,
    Microarticle,
    _shrink,
    compare_json,
    compare_methods,
    decompose,
    edge_record,
    edges_from_minimization,
    event_lines,
    extract_corpus,
    minimize_env,
    read_edges_jsonl,
    trace_extract,
    write_edges_jsonl,
)
from depkit.gen import FAMILIES, generate_corpus
from depkit.graph import Granularity, build_graph
from depkit.normalize import normalize_corpus

from _oracles import (
    brute_force_minimal_env,
    compare_by_masks,
    min_edges_by_dep_edges,
    minimize_per_trial,
    read_edges_as_list,
    read_edges_by_line,
    shrink_per_trial,
    trace_edges_by_check,
)
from conftest import corpus_from


def _generated(items: int, seed: int, family: str = "mixed") -> Corpus:
    files = generate_corpus(items=items, seed=seed, family=family)
    raw = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
    normalized, _ = normalize_corpus(raw)
    return normalized


# decompose -------------------------------------------------------------------


def test_decompose_single_item():
    corpus = corpus_from("def a := lit;")
    (micro,) = decompose(corpus)
    assert micro.item.name == "a"
    assert micro.candidate_env.size() == 0


def test_decompose_candidate_envs_are_prefixes():
    corpus = corpus_from("def a := lit;\ndef b : a := lit;\nthm c : uses b by b;\n")
    micros = decompose(corpus)
    assert micros[2].candidate_env.definitions == ("a", "b")
    assert micros[2].candidate_env.theorems == ()


def test_decompose_five_file_fixture_has_23_microarticles(five_file_corpus):
    normalized, _ = normalize_corpus(five_file_corpus)
    assert len(decompose(normalized)) == 23


# minimize_env ----------------------------------------------------------------


def test_minimize_no_symbols_gives_empty_env():
    corpus = corpus_from("def a := lit;\ndef b := lit;\nthm t : ;\n")
    micro = decompose(corpus)[2]
    result = minimize_env(corpus, micro)
    assert result.minimal_env.size() == 0
    assert result.removed[ItemKind.DEFINITION] == 2


def test_minimize_redundant_hint_fixture_matches_exhaustive_oracle(redundant_hint_corpus):
    corpus = redundant_hint_corpus
    micro = decompose(corpus)[corpus.index_of("t")]
    assert micro.candidate_env.size() == 4  # f, g, h1, h2: 2**4 subsets
    result = minimize_env(corpus, micro)
    assert result.minimal_env.definitions == ("f",)
    assert result.minimal_env.hints == ("h1",)
    oracle = brute_force_minimal_env(corpus, micro.item, micro.candidate_env)
    assert result.minimal_env == oracle


def test_minimize_not_verifiable_signals_corpus_bug():
    corpus = corpus_from("def a := lit;\nthm t : uses missing;\n")
    micro = decompose(corpus)[1]
    with pytest.raises(NotVerifiableError):
        minimize_env(corpus, micro)


def test_minimize_equals_oracle_on_small_generated_corpora():
    for seed in range(30):
        corpus = _generated(items=13, seed=seed)
        for micro in decompose(corpus):
            if micro.candidate_env.size() > 12:
                continue
            result = minimize_env(corpus, micro)
            oracle = brute_force_minimal_env(corpus, micro.item, micro.candidate_env)
            assert result.minimal_env == oracle, micro.item.name


def test_minimize_results_verify_and_are_1_minimal():
    for seed in (3, 4):
        corpus = _generated(items=35, seed=seed)
        for micro in decompose(corpus):
            result = minimize_env(corpus, micro)
            env = result.minimal_env
            assert corpus.accepts(micro.item, env)
            assert env.is_subenv_of(micro.candidate_env)
            for name in env.all_names():
                stripped = env.restrict(frozenset(env.all_names()) - {name})
                assert not corpus.accepts(micro.item, stripped), (micro.item.name, name)


def test_minimized_subset_of_traced_everywhere():
    for seed in (7, 8):
        corpus = _generated(items=30, seed=seed)
        result = extract_corpus(corpus, mode="both")
        traced = {}
        for edge in result.trace_edges:
            traced.setdefault(edge.src, set()).add(edge.dst)
        for res in result.minimization:
            assert set(res.minimal_env.all_names()) <= traced.get(res.item_name, set())


def test_seeding_soundness_and_call_counts():
    """Seeded and unseeded minimization agree; a verifying seed never costs more."""
    for seed in (11, 12):
        corpus = _generated(items=28, seed=seed)
        trace = trace_extract(corpus)
        targets = {}
        for edge in trace:
            targets.setdefault(edge.src, []).append(edge.dst)
        for micro in decompose(corpus):
            plain = minimize_env(corpus, micro)
            seeded = minimize_env(
                corpus, micro, seed_targets=targets.get(micro.item.name, [])
            )
            assert plain.minimal_env == seeded.minimal_env
            assert seeded.oracle_calls <= plain.oracle_calls


@settings(max_examples=40, deadline=None)
@given(
    items=st.integers(min_value=60, max_value=150),
    seed=st.integers(min_value=0, max_value=2**16),
    family=st.sampled_from(FAMILIES),
)
def test_seeded_and_unseeded_minimization_agree(items, seed, family):
    """Per item, minimizing inside the trace seed gives the same minimal
    environment as minimizing the whole candidate environment, whose kind
    lists are slices of the corpus position lists; so the edges agree too."""
    corpus = _generated(items=items, seed=seed, family=family)
    seeded = extract_corpus(corpus, mode="both")
    unseeded = extract_corpus(corpus, mode="both", seed_from_trace=False)
    assert [r.item_name for r in seeded.minimization] == [item.name for item in corpus.items]
    for s, u in zip(seeded.minimization, unseeded.minimization):
        assert s.minimal_env == u.minimal_env, s.item_name
    assert seeded.min_edges == unseeded.min_edges


def test_oracle_call_count_bound_on_fixtures(five_file_corpus):
    """calls <= 4 k log2(n) + n for n candidates, k kept."""
    normalized, _ = normalize_corpus(five_file_corpus)
    corpora = [normalized] + [_generated(items=34, seed=s) for s in (21, 22)]
    for corpus in corpora:
        for micro in decompose(corpus):
            result = minimize_env(corpus, micro)
            n = micro.candidate_env.size()
            k = result.minimal_env.size()
            bound = 4 * k * max(1.0, math.log2(n)) + n if n else 0
            assert result.oracle_calls <= bound, (micro.item.name, result.oracle_calls, bound)


@pytest.mark.parametrize(
    "items, seed, seeded_calls, unseeded_calls, unseeded_removed",
    [(60, 3, 195, 947, 1641), (150, 11, 455, 3048, 10893)],
)
def test_exact_minimization_effort(items, seed, seeded_calls, unseeded_calls, unseeded_removed):
    """Pinned oracle-call and removal totals: any change to which trials the
    shrink makes, or in which order, moves them."""
    corpus = _generated(items=items, seed=seed)
    seeded = extract_corpus(corpus, mode="both").minimization
    unseeded = extract_corpus(corpus, mode="minimize").minimization
    assert sum(r.oracle_calls for r in seeded) == seeded_calls
    assert sum(r.oracle_calls for r in unseeded) == unseeded_calls
    assert sum(sum(r.removed.values()) for r in unseeded) == unseeded_removed


@st.composite
def _rule_sets(draw):
    """A kind of ``n`` positions, the indices of the ones some rule reads
    (local bits ``0 .. m-1``), a few read positions of other kinds (local
    bits from ``m`` on, each held or not), and monotone rules over those
    bits: required bits, per variable a list of alternative pairs, and
    maybe a hints mask.  The state of every held bit verifies."""
    n = draw(st.integers(min_value=0, max_value=40))
    read = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=min(n, 8))))
    m = len(read)
    outside = draw(st.integers(min_value=0, max_value=3))
    width = m + outside
    held = (1 << m) - 1 | draw(st.integers(0, (1 << outside) - 1)) << m
    bits = st.integers(min_value=1, max_value=(1 << width) - 1) if width else st.just(0)
    required = draw(st.integers(0, (1 << width) - 1)) & held if width else 0
    pairs = draw(st.lists(st.lists(bits, min_size=1, max_size=3), max_size=3))
    hints = draw(st.one_of(st.none(), st.integers(1, (1 << m) - 1))) if m else None
    return n, read, held, required, pairs, hints


@settings(max_examples=300, deadline=None)
@given(rules=_rule_sets())
def test_index_search_equals_the_per_trial_search_on_random_rules(rules):
    """On random monotone rules, the search over indices keeps the same
    positions and counts the same trials as the per-trial search over
    positions (``_oracles.shrink_per_trial``), whose every trial tests the
    rules on the local bits of the read positions it holds."""
    n, read, held, required, pairs, hints = rules

    def verifies(state: int) -> bool:
        if state & required != required:
            return False
        if not all(any(state & pair == pair for pair in alternatives) for alternatives in pairs):
            return False
        return hints is None or state & hints != 0

    assume(verifies(held))
    outside = held >> len(read) << len(read)
    trials = 0

    def still_ok(trial: int) -> bool:
        nonlocal trials
        trials += 1
        state = outside
        for bit, pos in enumerate(read):
            state |= (trial >> pos & 1) << bit
        return verifies(state)

    kept = shrink_per_trial(list(range(n)), (1 << n) - 1, still_ok)
    reads = [(pos, 1 << bit) for bit, pos in enumerate(read)]
    state, calls = _shrink(n, reads, held, required, verifies)
    assert calls == trials
    assert kept == sum(1 << pos for bit, pos in enumerate(read) if state >> bit & 1)
    assert state >> len(read) << len(read) == outside


@settings(max_examples=20, deadline=None)
@given(
    items=st.integers(min_value=30, max_value=90),
    seed=st.integers(min_value=0, max_value=2**16),
)
@pytest.mark.parametrize("family", FAMILIES)
def test_minimize_equals_the_per_trial_search_on_every_family(family, items, seed):
    """Per item of every family, seeded by its trace and unseeded, and on a
    candidate cut to a random part of it that still verifies (a mask that
    is no prefix): ``minimal_env``, ``oracle_calls`` and ``removed`` equal
    those of the search that tries every chunk
    (``_oracles.minimize_per_trial``)."""
    corpus = _generated(items=items, seed=seed, family=family)
    rng = random.Random(seed)
    seeds: dict[str, list[str]] = {}
    for edge in trace_extract(corpus):
        seeds.setdefault(edge.src, []).append(edge.dst)
    for micro in decompose(corpus):
        traced = seeds.get(micro.item.name, [])
        part = micro.candidate_env.restrict(
            frozenset(traced) | {n for n in micro.candidate_env.all_names() if rng.random() < 0.5}
        )
        for candidate in (micro, Microarticle(item=micro.item, candidate_env=part)):
            for seed_targets in (None, traced):
                result = minimize_env(corpus, candidate, seed_targets=seed_targets)
                mask, calls, removed = minimize_per_trial(
                    corpus, micro.item, candidate.candidate_env, seed_targets
                )
                assert corpus._bits_of(result.minimal_env) == mask, micro.item.name
                assert result.oracle_calls == calls, micro.item.name
                assert result.removed == removed, micro.item.name


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_shrink_counts_the_passes_of_required_reads_as_the_per_trial_search(n, data):
    """Once every remaining read is required, ``_shrink`` counts the rest
    of its passes over the read indices alone; at up to 10k positions its
    trials and state equal those of ``_oracles.shrink_per_trial``, whose
    every trial tests the local bits of the read positions it holds.  A few
    reads may be optional (their removal verifies), so the counting starts
    after the passes that remove them."""
    read = sorted(data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=min(n, 6))))
    optional = data.draw(st.integers(0, (1 << len(read)) - 1)) if data.draw(st.booleans()) else 0
    held = (1 << len(read)) - 1
    required = held & ~optional

    def verifies(state: int) -> bool:
        return state & required == required

    trials = 0

    def still_ok(trial: int) -> bool:
        nonlocal trials
        trials += 1
        return verifies(sum((trial >> pos & 1) << bit for bit, pos in enumerate(read)))

    kept = shrink_per_trial(list(range(n)), (1 << n) - 1, still_ok)
    reads = [(pos, 1 << bit) for bit, pos in enumerate(read)]
    state, calls = _shrink(n, reads, held, required, verifies)
    assert calls == trials
    assert state == required
    assert kept == sum(1 << pos for bit, pos in enumerate(read) if required >> bit & 1)


def test_unseeded_minimization_checks_few_of_its_trials(monkeypatch):
    """Most trials of an unseeded run are decided by counting: their chunk
    holds no position the item's rules read, or a required one.  The
    compiled check runs fewer times than a quarter of ``oracle_calls``."""
    corpus = _generated(items=150, seed=11)
    evaluations = 0
    compile_local = Corpus._compile_local

    def counting_compile(self, item):
        reads, required, verifies = compile_local(self, item)

        def counted(state: int) -> bool:
            nonlocal evaluations
            evaluations += 1
            return verifies(state)

        return reads, required, counted

    monkeypatch.setattr(Corpus, "_compile_local", counting_compile)
    minimization = extract_corpus(corpus, mode="minimize").minimization
    calls = sum(r.oracle_calls for r in minimization)
    assert calls == 3048
    assert 0 < evaluations < calls / 4


def test_unseeded_minimization_builds_no_environment_per_trial(monkeypatch):
    """Trials are masks: the run builds a small constant number of
    ``Environment`` objects per item (the candidate and the minimal one),
    while it makes about 20 trials per item."""
    corpus = _generated(items=150, seed=11)
    built = 0
    of = Environment._of.__func__

    def counting_of(cls, table, mask):
        nonlocal built
        built += 1
        return of(cls, table, mask)

    monkeypatch.setattr(Environment, "_of", classmethod(counting_of))
    minimization = extract_corpus(corpus, mode="minimize").minimization
    assert sum(r.oracle_calls for r in minimization) > 10 * len(corpus)
    assert built <= 3 * len(corpus)


def test_minimize_matches_a_candidate_environment_built_by_name_to_corpus_positions():
    """A candidate built by name is matched to corpus positions once, by
    name and kind: its own order plays no part, and a name the corpus does
    not hold is neither searched nor counted as removed."""
    corpus = _generated(items=40, seed=5)
    for micro in decompose(corpus):
        env = micro.candidate_env
        lists = {attr: tuple(reversed(env.names(kind))) for kind, attr in KIND_FIELDS.items()}
        lists["hints"] += ("not_in_the_corpus",)
        by_name = Microarticle(item=micro.item, candidate_env=Environment(**lists))
        expected = minimize_env(corpus, micro)
        got = minimize_env(corpus, by_name)
        assert got.minimal_env == expected.minimal_env, micro.item.name
        assert got.oracle_calls == expected.oracle_calls
        assert got.removed == expected.removed


@pytest.mark.parametrize("family", FAMILIES)
def test_removed_counts_the_candidate_names_the_minimal_environment_lacks(family):
    """Per kind, ``removed`` is the number of the candidate's names of that
    kind that the minimal environment lacks, counting only names the corpus
    holds under that kind: for seeded and unseeded runs, and for candidates
    built by name that also list a name the corpus lacks."""
    corpus = _generated(items=80, seed=9, family=family)
    seeds: dict[str, list[str]] = {}
    for edge in trace_extract(corpus):
        seeds.setdefault(edge.src, []).append(edge.dst)
    for micro in decompose(corpus):
        env = micro.candidate_env
        lists = {attr: env.names(kind) + (f"no_{attr}",) for kind, attr in KIND_FIELDS.items()}
        by_name = Microarticle(item=micro.item, candidate_env=Environment(**lists))
        for candidate in (micro, by_name):
            for seed in (None, seeds.get(micro.item.name, [])):
                result = minimize_env(corpus, candidate, seed_targets=seed)
                for kind in ItemKind:
                    held = {
                        name
                        for name in candidate.candidate_env.names(kind)
                        if name in corpus and corpus.item(name).kind is kind
                    }
                    expected = len(held - set(result.minimal_env.names(kind)))
                    assert result.removed[kind] == expected, (micro.item.name, kind, seed)


@settings(max_examples=10, deadline=None)
@given(
    items=st.integers(min_value=20, max_value=120),
    seed=st.integers(min_value=0, max_value=2**16),
)
@pytest.mark.parametrize("family", FAMILIES)
def test_extraction_records_read_as_the_edges_built_one_per_dependency(family, items, seed):
    """Seeded and unseeded, each method's records read as the list of one
    ``DepEdge`` per dependency: the trace's as ``check_item``'s traces
    (``_oracles.trace_edges_by_check``), the minimal environments' as the
    edges ``_oracles.min_edges_by_dep_edges`` builds.  ``len``, indexing
    and ``==`` hold as for those lists, between results and against lists."""
    corpus = _generated(items=items, seed=seed, family=family)
    seeded = extract_corpus(corpus, mode="both")
    unseeded = extract_corpus(corpus, mode="both", seed_from_trace=False)
    trace = trace_edges_by_check(corpus)
    minimal = min_edges_by_dep_edges(corpus, seeded.minimization)
    for result in (seeded, unseeded):
        assert list(result.trace_edges) == trace
        assert list(result.min_edges) == min_edges_by_dep_edges(corpus, result.minimization)
    assert list(extract_corpus(corpus, mode="trace").trace_edges) == trace
    assert list(extract_corpus(corpus, mode="minimize").min_edges) == minimal
    for edges, expected in ((seeded.trace_edges, trace), (seeded.min_edges, minimal)):
        assert len(edges) == len(expected)
        assert edges == expected and not edges != expected
        for index in (0, len(expected) // 2, -1):
            if expected:
                assert edges[index] == expected[index]
    assert seeded.trace_edges == unseeded.trace_edges
    assert seeded.min_edges == unseeded.min_edges
    assert (seeded.trace_edges == seeded.min_edges) == (trace == minimal)


@settings(max_examples=10, deadline=None)
@given(
    items=st.integers(min_value=20, max_value=120),
    seed=st.integers(min_value=0, max_value=2**16),
)
@pytest.mark.parametrize("family", FAMILIES)
def test_compare_methods_reads_the_masks_report(family, items, seed):
    """The comparison read off positions equals the one read off corpus
    masks (``_oracles.compare_by_masks``): for the extracted records, and
    for a shuffled part of the trace as a tuple of edges, which leaves some
    minimal dependencies untraced."""
    corpus = _generated(items=items, seed=seed, family=family)
    result = extract_corpus(corpus, mode="both")
    edges = list(result.trace_edges)
    random.Random(seed).shuffle(edges)
    part = tuple(edges[: len(edges) // 2])
    for trace in (result.trace_edges, part):
        report = compare_methods(corpus, trace, result.minimization)
        assert report == compare_by_masks(corpus, trace, result.minimization)


def test_extraction_builds_no_edge(tmp_path, monkeypatch):
    """Extraction in every mode, the records' writer, the event lines and
    the comparison of the two methods build no ``DepEdge``: the results are
    records, read by their columns."""
    corpus = _generated(items=400, seed=4)

    def refuse(self, *args):
        raise AssertionError("a DepEdge was built")

    with monkeypatch.context() as patch:
        patch.setattr(DepEdge, "__init__", refuse)
        results = [
            extract_corpus(corpus, mode=mode, seed_from_trace=seeded)
            for mode in ("trace", "minimize", "both")
            for seeded in (True, False)
        ]
        both = results[-2]
        write_edges_jsonl(tmp_path / "deps.jsonl", both)
        event_lines(corpus, both.trace_edges)
        report = compare_methods(corpus, both.trace_edges, both.minimization)
        assert both.min_edges == results[-1].min_edges
    assert report["totals"]["common"] == len(both.min_edges) > len(corpus)


# trace_extract ---------------------------------------------------------------


def test_trace_literal_definition_has_no_edges_and_empty_event():
    corpus = corpus_from("def a := lit;")
    edges = trace_extract(corpus)
    assert edges == []
    assert event_lines(corpus, edges) == ["dependencies: (empty list)"]


def test_trace_auto_records_every_applicable_hint(redundant_hint_corpus):
    edges = trace_extract(redundant_hint_corpus)
    t_edges = [(e.src, e.dst) for e in edges if e.src == "t"]
    assert t_edges == [("t", "f"), ("t", "h1"), ("t", "h2")]


def test_trace_merges_duplicate_origins_into_one_explicit_edge():
    corpus = corpus_from("def a := lit;\nthm b : uses a by a;\n")
    edges = trace_extract(corpus)
    assert [(e.src, e.dst, e.visibility.value) for e in edges] == [("b", "a", "explicit")]


def test_trace_event_stream_lines(redundant_hint_corpus):
    edges = trace_extract(redundant_hint_corpus)
    assert event_lines(redundant_hint_corpus, edges) == [
        "dependencies: (empty list)",
        "dependencies: (empty list)",
        "dependencies: f",
        "dependencies: f",
        "dependencies: f h1 h2",
    ]


def test_trace_not_verifiable():
    corpus = corpus_from("thm t : uses nothing;\n")
    with pytest.raises(NotVerifiableError):
        trace_extract(corpus)


# compare_methods -------------------------------------------------------------


def test_compare_on_redundant_hint_fixture(redundant_hint_corpus):
    result = extract_corpus(redundant_hint_corpus, mode="both")
    report = compare_methods(
        redundant_hint_corpus, result.trace_edges, result.minimization
    )
    assert report["per_item"]["t"] == {
        "trace_only": ["h2"],
        "min_only": [],
        "common": ["f", "h1"],
    }
    assert report["totals"]["min_only"] == 0


def test_compare_identical_without_automation():
    corpus = _generated(items=25, seed=5, family="chain")
    result = extract_corpus(corpus, mode="both")
    report = compare_methods(corpus, result.trace_edges, result.minimization)
    assert report["totals"]["trace_only"] == 0
    assert report["totals"]["min_only"] == 0


def test_compare_empty_corpus():
    corpus = Corpus([])
    result = extract_corpus(corpus, mode="both")
    report = compare_methods(corpus, result.trace_edges, result.minimization)
    assert report["per_item"] == {}
    assert report["totals"] == {"trace_only": 0, "min_only": 0, "common": 0}


@pytest.mark.parametrize("source", ["redundant_hint", "five_files", "opaque_chain", "gen", "empty"])
def test_compare_json_equals_the_indented_dump(fixtures_dir, source):
    """``compare_json`` writes the bytes of ``json.dumps(indent=2,
    sort_keys=True)`` plus a line end, on items with empty and nonempty lists."""
    if source == "gen":
        corpus = _generated(items=300, seed=3, family="mixed")
    elif source == "empty":
        corpus = Corpus([])
    else:
        corpus = parse_corpus(fixtures_dir / source)
    result = extract_corpus(corpus, mode="both")
    report = compare_methods(corpus, result.trace_edges, result.minimization)
    assert compare_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"
    lists = [names for entry in report["per_item"].values() for names in entry.values()]
    if source == "gen":
        assert any(not names for names in lists) and any(len(names) > 1 for names in lists)


def test_compare_json_escapes_names_as_the_dump_does():
    names = ['q"x', "back\\slash", "caf\u00e9", "tab\tname", "plain"]
    report = {
        "per_item": {
            name: {"trace_only": names[:i], "min_only": [], "common": names[i:]}
            for i, name in enumerate(names)
        },
        "totals": {"trace_only": 10, "min_only": 0, "common": 15},
    }
    assert compare_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_compare_rejects_mismatched_corpora(redundant_hint_corpus):
    other = corpus_from("def x := lit;")
    result = extract_corpus(other, mode="both")
    with pytest.raises(CorpusMismatchError):
        compare_methods(redundant_hint_corpus, result.trace_edges, result.minimization)


@pytest.mark.parametrize("src, dst", [("ghost", "f"), ("t", "ghost")])
def test_compare_rejects_trace_edges_outside_the_corpus(redundant_hint_corpus, src, dst):
    result = extract_corpus(redundant_hint_corpus, mode="both")
    edge = DepEdge(src, dst, Visibility.EXPLICIT, Opacity.TRANSPARENT)
    with pytest.raises(CorpusMismatchError, match="ghost"):
        compare_methods(redundant_hint_corpus, (*result.trace_edges, edge), result.minimization)


# orchestration and records ---------------------------------------------------


def test_extract_jobs_do_not_change_results():
    corpus = _generated(items=40, seed=13)
    single = extract_corpus(corpus, mode="both", jobs=1)
    pooled = extract_corpus(corpus, mode="both", jobs=8)
    assert single.trace_edges == pooled.trace_edges
    assert single.min_edges == pooled.min_edges
    assert [r.minimal_env for r in single.minimization] == [
        r.minimal_env for r in pooled.minimization
    ]


def test_extract_corpus_rejects_jobs_below_one():
    corpus = _generated(items=10, seed=1)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            extract_corpus(corpus, mode="both", jobs=jobs)


def test_min_edges_match_minimal_envs(redundant_hint_corpus):
    result = extract_corpus(redundant_hint_corpus, mode="minimize")
    pairs = {(e.src, e.dst) for e in result.min_edges}
    assert ("t", "f") in pairs and ("t", "h1") in pairs
    assert ("t", "h2") not in pairs
    regenerated = edges_from_minimization(redundant_hint_corpus, result.minimization)
    assert list(result.min_edges) == regenerated


def test_jsonl_round_trip(tmp_path, redundant_hint_corpus):
    result = extract_corpus(redundant_hint_corpus, mode="both")
    path = tmp_path / "deps.jsonl"
    write_edges_jsonl(path, result)
    first_line = path.read_text().splitlines()[0]
    assert first_line.startswith('{"from":')
    trace = read_edges_jsonl(path, method="trace")
    minimized = read_edges_jsonl(path, method="min")
    assert {(e.src, e.dst) for e in trace} == {(e.src, e.dst) for e in result.trace_edges}
    assert {(e.src, e.dst) for e in minimized} == {
        (e.src, e.dst) for e in result.min_edges
    }
    merged = read_edges_jsonl(path, method="any")
    assert {(e.src, e.dst) for e in merged} == {(e.src, e.dst) for e in trace}


@pytest.mark.parametrize("family", FAMILIES)
def test_edge_records_equal_json_dumps(family):
    result = extract_corpus(_generated(items=120, seed=9, family=family), mode="both")
    for edges, method in ((result.trace_edges, "trace"), (result.min_edges, "min")):
        for edge in edges:
            expected = json.dumps(
                {
                    "from": edge.src,
                    "to": edge.dst,
                    "vis": edge.visibility.value,
                    "opacity": edge.opacity.value,
                    "method": method,
                },
                separators=(",", ":"),
            )
            assert edge_record(edge, method) == expected


@pytest.mark.parametrize("bad", ['a"b', "a\\b", "caf\u00e9", "a b", "a\nb", "1a", "a-b", ""])
def test_writer_rejects_names_outside_the_identifier_rule_before_writing(tmp_path, bad):
    """Records are formatted without escaping, so a name the lexer could not
    have produced (an ``Item`` built by hand) stops the writer before it
    touches the file; here the name is both a source and a target."""
    corpus = Corpus(
        [
            Item("d", ItemKind.DEFINITION),
            Item(bad, ItemKind.THEOREM, statement_symbols=("d",)),
            Item("u", ItemKind.THEOREM, by_refs=(bad,)),
        ]
    )
    result = extract_corpus(corpus, mode="both")
    path = tmp_path / "deps.jsonl"
    path.write_text("old\n")
    with pytest.raises(ValueError, match="not an identifier"):
        write_edges_jsonl(path, result)
    assert path.read_text() == "old\n"


# Block reader against the per-line oracle --------------------------------------


def _deps_lines(items: int, seed: int, family: str) -> list[bytes]:
    path = Path(tempfile.mkdtemp()) / "deps.jsonl"
    write_edges_jsonl(path, extract_corpus(_generated(items, seed, family), mode="both"))
    return path.read_bytes().splitlines()


def _split_record(lines, i):
    """A record split over two lines inside a list, next to a line holding
    two records: without the guard, one block decode would give one record
    per line, each attributed to the wrong line."""
    i = min(i, len(lines) - 3)
    merged = lines[i + 1] + b"," + lines[i + 2]
    return lines[:i] + [lines[i][:-1] + b',"z":[{}', b"{}]}", merged] + lines[i + 3 :]


def _split_record_nested(lines, i):
    """The same with a nested object instead of a list: no ``[`` byte."""
    i = min(i, len(lines) - 3)
    merged = lines[i + 1] + b"," + lines[i + 2]
    return lines[:i] + [lines[i][:-1] + b',"z":{}', b'"w":0}', merged] + lines[i + 3 :]


def _split_record_flat(lines, i):
    """The same with the split between two members of the record."""
    i = min(i, len(lines) - 3)
    merged = lines[i + 1] + b"," + lines[i + 2]
    return lines[:i] + [lines[i][:-1], b'"w":0}', merged] + lines[i + 3 :]


def _retarget(value: bytes):
    def perturb(lines, i):
        return lines[:i] + [lines[i].replace(b'"to":"', b'"to":"' + value, 1)] + lines[i + 1 :]

    return perturb


def _insert(line: bytes):
    return lambda lines, i: lines[:i] + [line] + lines[i:]


def _edit(before: bytes, after: bytes):
    return lambda lines, i: lines[:i] + [lines[i].replace(before, after, 1)] + lines[i + 1 :]


# Each perturbation maps (lines, index) to new lines; line ends are separate.
PERTURBATIONS = {
    "split-record": _split_record,
    "split-record-nested": _split_record_nested,
    "split-record-flat": _split_record_flat,
    "open-brace-in-string": _retarget(b"{"),
    "close-brace-in-string": _retarget(b"x}"),
    "bracket-in-string": _retarget(b"[y"),
    "bom-before-record": lambda lines, i: lines[:i] + [b"\xef\xbb\xbf" + lines[i]] + lines[i + 1 :],
    "bom-line": _insert(b"\xef\xbb\xbf"),
    "blank-line": _insert(b""),
    "whitespace-line": _insert(b" \t "),
    "space-after-brace": lambda lines, i: lines[:i] + [lines[i] + b" "] + lines[i + 1 :],
    "non-utf8": _retarget(b"\xff"),
    "non-dict-number": _insert(b"5"),
    "non-dict-list": _insert(b'[{"from":"a"}]'),
    "non-dict-string": _insert(b'"{}"'),
    "bad-vis": _edit(b'"vis":"', b'"vis":"bogus'),
    "bad-opacity": _edit(b'"opacity":"', b'"opacity":"explicit'),
    "null-vis": _edit(b'"vis":"', b'"vis":null,"x":"'),
}
LINE_ENDS = (b"\n", b"\r\n", b"\r")


def _read_both(lines: list[bytes], end: bytes, method: str):
    """The outcome of both readers on one file: equal edge lists, or
    ParseErrors of equal type, message, path and line."""
    path = Path(tempfile.mkdtemp()) / "deps.jsonl"
    path.write_bytes(b"".join(line + end for line in lines))
    outcomes = []
    for reader in (read_edges_jsonl, read_edges_by_line):
        try:
            outcomes.append(reader(path, method))
        except ParseError as err:
            outcomes.append((type(err), str(err), err.source_file, err.line))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@settings(max_examples=40, deadline=None)
@given(
    items=st.integers(min_value=20, max_value=150),
    seed=st.integers(min_value=0, max_value=2**16),
    family=st.sampled_from(FAMILIES),
    method=st.sampled_from(["any", "trace", "min"]),
    end=st.sampled_from(LINE_ENDS),
    edits=st.lists(
        st.tuples(st.sampled_from(sorted(PERTURBATIONS)), st.integers(0, 10**6)), max_size=2
    ),
)
def test_block_reader_equals_the_per_line_oracle(items, seed, family, method, end, edits):
    """On generated deps files of every family, perturbed or not, the block
    reader gives what one ``json.loads`` per line gives."""
    lines = _deps_lines(items, seed, family)
    for name, at in edits:
        lines = PERTURBATIONS[name](lines, at % len(lines))
    _read_both(lines, end, method)


@pytest.fixture(scope="module")
def long_deps_lines() -> list[bytes]:
    lines = _deps_lines(150, 7, "mixed")
    assert len(lines) > 2 * 256
    return lines


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
@pytest.mark.parametrize("at", [0, 255, 256, 300, -1])
def test_block_reader_pinned_perturbations(long_deps_lines, name, at):
    """Each perturbation at the first line, on both sides of the first block
    boundary, inside a later block and at the last line, for every method
    filter: the readers agree, and an error names the perturbed line."""
    i = at % len(long_deps_lines)
    lines = PERTURBATIONS[name](long_deps_lines, i)
    if name.startswith("split-record"):
        i = min(i, len(long_deps_lines) - 3)  # as the perturbation clamps it
    for method in ("any", "trace", "min"):
        outcome = _read_both(lines, b"\n", method)
        if method == "any" and isinstance(outcome, tuple):
            assert outcome[3] == i + 1


def test_block_reader_line_ends_and_no_perturbation(long_deps_lines):
    clean = _read_both(long_deps_lines, b"\n", "any")
    for end in LINE_ENDS[1:]:
        assert _read_both(long_deps_lines, end, "any") == clean


# Canonical records and the per-line fallback ---------------------------------


def _reorder_keys(line: bytes) -> bytes:
    record = json.loads(line)
    return json.dumps(dict(reversed(list(record.items()))), separators=(",", ":")).encode()


def _escape_source(line: bytes) -> bytes:
    """The first character of the record's ``from`` name as a JSON escape."""
    head, rest = line.split(b'"from":"', 1)
    return head + b'"from":"' + b"\\u%04x" % rest[0] + rest[1:]


# Each rewrites one record so that it leaves the form ``edge_record`` writes
# in one way, and stays a record the per-line reader accepts.
NON_CANONICAL = {
    "space-after-colon": lambda line: line.replace(b'":"', b'": "'),
    "space-after-comma": lambda line: line.replace(b'","', b'", "'),
    "reordered-keys": _reorder_keys,
    "escaped-name": _escape_source,
    "extra-key": lambda line: line[:-1] + b',"note":"x"}',
    "non-identifier-name": lambda line: line.replace(b'"to":"', b'"to":"d-', 1),
}


@pytest.mark.parametrize("name", sorted(NON_CANONICAL))
@pytest.mark.parametrize("at", [0, 300, -1])
def test_non_canonical_records_read_as_the_per_line_oracle_reads_them(long_deps_lines, name, at):
    """One rewritten record in a block of canonical ones, and every record
    rewritten: the reader falls back to the per-line decode of its block."""
    i = at % len(long_deps_lines)
    rewrite = NON_CANONICAL[name]
    assert all(rewrite(line) != line for line in long_deps_lines)
    one = long_deps_lines[:i] + [rewrite(long_deps_lines[i])] + long_deps_lines[i + 1 :]
    for lines in (one, [rewrite(line) for line in long_deps_lines]):
        for method in ("any", "trace", "min"):
            assert isinstance(_read_both(lines, b"\n", method), EdgeRecords)


def test_crlf_ends_and_blank_lines_read_as_the_per_line_oracle_reads_them(long_deps_lines):
    clean = _read_both(long_deps_lines, b"\n", "any")
    assert _read_both(long_deps_lines, b"\r\n", "any") == clean
    blank = long_deps_lines[:300] + [b""] + long_deps_lines[300:]
    assert _read_both(blank, b"\n", "any") == clean


def test_escaped_name_merges_with_its_canonical_pair(tmp_path):
    path = tmp_path / "deps.jsonl"
    path.write_text(
        '{"from":"t1","to":"d","vis":"implicit","opacity":"transparent","method":"trace"}\n'
        '{"from":"t\\u0031","to":"d","vis":"explicit","opacity":"opaque","method":"trace"}\n'
    )
    assert read_edges_jsonl(path) == [DepEdge("t1", "d", Visibility.EXPLICIT, Opacity.TRANSPARENT)]


@pytest.mark.parametrize("at", [0, 255, 256, 300, -1])
def test_malformed_record_among_canonical_ones_names_its_line(long_deps_lines, at):
    i = at % len(long_deps_lines)
    lines = long_deps_lines[:i] + [long_deps_lines[i][:-7]] + long_deps_lines[i + 1 :]
    outcome = _read_both(lines, b"\n", "any")
    assert outcome[0] is ParseError and outcome[3] == i + 1
    assert outcome[1].startswith(f"{outcome[2]}:{i + 1}: malformed edge record")


# Records malformed under every method filter: no ``method``, an unknown
# ``method``, and a bad ``vis`` on a ``min`` record.
MALFORMED_WHATEVER_THE_METHOD = {
    "no-method": '{"from":"t","to":"d","vis":"explicit","opacity":"transparent"}',
    "unknown-method": (
        '{"from":"t","to":"d","vis":"explicit","opacity":"transparent","method":"bogus"}'
    ),
    "bad-vis-min": '{"from":"t","to":"d","vis":"loud","opacity":"transparent","method":"min"}',
}


@pytest.mark.parametrize("method", ["any", "trace", "min"])
@pytest.mark.parametrize("name", sorted(MALFORMED_WHATEVER_THE_METHOD))
def test_record_validity_does_not_depend_on_the_method_filter(tmp_path, name, method):
    path = tmp_path / "deps.jsonl"
    path.write_text(
        '{"from":"t","to":"d","vis":"implicit","opacity":"opaque","method":"trace"}\n'
        + MALFORMED_WHATEVER_THE_METHOD[name]
        + "\n"
    )
    for read in (read_edges_jsonl, read_edges_by_line):
        with pytest.raises(ParseError, match="malformed edge record") as err:
            read(path, method=method)
        assert err.value.line == 2


def test_canonical_files_are_read_without_json(tmp_path, long_deps_lines, monkeypatch):
    path = tmp_path / "deps.jsonl"
    path.write_bytes(b"".join(line + b"\n" for line in long_deps_lines))
    expected = read_edges_by_line(path)
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: pytest.fail("json.loads"))
    assert read_edges_jsonl(path) == expected


# Every (vis, opacity, method) combination once, each on its own pair.
_TAIL_RECORDS = [
    {"from": f"s{i}", "to": f"d{i}", "vis": vis.value, "opacity": opacity.value, "method": method}
    for i, (vis, opacity, method) in enumerate(product(Visibility, Opacity, ("trace", "min")))
]


@pytest.mark.parametrize("method", ["any", "trace", "min"])
def test_every_record_tail_reads_alike_in_both_layouts(tmp_path, monkeypatch, method):
    """All eight record tails, written canonically (one regex search, no
    ``json.loads``) and in ``json.dumps``'s spaced layout (decoded per
    line), read as the same edges under every method filter."""
    edges = [
        DepEdge(rec["from"], rec["to"], Visibility(rec["vis"]), Opacity(rec["opacity"]))
        for rec in _TAIL_RECORDS
    ]
    canonical, spaced = tmp_path / "canonical.jsonl", tmp_path / "spaced.jsonl"
    canonical.write_text(
        "".join(edge_record(edge, rec["method"]) + "\n" for edge, rec in zip(edges, _TAIL_RECORDS))
    )
    spaced.write_text("".join(json.dumps(rec) + "\n" for rec in _TAIL_RECORDS))
    expected = [
        edge for edge, rec in zip(edges, _TAIL_RECORDS) if method in ("any", rec["method"])
    ]
    assert read_edges_jsonl(spaced, method) == expected
    monkeypatch.setattr(json, "loads", lambda *args, **kwargs: pytest.fail("json.loads"))
    assert read_edges_jsonl(canonical, method) == expected


# The records view ------------------------------------------------------------


def _index_outcome(seq, index):
    """``seq[index]``, or the type and message of the error it raises."""
    try:
        return seq[index]
    except IndexError as err:
        return type(err), str(err)


@settings(max_examples=30, deadline=None)
@given(
    items=st.integers(min_value=0, max_value=120),
    seed=st.integers(min_value=0, max_value=2**16),
    family=st.sampled_from(FAMILIES),
    method=st.sampled_from(["any", "trace", "min"]),
    seeded=st.booleans(),
)
def test_edge_records_read_as_the_list_reader_reads_them(items, seed, family, method, seeded):
    """``read_edges_jsonl``'s records are the list the reader used to build
    under ``==`` both ways, ``len``, indexing, slices and ``in``, and the
    rows a graph folds from them are the rows it folds from that list."""
    corpus = _generated(items, seed, family)
    path = Path(tempfile.mkdtemp()) / "deps.jsonl"
    write_edges_jsonl(path, extract_corpus(corpus, mode="both", seed_from_trace=seeded))
    records, expected = read_edges_jsonl(path, method), read_edges_as_list(path, method)
    assert isinstance(records, EdgeRecords)
    assert records == expected and expected == records and not records != expected
    assert records == read_edges_jsonl(path, method) and list(records) == expected
    assert records != tuple(expected) and len(records) == len(expected)
    if expected:
        assert records != expected[:-1] and expected[1:] != records
    for index in (0, -1, len(expected) // 2, len(expected), -len(expected) - 1):
        assert _index_outcome(records, index) == _index_outcome(expected, index)
    for part in (slice(None), slice(1, -1, 2), slice(-3, None), slice(None, None, -2)):
        assert type(records[part]) is list and records[part] == expected[part]
    for edge in expected:
        assert edge in records
        flipped = Visibility.IMPLICIT if edge.visibility is Visibility.EXPLICIT else Visibility.EXPLICIT
        assert DepEdge(edge.src, edge.dst, flipped, edge.opacity) not in records
    assert (None in records) is False
    for granularity in Granularity:
        g, oracle_g = build_graph(corpus, records, granularity), build_graph(corpus, expected, granularity)
        assert (g.deps, g.transparent, g.explicit) == (
            oracle_g.deps, oracle_g.transparent, oracle_g.explicit
        )
