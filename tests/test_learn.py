"""Training counts, ranking math, chronological evaluation, problem export."""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import islice, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from depkit.cli import main
from depkit.corpus import Corpus, ItemKind, parse_source
from depkit.errors import CorpusMismatchError
from depkit.extract import trace_extract
from depkit.gen import FAMILIES, generate_corpus
from depkit.learn import (
    BayesModel,
    NonFiniteScoreError,
    _Ranker,
    _shuffled_positions,
    dependency_map,
    evaluate_chrono,
    export_problems,
    features_of,
    rank,
    score_premise,
    train,
)
from depkit.normalize import normalize_corpus

from _oracles import (
    evaluate_chrono_by_full_sort,
    export_problems_by_full_sort,
    rank_by_full_sort,
    tally_training_counts,
)
from conftest import corpus_from


def _generated_corpus(items=1000, seed=42, family="symbols") -> tuple[Corpus, list]:
    files = generate_corpus(items=items, seed=seed, family=family)
    corpus = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
    return corpus, trace_extract(corpus)


# train -----------------------------------------------------------------------


def test_train_upto_zero_is_empty(redundant_hint_corpus):
    deps = dependency_map(trace_extract(redundant_hint_corpus))
    model = train(redundant_hint_corpus, deps, upto=0)
    assert model.prior == {} and model.cooccurrence == {} and model.horizon == 0


def test_train_single_item_counts():
    corpus = corpus_from("def d := lit;\nthm t : uses d by d;\n")
    deps = dependency_map(trace_extract(corpus))
    model = train(corpus, deps, upto=len(corpus.items))
    assert model.prior == {"d": 1}
    assert model.cooccurrence == {("d", "d"): 1}
    assert model.vocabulary == {"d"}


def test_train_counts_match_independent_tally(five_file_corpus):
    corpus, _ = normalize_corpus(five_file_corpus)
    deps = dependency_map(trace_extract(corpus))
    model = train(corpus, deps, upto=len(corpus.items))
    prior, cooc, vocab = tally_training_counts(corpus, deps, len(corpus.items))
    assert model.prior == prior
    assert model.cooccurrence == cooc
    assert model.vocabulary == vocab


def test_train_rejects_unknown_items(redundant_hint_corpus):
    with pytest.raises(CorpusMismatchError):
        train(redundant_hint_corpus, {"ghost": ("f",)}, upto=1)
    with pytest.raises(CorpusMismatchError):
        train(redundant_hint_corpus, {}, upto=99)


def test_train_is_incrementally_consistent(five_file_corpus):
    corpus, _ = normalize_corpus(five_file_corpus)
    deps = dependency_map(trace_extract(corpus))
    for i in range(len(corpus.items)):
        stepped = train(corpus, deps, upto=i)
        item = corpus.items[i]
        stepped.update(features_of(item).counts(), deps.get(item.name, ()))
        direct = train(corpus, deps, upto=i + 1)
        assert stepped.prior == direct.prior
        assert stepped.cooccurrence == direct.cooccurrence
        assert stepped.vocabulary == direct.vocabulary
        assert stepped.horizon == direct.horizon


def test_ranking_indexes_match_a_rebuild(five_file_corpus):
    """The model's premise rows (counts included) equal the rows of an
    independent tally, after ``train``, ``scaled`` and every stepwise
    ``update``, and so do the ranker's prior buckets rebuilt from ``prior``,
    also after an update that lists a premise twice."""
    corpus, _ = normalize_corpus(five_file_corpus)
    deps = dependency_map(trace_extract(corpus))

    def tallied_rows(upto, factor=1):
        _, cooc, vocab = tally_training_counts(corpus, deps, upto)
        out: dict[str, dict[str, int]] = {feature: {} for feature in vocab}
        for (feature, premise), count in cooc.items():
            out[feature][premise] = count * factor
        return out

    def buckets(model, names):
        out: dict[int, list[int]] = {}
        for name in names:
            out.setdefault(model.prior.get(name, 0), []).append(corpus.index_of(name))
        return {prior: sorted(positions) for prior, positions in out.items()}

    def check(ranker, names):
        assert ranker.buckets == buckets(ranker.model, names)
        assert ranker.prior_of == {
            position: prior for prior, positions in ranker.buckets.items() for position in positions
        }

    trained = train(corpus, deps, upto=len(corpus.items))
    assert trained.premises and trained.premises == tallied_rows(len(corpus.items))
    scaled = trained.scaled(3)
    assert scaled.premises == tallied_rows(len(corpus.items), 3) != trained.premises
    assert scaled.prior == {name: 3 * count for name, count in trained.prior.items()}

    ranker = _Ranker(BayesModel(), corpus, 1.0, 1.0)
    names: list[str] = []
    for item in corpus.items:
        ranker.update(features_of(item).counts(), deps.get(item.name, ()))
        ranker.add(item.name)
        names.append(item.name)
        assert ranker.model.premises == tallied_rows(len(names))
        check(ranker, names)
    first, second = names[:2]
    before = ranker.model.prior.get(first, 0)
    ranker.update(Counter({"fresh": 2}), [first, second, first])
    assert ranker.model.prior[first] == before + 2
    assert ranker.model.premises["fresh"] == {first: 4, second: 2}
    check(ranker, names)


def test_a_hand_built_model_counts_its_empty_rows_in_v():
    """V is the number of premise rows, an empty one included, and
    ``score_premise`` and ``rank`` both give the module docstring's formula
    with that V; models that differ in one row count are unequal."""
    corpus = corpus_from("def p := lit;\ndef q := lit;\ndef r := lit;\n")
    rows = {"f": {"p": 2, "q": 1}, "g": {"q": 4}, "unused": {}}
    model = BayesModel(prior={"p": 3, "q": 5}, premises=rows)
    assert model.vocabulary == {"f", "g", "unused"}
    assert model.cooccurrence == {("f", "p"): 2, ("f", "q"): 1, ("g", "q"): 4}
    assert model.scaled(2).premises == {"f": {"p": 4, "q": 2}, "g": {"q": 8}, "unused": {}}
    features = Counter({"f": 2, "g": 1, "h": 1})
    alpha, weight, vocab = 0.5, 1.5, 3

    def formula(premise):
        prior = model.prior.get(premise, 0)
        return math.log(prior + alpha) + sum(
            weight * n * (math.log(rows.get(f, {}).get(premise, 0) + alpha)
                          - math.log(prior + alpha * vocab))
            for f, n in features.items()
        )

    expected = {name: formula(name) for name in "pqr"}
    for name in "pqr":
        assert score_premise(model, name, features, alpha, weight) == pytest.approx(expected[name])
    without_empty = BayesModel(prior=model.prior, premises={"f": rows["f"], "g": rows["g"]})
    assert score_premise(without_empty, "r", features, alpha, weight) != pytest.approx(
        expected["r"]
    )
    ranked = rank(model, "c", features, ["r", "q", "p"], corpus, alpha, weight)
    assert ranked.names() == tuple(sorted("pqr", key=lambda name: -expected[name]))
    for name, score in ranked.ranking:
        assert score == pytest.approx(expected[name])

    assert model == BayesModel(prior=dict(model.prior), premises={f: dict(r) for f, r in rows.items()})
    bumped = {f: dict(r) for f, r in rows.items()}
    bumped["g"]["q"] += 1
    assert model != BayesModel(prior=dict(model.prior), premises=bumped)


def test_explicit_only_filter_drops_hint_edges(redundant_hint_corpus):
    edges = trace_extract(redundant_hint_corpus)
    full = dependency_map(edges)
    explicit = dependency_map(edges, explicit_only=True)
    assert full["t"] == ("f", "h1", "h2")
    assert explicit["t"] == ("f",)


# rank ------------------------------------------------------------------------


def test_rank_empty_features_orders_by_prior():
    corpus = corpus_from(
        "def p1 := lit;\ndef p2 := lit;\n"
        "thm a : uses p2 by p2;\nthm b : uses p2 by p2;\nthm c : uses p1 by p1;\n"
    )
    deps = dependency_map(trace_extract(corpus))
    model = train(corpus, deps, upto=len(corpus.items))
    ranked = rank(model, "q", Counter(), ["p1", "p2"], corpus)
    assert ranked.names() == ("p2", "p1")  # prior 2 beats prior 1


def test_rank_hand_computed_scores():
    corpus = corpus_from("def d := lit;\ndef e := lit;\nthm t : uses d by d;\n")
    deps = dependency_map(trace_extract(corpus))
    model = train(corpus, deps, upto=len(corpus.items))
    # trained: prior[d]=1, cooc[(d,d)]=1, vocab={d}; candidate e is untrained
    ranked = rank(model, "q", Counter({"d": 1}), ["e", "d"], corpus)
    scores = dict(ranked.ranking)
    assert scores["d"] == pytest.approx(math.log(2) + (math.log(2) - math.log(2)))
    assert scores["e"] == pytest.approx(math.log(1) + (math.log(1) - math.log(1)))
    assert ranked.names() == ("d", "e")


def test_rank_ties_break_by_corpus_order():
    corpus = corpus_from("def early := lit;\ndef late := lit;\n")
    model = BayesModel()
    ranked = rank(model, "q", Counter(), ["late", "early"], corpus)
    assert ranked.names() == ("early", "late")


def test_rank_is_permutation_invariant():
    corpus, edges = _generated_corpus(items=60, seed=9)
    deps = dependency_map(edges)
    model = train(corpus, deps, upto=len(corpus.items))
    names = [it.name for it in corpus.items[:40]]
    features = Counter({"s1": 1})
    forward = rank(model, "q", features, names, corpus)
    backward = rank(model, "q", features, list(reversed(names)), corpus)
    assert forward.ranking == backward.ranking


@given(st.integers(min_value=2, max_value=50))
def test_rank_argsort_invariant_under_count_scaling(factor):
    corpus, edges = _generated_corpus(items=80, seed=4)
    deps = dependency_map(edges)
    model = train(corpus, deps, upto=len(corpus.items))
    names = [it.name for it in corpus.items[:50]]
    features = Counter({"s0": 1, "s1": 2})
    base = rank(model, "q", features, names, corpus)
    # scaling every count (Laplace pseudo-counts included) shifts scores
    # uniformly by ln(factor) and cannot reorder anything
    scaled = rank(
        model.scaled(factor), "q", features, names, corpus, alpha=float(factor)
    )
    assert scaled.names() == base.names()
    shift = math.log(factor) * (1 + sum(features.values()) - sum(features.values()))
    for (_, s_base), (_, s_scaled) in zip(base.ranking, scaled.ranking):
        assert s_scaled - s_base == pytest.approx(math.log(factor), abs=1e-9)


@pytest.mark.parametrize("family", FAMILIES)
def test_sparse_ranking_matches_the_full_sort(family):
    """For every theorem, the ranker's top k and the position of every true
    dependency equal those of scoring and sorting every candidate, with the
    conjecture's features and with none, for both dependency filters and
    several pseudo-counts and weights (``symbols`` corpora are rich in ties)."""
    corpus, edges = _generated_corpus(items=70, seed=11, family=family)
    checked = 0
    for explicit_only in (False, True):
        deps = dependency_map(edges, explicit_only=explicit_only)
        for alpha, weight in product((1.0, 0.5), (1.0, 2.0, 0.0)):
            ranker = _Ranker(BayesModel(), corpus, alpha, weight)
            names: list[str] = []
            for item in corpus.items:
                features = features_of(item).counts()
                if item.kind is ItemKind.THEOREM:
                    true_deps = deps.get(item.name, ())
                    for conjecture in (features, Counter()):
                        expected = rank_by_full_sort(
                            ranker.model, item.name, conjecture, names, corpus, alpha, weight
                        )
                        n = len(names)
                        for k in (1, 10, 50, n, n + 5):
                            top = [
                                (corpus.items[position].name, -key)
                                for key, position in islice(ranker.order(conjecture), k)
                            ]
                            assert top == list(expected.ranking[:k]), (item.name, k)
                        order = expected.names()
                        assert ranker.positions(conjecture, true_deps) == [
                            order.index(dep) + 1 for dep in true_deps
                        ], item.name
                        checked += len(true_deps)
                ranker.update(features, deps.get(item.name, ()))
                ranker.add(item.name)
                names.append(item.name)
            # the public ranking, over candidates that leave out trained premises
            for item in corpus.items[::7]:
                features = features_of(item).counts()
                args = (ranker.model, item.name, features, names[::2], corpus, alpha, weight)
                assert rank(*args) == rank_by_full_sort(*args)
    assert checked > 0


def _dense_model(rng: random.Random, names: list[str], features: list[str]) -> BayesModel:
    """A model with hundreds of co-occurring premises per conjecture: every
    feature has a row of 20-120 premises, and priors repeat so that buckets
    hold many members.  Up to 40 more features have empty rows, which count
    in V but co-occur with nothing."""
    prior = {name: rng.randint(1, 12) for name in rng.sample(names, k=len(names) * 3 // 4)}
    premises = {
        feature: {name: rng.randint(1, 9) for name in rng.sample(names, k=rng.randint(20, 120))}
        for feature in features
    }
    premises.update((f"unused{i}", {}) for i in range(rng.randint(0, 40)))
    return BayesModel(prior=prior, premises=premises)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ranker_keys_are_the_floats_of_score_premise_at_density(seed):
    """Every hit key and bucket key of the ranker equals ``-score_premise``
    exactly, and ``rank`` equals the full sort, on models far denser than the
    generated families (about 2 features and 8 hits per conjecture there),
    also after scaling every count."""
    rng = random.Random(seed)
    names = [f"p{i}" for i in range(400)]
    corpus = corpus_from("".join(f"def {name} := lit;\n" for name in names))
    features = [f"f{i}" for i in range(40)]
    model = _dense_model(rng, names, features)
    candidates = rng.sample(names, k=350)
    checked = 0
    for current in (model, model.scaled(3)):
        for alpha, weight in product((1.0, 0.5, 3.0), (1.0, 2.0, 0.0, -1.5)):
            conjecture = Counter(
                {f: rng.randint(1, 3) for f in rng.sample(features, k=rng.randint(10, 30))}
            )
            conjecture[f"unseen{checked}"] = rng.randint(1, 3)
            ranker = _Ranker(current, corpus, alpha, weight, candidates)
            hits, buckets = ranker._scored(conjecture)
            assert len(hits) > 100
            for key, position in hits:
                name = corpus.items[position].name
                assert key == -score_premise(current, name, conjecture, alpha, weight), name
            for key, positions, skip in buckets.values():
                for position in positions:
                    if position not in skip:
                        name = corpus.items[position].name
                        assert key == -score_premise(current, name, conjecture, alpha, weight), name
                        checked += 1
            args = (current, "q", conjecture, candidates, corpus, alpha, weight)
            assert rank(*args) == rank_by_full_sort(*args)
    assert checked > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chrono_and_export_equal_the_full_sort_loops(tmp_path, seed):
    """Evaluation results and problem files equal those of the loops that
    score and sort every candidate, on mixed corpora of 200-300 items."""
    corpus, edges = _generated_corpus(items=150 + 50 * seed, seed=seed, family="mixed")
    for alpha, weight, explicit_only in ((1.0, 1.0, False), (0.5, 2.0, True)):
        options = dict(alpha=alpha, weight=weight, explicit_only=explicit_only)
        result = evaluate_chrono(corpus, edges, [1, 10, 50], baseline_seed=seed, **options)
        assert result["evaluated"] > 0
        assert result == evaluate_chrono_by_full_sort(
            corpus, edges, [1, 10, 50], baseline_seed=seed, **options
        )
        out, ref = tmp_path / f"sparse{alpha}", tmp_path / f"full{alpha}"
        paths = export_problems(corpus, edges, 10, out, **options)
        expected = export_problems_by_full_sort(corpus, edges, 10, ref, **options)
        assert [p.name for p in paths] == [p.name for p in expected]
        for path, ref_path in zip(paths, expected):
            assert path.read_bytes() == ref_path.read_bytes()


@pytest.mark.parametrize("seed", [4, 5])
def test_chrono_equals_the_full_sort_loop_past_512_candidates(seed):
    """On 600 mixed items the candidate lists pass 512, where the baseline's
    draws widen to 10 bits; the cutoffs include k = 0 and k beyond every n."""
    corpus, edges = _generated_corpus(items=600, seed=seed, family="mixed")
    cutoffs = [0, 1, 10, 50, 10**6]
    result = evaluate_chrono(corpus, edges, cutoffs, baseline_seed=seed)
    assert result == evaluate_chrono_by_full_sort(corpus, edges, cutoffs, baseline_seed=seed)
    assert result["baseline_recall_at_k"][0] == 0.0
    assert result["baseline_recall_at_k"][10**6] == pytest.approx(1.0)
    deps = dependency_map(edges)
    assert max(
        corpus.index_of(name) for name in deps if corpus.item(name).kind is ItemKind.THEOREM
    ) > 512


def _shuffle_oracle(seed: int, n: int, positions: list[int]) -> tuple[list[int], tuple]:
    """The index ``Random(seed).shuffle`` of ``range(n)`` gives each position,
    and the generator's state after it."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    index = {value: i for i, value in enumerate(order)}
    return [index[p] for p in positions], rng.getstate()


def _assert_follows_the_shuffle(seed: int, n: int, positions: list[int]) -> None:
    rng = random.Random(seed)
    got = _shuffled_positions(rng, n, positions)
    assert (got, rng.getstate()) == _shuffle_oracle(seed, n, positions), (seed, n, positions)


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 511, 512, 513, 1023, 1024, 1025])
@pytest.mark.parametrize("seed", [0, 7, 42])
def test_shuffled_positions_follow_the_shuffle_where_the_draw_width_changes(seed, n):
    """Around each power of two the bit width of a draw changes and the
    share of redrawn values peaks."""
    picks = random.Random(n).sample(range(n), min(n, 6))
    for positions in ([0, n - 1], [n - 1, 0], sorted({0, n - 1, *picks}), [*picks, 0, n - 1]):
        _assert_follows_the_shuffle(seed, n, list(dict.fromkeys(positions)))


@given(st.integers(1, 5000), st.integers(0, 2**64), st.data())
def test_shuffled_positions_follow_the_shuffle(n, seed, data):
    picks = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=8))
    positions = data.draw(st.permutations(list(dict.fromkeys([0, n - 1, *picks]))))
    _assert_follows_the_shuffle(seed, n, positions)


@pytest.mark.parametrize(
    "alpha, weight",
    [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, -math.inf)],
)
def test_rankings_reject_alpha_or_weight_that_give_no_order(tmp_path, alpha, weight):
    corpus, edges = _generated_corpus(items=20, seed=1)
    with pytest.raises(ValueError):
        evaluate_chrono(corpus, edges, [1], alpha=alpha, weight=weight)
    with pytest.raises(ValueError):
        export_problems(corpus, edges, 1, tmp_path / "out", alpha=alpha, weight=weight)
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError):
        rank(BayesModel(), "q", Counter(), [corpus.items[0].name], corpus, alpha, weight)


@pytest.mark.parametrize("weight", [1e308, -1e308])
def test_rankings_reject_finite_weights_whose_scores_overflow(tmp_path, weight):
    """A finite weight can still overflow a score to an infinity, which
    orders nothing; the ranking stops with ``ValueError`` instead."""
    corpus, edges = _generated_corpus(items=40, seed=1)
    with pytest.raises(NonFiniteScoreError) as exc:
        evaluate_chrono(corpus, edges, [1, 10], weight=weight)
    assert isinstance(exc.value, ValueError) and "weight" in str(exc.value)
    with pytest.raises(NonFiniteScoreError):
        export_problems(corpus, edges, 10, tmp_path / "out", weight=weight)
    deps = dependency_map(edges)
    model = train(corpus, deps, upto=len(corpus.items))
    item = corpus.items[-1]
    names = [other.name for other in corpus.items[:-1]]
    with pytest.raises(NonFiniteScoreError):
        rank(model, item.name, features_of(item).counts(), names, corpus, weight=weight)


# Weight 1.5e308 overflows a term exactly when its log ratio is larger than
# about 1.2 in size.  When b (feature d, vocabulary size 2) is ranked, e has a
# prior of 10 or 11 and co-occurs with d at most once, so its ratio
# ln(c + 1) - ln(prior + 2) is -1.87 or less; every other ratio stays within ln 3.
_OVERFLOW_WEIGHT = 1.5e308
_E_BY_TEN = "".join(f"thm a{i} : uses e by e;\n" for i in range(10))
_HEAD = "def d := lit;\ndef e := lit;\n"
_OVERFLOW_CORPORA = {
    # e co-occurs with d (through c), so its score is a hit key
    "hit": _HEAD + _E_BY_TEN + "def c : d e := lit;\nthm b : uses d by d;\n",
    # e does not co-occur with d, so it is scored by its bucket's key
    "bucket": _HEAD + "thm c : uses d by d;\n" + _E_BY_TEN + "thm b : uses d by d;\n",
}


@pytest.mark.parametrize("reached", sorted(_OVERFLOW_CORPORA))
def test_an_overflow_that_reaches_one_kind_of_key_is_rejected(tmp_path, capsys, reached):
    """An overflow in a hit key alone, or in a bucket key alone, stops the
    ranking with an error that names the premise, and the CLI exits 2."""
    source = _OVERFLOW_CORPORA[reached]
    corpus = corpus_from(source)
    edges = trace_extract(corpus)
    deps = dependency_map(edges)
    b = corpus.index_of("b")
    model = train(corpus, deps, upto=b)
    features = features_of(corpus.items[b]).counts()
    overflowing = {
        item.name
        for item in corpus.items[:b]
        if not math.isfinite(score_premise(model, item.name, features, weight=_OVERFLOW_WEIGHT))
    }
    assert overflowing == {"e"}
    assert (("d", "e") in model.cooccurrence) == (reached == "hit")
    with pytest.raises(NonFiniteScoreError, match="premise 'e'"):
        evaluate_chrono(corpus, edges, [1], weight=_OVERFLOW_WEIGHT)
    with pytest.raises(NonFiniteScoreError, match="premise 'e'"):
        export_problems(corpus, edges, 1, tmp_path / "lib", weight=_OVERFLOW_WEIGHT)

    corpus_dir, deps_path = tmp_path / "corpus", tmp_path / "d.jsonl"
    corpus_dir.mkdir()
    (corpus_dir / "a.art").write_text(source, encoding="utf-8")
    assert main(["extract", str(corpus_dir), "-o", str(deps_path)]) == 0
    for command in ("eval", "export"):
        argv = ["learn", command, str(corpus_dir), "--deps", str(deps_path)]
        argv.append(f"--weight={_OVERFLOW_WEIGHT}")
        if command == "export":
            argv += ["-o", str(tmp_path / "out")]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "premise 'e'" in capsys.readouterr().err


def test_negative_cutoffs_are_rejected(tmp_path):
    corpus, edges = _generated_corpus(items=20, seed=1)
    with pytest.raises(ValueError):
        evaluate_chrono(corpus, edges, [10, -1])
    with pytest.raises(ValueError):
        export_problems(corpus, edges, -1, tmp_path / "out")
    assert not (tmp_path / "out").exists()


# evaluate_chrono -------------------------------------------------------------


def test_chrono_symbol_matched_corpus_reaches_full_recall_at_1():
    """Once a symbol's pattern has been seen, its definition ranks first.

    With three symbols the winning margin is provable by hand: the true
    premise scores 2 ln(k+1) - ln(k+V) >= 0 for k prior sightings and
    vocabulary V <= 3, while every zero-cooccurrence candidate scores
    ln((m+1)/(m+V)) < 0.
    """
    lines = ["def s0 := lit;", "def s1 := lit;", "def s2 := lit;"]
    for i in range(30):
        g = i % 3
        lines.append(f"thm t{i} : uses s{g} by s{g};")
    corpus = corpus_from("\n".join(lines) + "\n")
    edges = trace_extract(corpus)
    deps = dependency_map(edges)
    seen: set[str] = set()
    model = BayesModel()
    names: list[str] = []
    hits = misses = 0
    for item in corpus.items:
        true_deps = deps.get(item.name, ())
        if item.kind.value == "theorem" and true_deps:
            symbol = item.statement_symbols[0]
            ranked = rank(model, item.name, features_of(item).counts(), names, corpus)
            if symbol in seen:
                assert ranked.names()[0] == true_deps[0], item.name
                hits += 1
            else:
                misses += 1
            seen.add(symbol)
        model.update(features_of(item).counts(), true_deps)
        names.append(item.name)
    assert hits == 27 and misses == 3


def test_chrono_k_at_least_corpus_size_gives_full_recall():
    corpus, edges = _generated_corpus(items=40, seed=3)
    result = evaluate_chrono(corpus, edges, [len(corpus.items)])
    assert result["recall_at_k"][len(corpus.items)] == pytest.approx(1.0)


def test_chrono_learner_beats_seeded_random_baseline():
    corpus, edges = _generated_corpus(items=300, seed=8)
    result = evaluate_chrono(corpus, edges, [10], baseline_seed=123)
    assert result["recall_at_k"][10] > result["baseline_recall_at_k"][10]


def test_chrono_never_consults_the_future(tmp_path):
    """Deleting the future changes nothing about earlier conjectures."""
    corpus, edges = _generated_corpus(items=30, seed=6)
    for cut in (10, 20):
        prefix = Corpus(corpus.items[:cut])
        prefix_edges = [e for e in edges if corpus.index_of(e.src) < cut]
        full_dir, prefix_dir = tmp_path / f"full{cut}", tmp_path / f"prefix{cut}"
        full_paths = {p.name: p for p in export_problems(corpus, edges, 5, full_dir)}
        prefix_paths = export_problems(prefix, prefix_edges, 5, prefix_dir)
        # problem files of prefix theorems are byte-identical either way
        assert prefix_paths
        for path in prefix_paths:
            assert path.read_bytes() == full_paths[path.name].read_bytes()


# export_problems -------------------------------------------------------------


def test_export_k0_writes_only_conjecture_lines(tmp_path, redundant_hint_corpus):
    edges = trace_extract(redundant_hint_corpus)
    paths = export_problems(redundant_hint_corpus, edges, 0, tmp_path)
    assert [p.name for p in paths] == ["t.prb"]
    assert paths[0].read_text() == "conjecture t\n"


def test_export_lists_true_dependency_in_top_10(tmp_path):
    lines = ["def s0 := lit;", "def s1 := lit;", "def s2 := lit;"]
    for i in range(30):
        g = i % 3
        lines.append(f"thm t{i} : uses s{g} by s{g};")
    corpus = corpus_from("\n".join(lines) + "\n")
    edges = trace_extract(corpus)
    deps = dependency_map(edges)
    # the chronological evaluation says the true premise sits inside top 10
    # for every theorem after the three warmup ones; the exported problem
    # files must agree with it
    chrono = evaluate_chrono(corpus, edges, [1, 10])
    # t0 hits by the earliest-order tie-break on an empty model; t1 and t2
    # miss while their symbols are unseen; everything afterwards hits
    assert chrono["recall_at_k"][1] == pytest.approx(28 / 30, abs=1e-9)
    assert chrono["recall_at_k"][10] == pytest.approx(1.0)
    paths = {p.name: p for p in export_problems(corpus, edges, 10, tmp_path)}
    for i in range(3, 30):
        content = paths[f"t{i}.prb"].read_text().splitlines()
        premises = {line.split()[1] for line in content[1:]}
        assert set(deps[f"t{i}"]) <= premises


def test_export_is_deterministic(tmp_path):
    corpus, edges = _generated_corpus(items=50, seed=12)
    out1, out2 = tmp_path / "one", tmp_path / "two"
    export_problems(corpus, edges, 5, out1)
    export_problems(corpus, edges, 5, out2)
    for p1 in sorted(out1.iterdir()):
        p2 = out2 / p1.name
        assert p1.read_bytes() == p2.read_bytes()


def test_score_premise_floor_handles_empty_model():
    model = BayesModel()
    assert score_premise(model, "x", Counter({"f": 1})) == pytest.approx(0.0)
