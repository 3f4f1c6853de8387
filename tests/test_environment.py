"""Environments as position masks, against a per-kind name-tuple model.

Every environment here exists twice: cut from a corpus candidate
environment (sharing the corpus position table) and built by name
(``Environment(definitions=..., ...)``, a private table).  Both must behave
like ``NaiveEnv`` and like each other, under the checker too.
"""

from __future__ import annotations

import random

import pytest

from depkit.corpus import (
    _SLOT,
    Corpus,
    Environment,
    ItemKind,
    KIND_FIELDS,
    RejectReason,
    bit_positions,
    parse_source,
)
from depkit.gen import generate_corpus

from _oracles import NaiveEnv, naive_check
from conftest import corpus_from


def _corpora():
    for seed in range(12):
        files = generate_corpus(items=30, seed=seed, family="mixed" if seed % 3 else "hints")
        yield Corpus([it for rel, text in sorted(files.items()) for it in parse_source(text, rel)])


def _prefix_model(corpus: Corpus, index: int) -> NaiveEnv:
    lists: dict[ItemKind, list[str]] = {kind: [] for kind in ItemKind}
    for item in corpus.items[:index]:
        lists[item.kind].append(item.name)
    return NaiveEnv({kind: tuple(names) for kind, names in lists.items()})


def _assert_same(env: Environment, model: NaiveEnv) -> None:
    for kind, attr in KIND_FIELDS.items():
        assert env.names(kind) == model.names(kind)
        assert getattr(env, attr) == model.names(kind)
    assert env.all_names() == model.all_names()
    assert env.size() == model.size()


def _random_keep(rng: random.Random, model: NaiveEnv) -> frozenset[str]:
    return frozenset(n for n in model.all_names() if rng.random() < 0.5)


def test_masks_match_name_tuple_model_both_constructions():
    rng = random.Random(3)
    pairs = 0
    for corpus in _corpora():
        names = [item.name for item in corpus.items]
        for idx in range(len(corpus.items) + 1):
            full = corpus.candidate_environment(idx)
            full_model = _prefix_model(corpus, idx)
            _assert_same(full, full_model)
            keep = _random_keep(rng, full_model)
            model = full_model.restrict(keep)
            envs = (full.restrict(keep), model.build())
            for env in envs:
                _assert_same(env, model)
                for kind in ItemKind:
                    for name in names + ["no_such_name"]:
                        assert env.contains(kind, name) == model.contains(kind, name)
                # restrict again, with a name of no table among the kept
                again = _random_keep(rng, model) | {"no_such_name"}
                _assert_same(env.restrict(again), model.restrict(again))
                # replace one kind by a subset of this environment's own names
                kind = rng.choice(list(ItemKind))
                own = [n for n in env.names(kind) if rng.random() < 0.5]
                _assert_same(env.replace_kind(kind, own), model.replace_kind(kind, own))
                # subset relations, against the full and another random cut
                other = full_model.restrict(_random_keep(rng, full_model))
                for big, big_model in ((full, full_model), (other.build(), other)):
                    assert env.is_subenv_of(big) == model.is_subenv_of(big_model)
                    assert big.is_subenv_of(env) == big_model.is_subenv_of(model)
            by_mask, by_name = envs
            assert by_mask == by_name and by_name == by_mask
            assert hash(by_mask) == hash(by_name)
            assert (by_mask != full) == (model.all_names() != full_model.all_names())
            pairs += 1
    assert pairs > 300


def _assert_kind_indices(corpus: Corpus, bits: int) -> int:
    """The minimizer's per-kind counts and per-position indices of the
    positions of ``bits`` (``Corpus._index_reads``, with every position
    read) against ``bit_positions`` of each kind's bits; the number of
    positions checked."""
    cut = bits.bit_length()
    listed = bit_positions(bits) if bits & (bits + 1) else None
    reads = {pos: 1 << pos for pos in range(len(corpus.items))}
    counts, held = corpus._index_reads(reads, cut, listed)
    checked = 0
    for kind in ItemKind:
        slot = _SLOT[kind]
        kind_positions = bit_positions(bits & corpus._table.kinds[slot])
        assert counts[slot] == len(kind_positions)
        assert [local.bit_length() - 1 for _, local in held[slot]] == kind_positions
        for index, local in held[slot]:
            assert index == kind_positions.index(local.bit_length() - 1)
            checked += 1
    return checked


def test_kind_index_equals_bit_positions_index_on_every_path():
    """The index of each position among its kind's positions in a mask is
    ``bit_positions(kind_bits).index(pos)``: on the prefix masks of every
    cut, read from the corpus's per-cut kind counts, and on the masks of
    environments after ``restrict`` and ``replace_kind``, whose positions
    are listed."""
    rng = random.Random(17)
    prefixes = 0
    for corpus in _corpora():
        n = len(corpus.items)
        for cut in range(n + 1):
            prefixes += _assert_kind_indices(corpus, corpus.candidate_environment(cut).mask)
        for idx in range(n + 1):
            full = corpus.candidate_environment(idx)
            keep = _random_keep(rng, _prefix_model(corpus, idx))
            swapped = rng.choice(list(ItemKind))
            own = [name for name in full.names(swapped) if rng.random() < 0.5]
            for env in (full.restrict(keep), full.replace_kind(swapped, own)):
                _assert_kind_indices(corpus, env.mask)
    assert prefixes > 1000


def test_checker_agrees_across_constructions_and_with_model():
    rng = random.Random(11)
    checked = accepted = 0
    for corpus in _corpora():
        for idx, item in enumerate(corpus.items):
            full_model = _prefix_model(corpus, idx)
            for _ in range(3):
                model = full_model.restrict(_random_keep(rng, full_model))
                reason, resolved = naive_check(corpus, item, model)
                by_mask = corpus.candidate_environment(idx).restrict(frozenset(model.all_names()))
                # the same names listed in another order: same verdict and trace
                shuffled = NaiveEnv(
                    {k: tuple(rng.sample(v, len(v))) for k, v in model.lists.items()}
                ).build()
                for env in (by_mask, model.build(), shuffled):
                    outcome = corpus.check_item(item, env, trace_requested=True)
                    assert outcome.reason is reason, (item.name, env)
                    assert outcome.accepted == (reason is None)
                    assert corpus.accepts(item, env) == outcome.accepted
                    if outcome.accepted:
                        assert [e.dst for e in outcome.trace] == resolved
                checked += 1
                accepted += reason is None
    assert checked > 1000 and 0 < accepted < checked


def test_reservations_and_hints_resolve_in_corpus_order():
    corpus = corpus_from(
        "def s := lit;\n"
        "def u := lit;\n"
        "reserve x : s;\n"
        "reserve y, x : u;\n"
        "hint h1 uses s;\n"
        "hint h2 uses s;\n"
        "thm t : uses s var x by auto;\n"
    )
    t = corpus.item("t")
    listed_backwards = Environment(definitions=("u", "s"), hints=("h2", "h1"), reservations=("y", "x"))
    outcome = corpus.check_item(t, listed_backwards, trace_requested=True)
    assert [e.dst for e in outcome.trace] == ["s", "x", "h1", "h2"]
    # without x's own reservation, the later ``reserve y, x : u`` is the witness
    without_first = Environment(definitions=("s", "u"), hints=("h2",), reservations=("y",))
    outcome = corpus.check_item(t, without_first, trace_requested=True)
    assert [e.dst for e in outcome.trace] == ["s", "y", "u", "h2"]
    assert outcome.trace == corpus.check_item(
        t, corpus.candidate_environment(6).restrict({"s", "u", "h2", "y"}), trace_requested=True
    ).trace


def test_name_built_environment_rejects_duplicates_and_foreign_names():
    with pytest.raises(ValueError):
        Environment(definitions=("a", "a"))
    with pytest.raises(ValueError):
        Environment(definitions=("a",), theorems=("a",))
    env = Environment(definitions=("a", "b"))
    with pytest.raises(ValueError):
        env.replace_kind(ItemKind.DEFINITION, ("c",))
    with pytest.raises(ValueError):
        env.replace_kind(ItemKind.THEOREM, ("a",))
    assert env.replace_kind(ItemKind.DEFINITION, ("b",)).definitions == ("b",)


def test_checker_matches_name_built_environment_by_name_and_kind():
    corpus = corpus_from("def f := lit;\nhint h uses f;\nthm t : uses f by auto;\n")
    t = corpus.item("t")
    assert corpus.accepts(t, Environment(definitions=("f",), hints=("h",)))
    # f listed as a theorem, h as a definition: neither is found
    assert corpus.check_item(t, Environment(theorems=("f",), hints=("h",))).reason is (
        RejectReason.UNRESOLVED_SYMBOL
    )
    assert corpus.check_item(t, Environment(definitions=("f", "h"))).reason is (
        RejectReason.NO_APPLICABLE_HINT
    )
    # names the corpus does not have are ignored
    assert corpus.accepts(t, Environment(definitions=("f", "g"), hints=("h", "x")))
