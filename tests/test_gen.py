"""Synthetic corpora: well-formedness, determinism, family shapes."""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depkit import gen
from depkit.corpus import Corpus, ItemKind, parse_source
from depkit.extract import trace_extract
from depkit.gen import FAMILIES, generate_corpus, write_corpus
from depkit.normalize import normalize_corpus

from _oracles import mixed_by_rescan


def _parse(files: dict[str, str]) -> Corpus:
    return Corpus([it for rel, text in sorted(files.items()) for it in parse_source(text, rel)])


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_verifies_under_prefix_envs(family):
    for seed in (0, 1, 7):
        corpus = _parse(generate_corpus(items=35, seed=seed, family=family))
        assert len(corpus.items) == 35
        trace_extract(corpus)  # raises NotVerifiableError on any bad item


@pytest.mark.parametrize("family", FAMILIES)
def test_generation_is_deterministic(family):
    a = generate_corpus(items=25, seed=5, family=family)
    b = generate_corpus(items=25, seed=5, family=family)
    assert a == b
    c = generate_corpus(items=25, seed=6, family=family)
    if family in ("mixed", "symbols"):  # the seed actually steers these
        assert a != c


def test_generated_corpora_are_already_normal():
    corpus = _parse(generate_corpus(items=50, seed=2, family="mixed"))
    normalized, reports = normalize_corpus(corpus)
    assert [it.name for it in normalized.items] == [it.name for it in corpus.items]
    for report in reports.values():
        assert report.blocks_split == 0
        assert report.links_rewritten == 0
        assert report.reservations_split == 0


def test_per_file_chunking():
    files = generate_corpus(items=23, seed=1, family="chain", per_file=10)
    assert sorted(files) == ["art0000.art", "art0001.art", "art0002.art"]
    corpus = _parse(files)
    sizes = [len(items) for _, items in corpus.by_file().items()]
    assert sizes == [10, 10, 3]


def test_hint_family_contains_redundant_hints():
    corpus = _parse(generate_corpus(items=40, seed=3, family="hints"))
    autos = [it for it in corpus.items if it.by_auto]
    assert autos
    hints = [it for it in corpus.items if it.kind is ItemKind.HINT]
    assert len(hints) >= 2 * len(autos)


def test_mixed_family_covers_every_kind():
    corpus = _parse(generate_corpus(items=120, seed=4, family="mixed"))
    kinds = {it.kind for it in corpus.items}
    assert kinds == set(ItemKind)


def test_write_corpus_round_trips(tmp_path):
    from depkit.corpus import parse_corpus

    files = generate_corpus(items=18, seed=8, family="diamond")
    write_corpus(files, tmp_path)
    corpus = parse_corpus(tmp_path)
    assert len(corpus.items) == 18


def test_write_corpus_makes_each_nested_parent_once(tmp_path, monkeypatch):
    """One ``mkdir`` for the output directory, then one per distinct parent
    of a nested path, and none more for a flat corpus."""
    from depkit.corpus import parse_corpus

    made = []
    mkdir = Path.mkdir

    def counting_mkdir(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting_mkdir)
    write_corpus(generate_corpus(items=30, seed=8), tmp_path / "flat")
    assert made == [tmp_path / "flat"]
    made.clear()
    files = {
        "a.art": "def d := lit;\n",
        "sub/b.art": "thm t : uses d;\n",
        "sub/c.art": "thm s : uses t;\n",
        "sub/deep/e.art": "thm : uses s;\n",
    }
    out = tmp_path / "nested"
    write_corpus(files, out)
    assert made == [out, out / "sub", out / "sub" / "deep"]
    assert [item.source_file for item in parse_corpus(out)] == sorted(files)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        generate_corpus(items=5, seed=0, family="nope")
    with pytest.raises(ValueError):
        generate_corpus(items=-1, seed=0)
    with pytest.raises(ValueError):
        generate_corpus(items=5, seed=0, per_file=0)


@settings(max_examples=60, deadline=None)
@given(items=st.integers(0, 400), seed=st.integers(0, 2**32))
def test_mixed_matches_the_rescanning_reference(items, seed):
    """The same lines, and the generator left in the same state, so every
    draw was the same call."""
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert gen._mixed(items, rng) == mixed_by_rescan(items, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize(
    "items,seed,digest",
    [
        # The benchmark corpora, then the 10k corpus of the scaling rows.
        (3000, 42, "9d64c075122885f9e0c7ae943a17150dfcc1216807fd0d439d2549666ab0d75f"),
        (3000, 7, "f3761644d7e435fee8a1257f529112383802e6034b381daa3105b0ce71ee0c36"),
        (10000, 42, "9bd7431dea27568b9c3564ab90b5807f50191f475c159be6fdef02c91ba3a91b"),
    ],
)
def test_mixed_corpora_are_pinned(items, seed, digest):
    files = generate_corpus(items, seed)
    assert hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest() == digest


def test_generation_time_grows_linearly():
    """Best of three at 2,500 and 25,000 items: a log-log slope below 1.5
    (about 1 when linear, about 2 when each item rescans the earlier ones)."""

    def best(items: int) -> float:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            generate_corpus(items, 42)
            times.append(time.perf_counter() - start)
        return min(times)

    small, large = best(2500), best(25000)
    assert math.log10(large / small) < 1.5, (small, large)


def test_write_corpus_refuses_a_directory_with_other_sources(tmp_path):
    """Stale sources at any depth would be read as part of the new corpus;
    nothing is written when one is found."""
    first = generate_corpus(items=30, seed=1)
    write_corpus(first, tmp_path)
    write_corpus(first, tmp_path)  # the same corpus again
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "old.art").write_text("def old := lit;\n", encoding="utf-8")
    with pytest.raises(FileExistsError, match="sub/old.art"):
        write_corpus(generate_corpus(items=30, seed=2), tmp_path)
    assert (tmp_path / "art0000.art").read_text(encoding="utf-8") == first["art0000.art"]
