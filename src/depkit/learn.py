"""Premise relevance learning from extracted dependencies.

A naive Bayes model accumulates, per premise, how often it was a
dependency (the prior count) and how often each statement symbol of the
depending item co-occurred with it.  Ranking scores a candidate premise p
for a conjecture with feature multiset F as

    score(p) = ln(prior[p] + a) + sum over f in F of
               w * (ln(cooc[f, p] + a) - ln(prior[p] + a * V))

with Laplace pseudo-count ``a``, feature weight ``w`` and vocabulary size
V.  Features come from statement symbols only: a fresh conjecture has no
body yet.  Evaluation replays library growth, training only on items that
precede the conjecture under evaluation.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Corpus, DepEdge, Item, ItemKind, Visibility
from .errors import CorpusMismatchError

DEFAULT_ALPHA = 1.0
DEFAULT_WEIGHT = 1.0


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """Statement-symbol unigrams of one item."""

    item_name: str
    features: tuple[str, ...]

    def counts(self) -> Counter:
        return Counter(self.features)


def features_of(item: Item) -> FeatureVector:
    return FeatureVector(item_name=item.name, features=item.statement_symbols)


def dependency_map(
    edges: Iterable[DepEdge], explicit_only: bool = False
) -> dict[str, tuple[str, ...]]:
    """Ordered, deduplicated dependency targets per source item."""
    out: dict[str, dict[str, None]] = {}
    for edge in edges:
        if explicit_only and edge.visibility is not Visibility.EXPLICIT:
            continue
        out.setdefault(edge.src, {}).setdefault(edge.dst)
    return {src: tuple(targets) for src, targets in out.items()}


@dataclass
class BayesModel:
    """Counts accumulated over all items before the training horizon."""

    prior: dict[str, int] = field(default_factory=dict)
    cooccurrence: dict[tuple[str, str], int] = field(default_factory=dict)
    vocabulary: set[str] = field(default_factory=set)
    horizon: int = 0

    def update(self, features: Counter, deps: Sequence[str]) -> None:
        """Fold in one item's dependencies and features."""
        if deps:
            for premise in deps:
                self.prior[premise] = self.prior.get(premise, 0) + 1
            for feature, count in features.items():
                self.vocabulary.add(feature)
                for premise in deps:
                    key = (feature, premise)
                    self.cooccurrence[key] = self.cooccurrence.get(key, 0) + count
        self.horizon += 1

    def scaled(self, factor: int) -> "BayesModel":
        """Copy with every count multiplied by a positive integer."""
        if factor < 1:
            raise ValueError("scale factor must be a positive integer")
        return BayesModel(
            prior={k: v * factor for k, v in self.prior.items()},
            cooccurrence={k: v * factor for k, v in self.cooccurrence.items()},
            vocabulary=set(self.vocabulary),
            horizon=self.horizon,
        )


def _check_dependencies(corpus: Corpus, deps_by_item: dict[str, tuple[str, ...]]) -> None:
    """Both ends of every dependency must be corpus items, the target the earlier one."""
    bad = [
        f"{src} -> {dst}"
        for src, targets in deps_by_item.items()
        for dst in targets
        if src not in corpus or dst not in corpus or corpus.index_of(dst) >= corpus.index_of(src)
    ]
    if bad:
        raise CorpusMismatchError(f"dependencies do not match the corpus: {bad[:3]}")


def train(
    corpus: Corpus,
    deps_by_item: dict[str, tuple[str, ...]],
    upto: int,
) -> BayesModel:
    """Model over the first ``upto`` corpus items.

    ``deps_by_item`` maps item names to dependency targets (as produced by
    ``dependency_map``, which is also where implicit edges can be filtered
    out); names outside the corpus and later targets are a mismatch error.
    """
    if upto > len(corpus.items):
        raise CorpusMismatchError(f"training horizon {upto} exceeds corpus size {len(corpus.items)}")
    _check_dependencies(corpus, deps_by_item)
    model = BayesModel()
    for item in corpus.items[:upto]:
        model.update(features_of(item).counts(), deps_by_item.get(item.name, ()))
    return model


@dataclass(frozen=True, slots=True)
class RankedPremises:
    conjecture: str
    ranking: tuple[tuple[str, float], ...]

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ranking)


def score_premise(
    model: BayesModel,
    premise: str,
    features: Counter,
    alpha: float = DEFAULT_ALPHA,
    weight: float = DEFAULT_WEIGHT,
) -> float:
    prior = model.prior.get(premise, 0)
    vocab = max(1, len(model.vocabulary))
    total = math.log(prior + alpha)
    base = math.log(prior + alpha * vocab)
    for feature, count in features.items():
        cooc = model.cooccurrence.get((feature, premise), 0)
        total += weight * count * (math.log(cooc + alpha) - base)
    return total


def rank(
    model: BayesModel,
    conjecture: str,
    features: Counter,
    candidates: Sequence[str],
    corpus: Corpus,
    alpha: float = DEFAULT_ALPHA,
    weight: float = DEFAULT_WEIGHT,
) -> RankedPremises:
    """Candidates ordered by score, ties broken by earlier corpus order."""
    scored = [
        (score_premise(model, name, features, alpha, weight), corpus.index_of(name), name)
        for name in candidates
    ]
    scored.sort(key=lambda entry: (-entry[0], entry[1]))
    return RankedPremises(
        conjecture=conjecture,
        ranking=tuple((name, score) for score, _, name in scored),
    )


def evaluate_chrono(
    corpus: Corpus,
    edges: Sequence[DepEdge],
    k_values: Sequence[int],
    alpha: float = DEFAULT_ALPHA,
    weight: float = DEFAULT_WEIGHT,
    explicit_only: bool = False,
    baseline_seed: int | None = None,
) -> dict:
    """Replay library growth and measure recall of true dependencies.

    For every theorem with at least one recorded dependency: train on all
    preceding items, rank every preceding item, and take the fraction of
    true dependencies inside the top k.  A seeded random ranking over the
    same candidates is reported alongside when ``baseline_seed`` is given.
    """
    deps_by_item = dependency_map(edges, explicit_only=explicit_only)
    _check_dependencies(corpus, deps_by_item)

    ks = sorted(set(int(k) for k in k_values))
    recall_sums = {k: 0.0 for k in ks}
    baseline_sums = {k: 0.0 for k in ks} if baseline_seed is not None else None
    rng = random.Random(baseline_seed) if baseline_seed is not None else None
    rank_positions: list[int] = []
    evaluated = 0

    model = BayesModel()
    names: list[str] = []
    for item in corpus.items:
        true_deps = set(deps_by_item.get(item.name, ()))
        if item.kind is ItemKind.THEOREM and true_deps:
            ranked = rank(
                model, item.name, features_of(item).counts(), names, corpus, alpha, weight
            ).names()
            position = {name: pos for pos, name in enumerate(ranked, start=1)}
            for k in ks:
                top = set(ranked[:k])
                recall_sums[k] += len(top & true_deps) / len(true_deps)
            rank_positions.extend(position[name] for name in true_deps)
            if rng is not None:
                shuffled = list(names)
                rng.shuffle(shuffled)
                for k in ks:
                    top = set(shuffled[:k])
                    baseline_sums[k] += len(top & true_deps) / len(true_deps)
            evaluated += 1
        model.update(features_of(item).counts(), deps_by_item.get(item.name, ()))
        names.append(item.name)

    result = {
        "evaluated": evaluated,
        "recall_at_k": {
            k: (recall_sums[k] / evaluated if evaluated else 0.0) for k in ks
        },
        "mean_rank": (sum(rank_positions) / len(rank_positions)) if rank_positions else 0.0,
    }
    if baseline_sums is not None:
        result["baseline_recall_at_k"] = {
            k: (baseline_sums[k] / evaluated if evaluated else 0.0) for k in ks
        }
        result["baseline_seed"] = baseline_seed
    return result


def export_problems(
    corpus: Corpus,
    edges: Sequence[DepEdge],
    k: int,
    out_dir: str | Path,
    alpha: float = DEFAULT_ALPHA,
    weight: float = DEFAULT_WEIGHT,
    explicit_only: bool = False,
) -> list[Path]:
    """One pruned premise-list file per theorem, trained chronologically.

    Each file names the conjecture and then the top-k ranked premises with
    their kinds; with k = 0 only the conjecture line is written.
    """
    deps_by_item = dependency_map(edges, explicit_only=explicit_only)
    _check_dependencies(corpus, deps_by_item)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    model = BayesModel()
    names: list[str] = []
    for item in corpus.items:
        if item.kind is ItemKind.THEOREM:
            ranked = rank(
                model, item.name, features_of(item).counts(), names, corpus, alpha, weight
            ).names()
            lines = [f"conjecture {item.name}"]
            lines.extend(
                f"premise {name} {corpus.item(name).kind.value}" for name in ranked[:k]
            )
            path = out_dir / f"{item.name}.prb"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            written.append(path)
        model.update(features_of(item).counts(), deps_by_item.get(item.name, ()))
        names.append(item.name)
    return written
