"""Premise relevance learning from extracted dependencies.

A naive Bayes model accumulates, per premise, how often it was a
dependency (the prior count) and how often each statement symbol of the
depending item co-occurred with it.  Ranking scores a candidate premise p
for a conjecture with feature multiset F as

    score(p) = ln(prior[p] + a) + sum over f in F of
               w * (ln(cooc[f, p] + a) - ln(prior[p] + a * V))

with Laplace pseudo-count ``a``, feature weight ``w`` and vocabulary size
V.  Features come from statement symbols only: a fresh conjecture has no
body yet.  The model stores each count once, in premise rows (feature to
co-occurring premise to count), and V is the number of rows.

Evaluation and export run one chronological replay (``_replay``): it
checks alpha, weight and the dependencies up front, then hands over each
theorem in corpus order with the ranker trained on exactly the items that
precede it, and folds the theorem in after the caller has ranked it.

Ranking never scores every candidate (the sparse design of MaSh,
Kühlwein, Blanchette, Kaliszyk and Urban, ITP 2013).  A candidate with no
co-occurrence count for any feature of the conjecture scores by its prior
alone, and a conjecture's symbols co-occur with only a few premises, the
union of its features' rows.  So the ranker keeps its candidates in prior
buckets, in corpus order.  A ranking scores each co-occurring candidate
(a "hit") and each bucket once, inline, with the float operations of
``score_premise`` in the same feature order: ``w * count`` once per
feature, the two logarithms of a prior once per prior, ``ln(c + a)`` once
per count c, and ``ln(a)`` as every co-occurrence term of a bucket's key.
So every score is bit-identical to ``score_premise`` on the candidates one
by one.  Ties still break by earlier corpus order: the top k is a lazy
merge of the sorted hits and the buckets on (-score, corpus position), and
the position of a true dependency is counted from bucket sizes and a
bisection in the buckets that tie with it, with no full sort.

The seeded random baseline of ``evaluate_chrono`` counts a true dependency
in the top k when ``random.Random(seed).shuffle`` of the candidate list
would put it there, with one generator for the whole replay.  The list is
never built or shuffled: ``_shuffled_positions`` draws the Fisher–Yates
swaps with the ``getrandbits`` calls that CPython's ``Random.shuffle``
makes and follows only the true dependencies, so the generator's state
after each theorem, and every byte of the result, are those of the
shuffle.  The draws still cost one loop step per candidate (plus redraws),
which is the larger part of an evaluation's time.  The exact expectation,
min(k, n)/n for n candidates, would remove them but changes the result and
the meaning of the seed, so it is left to a change of its own.  A property
test holds the helper to ``Random.shuffle`` itself, positions and
generator state, so a Python whose shuffle draws differently fails it.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Container, Iterable, Iterator, Sequence

from .corpus import Corpus, DepEdge, Item, ItemKind, write_bytes
from .errors import CorpusMismatchError
from .extract import edge_columns

DEFAULT_ALPHA = 1.0
DEFAULT_WEIGHT = 1.0


class NonFiniteScoreError(ValueError):
    """A premise score overflowed to an infinity or NaN, which orders nothing."""


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
    """Ordered, deduplicated dependency targets per source item, read from
    the edges' names and flag bits (``edge_columns``), so the reader's
    records build no edge here."""
    out: dict[str, dict[str, None]] = {}
    for src, dst, bits in zip(*edge_columns(edges)):
        if explicit_only and not bits & 1:
            continue
        out.setdefault(src, {}).setdefault(dst)
    return {src: tuple(targets) for src, targets in out.items()}


@dataclass
class BayesModel:
    """Counts accumulated over all items before the training horizon: the
    premise rows (feature -> premise -> count) are the one store of the
    co-occurrence counts, V is their number (empty rows included), and
    ``cooccurrence`` and ``vocabulary`` are read-only views of them."""

    prior: dict[str, int] = field(default_factory=dict)
    premises: dict[str, dict[str, int]] = field(default_factory=dict)
    horizon: int = 0

    @property
    def cooccurrence(self) -> dict[tuple[str, str], int]:
        return {(f, p): count for f, row in self.premises.items() for p, count in row.items()}

    @property
    def vocabulary(self) -> set[str]:
        return set(self.premises)

    def update(self, features: Counter, deps: Sequence[str]) -> None:
        """Fold in one item's dependencies and features."""
        if deps:
            for premise in deps:
                self.prior[premise] = self.prior.get(premise, 0) + 1
            for feature, count in features.items():
                row = self.premises.setdefault(feature, {})
                for premise in deps:
                    row[premise] = row.get(premise, 0) + count
        self.horizon += 1

    def scaled(self, factor: int) -> "BayesModel":
        """Copy with every count multiplied by a positive integer."""
        if factor < 1:
            raise ValueError("scale factor must be a positive integer")
        return BayesModel(
            prior={k: v * factor for k, v in self.prior.items()},
            premises={f: {p: c * factor for p, c in row.items()} for f, row in self.premises.items()},
            horizon=self.horizon,
        )


def _check_dependencies(corpus: Corpus, pairs: Iterable[tuple[str, str]]) -> None:
    """Both ends of every dependency, a (from, to) pair, must be corpus
    items, the target the earlier one; the error names the bad pairs in the
    order given, the first one as its ``pair``."""
    bad = list(
        dict.fromkeys(
            (src, dst)
            for src, dst in pairs
            if src not in corpus
            or dst not in corpus
            or corpus.index_of(dst) >= corpus.index_of(src)
        )
    )
    if bad:
        shown = [f"{src} -> {dst}" for src, dst in bad[:3]]
        raise CorpusMismatchError(f"dependencies do not match the corpus: {shown}", bad[0])


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
    _check_dependencies(
        corpus, ((src, dst) for src, targets in deps_by_item.items() for dst in targets)
    )
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
    vocab = max(1, len(model.premises))
    total = math.log(prior + alpha)
    base = math.log(prior + alpha * vocab)
    for feature, count in features.items():
        cooc = model.premises.get(feature, {}).get(premise, 0)
        total += weight * count * (math.log(cooc + alpha) - base)
    return total


class _Logs(dict):
    """``math.log(count + alpha)`` per integer count, computed on first use."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        super().__init__()
        self.alpha = alpha

    def __missing__(self, count: int) -> float:
        value = self[count] = math.log(count + self.alpha)
        return value


class _Ranker:
    """The candidate premises of one model, in prior buckets, ranked sparsely.

    ``buckets`` maps each prior count to the corpus positions of the
    candidates with that prior, ascending, and ``prior_of`` maps each
    candidate position to its bucket.  ``update`` trains the model and moves
    the dependencies between buckets as their priors change.  ``logs`` keeps
    ``log(count + alpha)`` for every count scored so far.
    """

    def __init__(
        self,
        model: BayesModel,
        corpus: Corpus,
        alpha: float,
        weight: float,
        candidates: Iterable[str] = (),
    ):
        # A non-positive alpha has no logarithm, and a NaN or infinite
        # parameter gives scores that order nothing.
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be a positive finite number, got {alpha!r}")
        if not math.isfinite(weight):
            raise ValueError(f"weight must be a finite number, got {weight!r}")
        self.model = model
        self.corpus = corpus
        self.alpha = alpha
        self.weight = weight
        self.logs = _Logs(alpha)
        self.prior_of: dict[int, int] = {}
        self.buckets: dict[int, list[int]] = {}
        for name in candidates:
            self.add(name)

    def add(self, name: str) -> None:
        """Make ``name`` a candidate; adding it again changes nothing."""
        position = self.corpus.index_of(name)
        if position not in self.prior_of:
            self._place(position, self.model.prior.get(name, 0))

    def update(self, features: Counter, deps: Sequence[str]) -> None:
        """Fold one item into the model; its candidate dependencies change bucket."""
        self.model.update(features, deps)
        for name in set(deps):
            position = self.corpus.index_of(name)
            old = self.prior_of.get(position)
            if old is not None:
                bucket = self.buckets[old]
                del bucket[bisect_left(bucket, position)]
                if not bucket:
                    del self.buckets[old]
                self._place(position, self.model.prior[name])

    def _place(self, position: int, prior: int) -> None:
        self.prior_of[position] = prior
        insort(self.buckets.setdefault(prior, []), position)

    def _scored(self, features: Counter):
        """The hits' ``(-score, position)`` keys, sorted, and per prior the
        bucket's ``(-score, positions, hit positions)``; a bucket whose
        members are all hits is left out.

        Each key is the float ``score_premise`` gives, computed inline term
        for term in the same feature order (see the module docstring).
        """
        model = self.model
        alpha = self.alpha
        logs = self.logs
        vocab = max(1, len(model.premises))
        rows = [
            (model.premises.get(feature, {}), self.weight * count)
            for feature, count in features.items()
        ]
        prior_logs = {
            prior: (math.log(prior + alpha), math.log(prior + alpha * vocab))
            for prior in self.buckets
        }
        names: set[str] = set()
        for row, _ in rows:
            names.update(row)
        index_of = self.corpus.index_of
        prior_of = self.prior_of
        hits = []
        own: dict[int, set[int]] = {}
        for name in names:
            position = index_of(name)
            prior = prior_of.get(position)
            if prior is None:
                continue
            total, base = prior_logs[prior]
            for row, scale in rows:
                total += scale * (logs[row.get(name, 0)] - base)
            if not math.isfinite(total):
                raise self._non_finite(name, total)
            hits.append((-total, position))
            own.setdefault(prior, set()).add(position)
        hits.sort()
        items = self.corpus.items
        buckets = {}
        for prior, positions in self.buckets.items():
            skip = own.get(prior, frozenset())
            if len(skip) < len(positions):
                total, base = prior_logs[prior]
                for _, scale in rows:
                    total += scale * (logs[0] - base)
                if not math.isfinite(total):
                    member = next(p for p in positions if p not in skip)
                    raise self._non_finite(items[member].name, total)
                buckets[prior] = (-total, positions, skip)
        return hits, buckets

    def _non_finite(self, name: str, score: float) -> NonFiniteScoreError:
        # Finite alpha and weight can still overflow a score (a weight near
        # 1e308 times a log ratio), and infinite or NaN scores tie or order
        # nothing, so every score the ranker computes is checked.
        return NonFiniteScoreError(
            f"alpha {self.alpha!r} and weight {self.weight!r} give premise {name!r} "
            f"the score {score!r}, which orders nothing"
        )

    def order(self, features: Counter) -> Iterator[tuple[float, int]]:
        """Every candidate's ``(-score, position)``, best first, lazily."""
        hits, buckets = self._scored(features)
        return heapq.merge(
            hits, *(_bucket_keys(key, positions, skip) for key, positions, skip in buckets.values())
        )

    def positions(self, features: Counter, targets: Iterable[str]) -> list[int]:
        """The 1-based position of each target candidate in ``order``, counted."""
        hits, buckets = self._scored(features)
        hit_keys = {position: key for key, position in hits}
        out = []
        for name in targets:
            position = self.corpus.index_of(name)
            key = hit_keys.get(position)
            if key is None:
                key = buckets[self.prior_of[position]][0]
            ahead = bisect_left(hits, (key, position))
            for bucket_key, members, skip in buckets.values():
                if bucket_key < key:
                    ahead += len(members) - len(skip)
                elif bucket_key == key:
                    ahead += bisect_left(members, position) - sum(hit < position for hit in skip)
            out.append(ahead + 1)
        return out


def _bucket_keys(
    key: float, positions: list[int], skip: Container[int]
) -> Iterator[tuple[float, int]]:
    """The ``(key, position)`` of each bucket member that is not a hit.

    A function of its own, not a generator expression inside ``order``: one
    there would look up ``key`` and ``skip`` only when the merge runs it,
    and find the last bucket's.
    """
    for position in positions:
        if position not in skip:
            yield key, position


def rank(
    model: BayesModel,
    conjecture: str,
    features: Counter,
    candidates: Sequence[str],
    corpus: Corpus,
    alpha: float = DEFAULT_ALPHA,
    weight: float = DEFAULT_WEIGHT,
) -> RankedPremises:
    """Distinct candidates ordered by score, ties broken by earlier corpus order."""
    items = corpus.items
    ranker = _Ranker(model, corpus, alpha, weight, candidates)
    return RankedPremises(
        conjecture=conjecture,
        ranking=tuple((items[position].name, -key) for key, position in ranker.order(features)),
    )


def _shuffled_positions(rng: random.Random, n: int, positions: Sequence[int]) -> list[int]:
    """Where ``rng.shuffle`` of an n-list moves the elements at ``positions``.

    The Fisher–Yates swaps of CPython's ``Random.shuffle`` are drawn here
    with the same ``getrandbits`` calls that its ``_randbelow`` makes, so
    ``rng`` ends in the same state as after the shuffle; the list itself is
    never built.  ``at`` maps each list position that holds a tracked
    element to that element's starting position, and a step touches it only
    when i or j is such a position.  No later step moves position i, so
    ``at`` ends with every tracked element at its final position.
    """
    getrandbits = rng.getrandbits
    at = {p: p for p in positions}
    top = n - 1
    while top > 0:
        # one bit width per power-of-two segment: randbelow(i + 1) draws
        # (i + 1).bit_length() bits, redrawing while the draw exceeds i
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            if i in at or j in at:
                here = at.pop(i, None)
                there = at.pop(j, None)
                if there is not None:
                    at[i] = there
                if here is not None:
                    at[j] = here
        top = low - 1
    final = {start: p for p, start in at.items()}
    return [final[p] for p in positions]


def _replay(
    corpus: Corpus, edges: Sequence[DepEdge], alpha: float, weight: float, explicit_only: bool
) -> tuple[_Ranker, Iterator[tuple[int, Item, Counter, tuple[str, ...]]]]:
    """The chronological protocol of evaluation and export, checked up front.

    Returns the ranker and an iterator over the theorems in corpus order.
    Each step hands over ``(index, theorem, features, dependencies)`` with
    the ranker trained on every earlier item, and the theorem is folded in
    when the caller asks for the next step.  Alpha, weight and the
    dependencies are checked here, before the first step, so a caller can
    act on bad input before it writes anything.
    """
    ranker = _Ranker(BayesModel(), corpus, alpha, weight)
    deps_by_item = dependency_map(edges, explicit_only=explicit_only)
    # In the records' order, so that the first bad pair is the first bad
    # record of a deps file, as the graph commands report it.
    sources, targets, flags = edge_columns(edges)
    _check_dependencies(
        corpus,
        (
            (src, dst)
            for src, dst, bits in zip(sources, targets, flags)
            if bits & 1 or not explicit_only
        ),
    )

    def steps():
        for index, item in enumerate(corpus.items):
            features = features_of(item).counts()
            deps = deps_by_item.get(item.name, ())
            if item.kind is ItemKind.THEOREM:
                yield index, item, features, deps
            ranker.update(features, deps)
            ranker.add(item.name)

    return ranker, steps()


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
    ks = sorted(set(int(k) for k in k_values))
    if ks and ks[0] < 0:
        raise ValueError(f"cutoffs must be nonnegative, got {ks[0]}")
    ranker, theorems = _replay(corpus, edges, alpha, weight, explicit_only)
    rng = None if baseline_seed is None else random.Random(baseline_seed)
    recall_sums = dict.fromkeys(ks, 0.0)
    baseline_sums = dict.fromkeys(ks, 0.0)
    rank_total = rank_count = evaluated = 0

    for index, _, features, deps in theorems:
        if not deps:
            continue
        positions = ranker.positions(features, deps)
        for k in ks:
            recall_sums[k] += sum(p <= k for p in positions) / len(deps)
        rank_total += sum(positions)
        rank_count += len(positions)
        if rng is not None:
            shuffled = _shuffled_positions(rng, index, [corpus.index_of(d) for d in deps])
            for k in ks:
                baseline_sums[k] += sum(p < k for p in shuffled) / len(deps)
        evaluated += 1

    result = {
        "evaluated": evaluated,
        "recall_at_k": {k: total / max(evaluated, 1) for k, total in recall_sums.items()},
        "mean_rank": rank_total / max(rank_count, 1),
    }
    if rng is not None:
        result["baseline_recall_at_k"] = {
            k: total / max(evaluated, 1) for k, total in baseline_sums.items()
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
    their kinds; with k = 0 only the conjecture line is written, each file
    by ``write_bytes``, in UTF-8.  Raises
    ``FileExistsError``, before writing anything, when ``out_dir`` holds a
    ``.prb`` file that this export does not write, which would pass for a
    problem of this corpus.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    ranker, theorems = _replay(corpus, edges, alpha, weight, explicit_only)
    out_dir = Path(out_dir)
    for path in sorted(out_dir.glob("*.prb")):
        item = corpus.get(path.stem)
        if item is None or item.kind is not ItemKind.THEOREM:
            raise FileExistsError(
                f"{path}: problem file that this export does not write; "
                "export into an empty directory"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    items = corpus.items
    written: list[Path] = []
    for index, theorem, features, _ in theorems:
        lines = [f"conjecture {theorem.name}"]
        # the index earlier items are all the candidates, and islice takes
        # no stop above sys.maxsize
        lines.extend(
            f"premise {items[position].name} {items[position].kind.value}"
            for _, position in islice(ranker.order(features), min(k, index))
        )
        path = out_dir / f"{theorem.name}.prb"
        write_bytes(path, "".join(line + "\n" for line in lines).encode("utf-8"))
        written.append(path)
    return written
