"""Per-item dependency extraction by tracing and by environment minimization.

Two routes produce dependencies for every item of a normalized corpus:

* trace capture: re-check each item under the environment of everything
  declared before it and record every resolution the checker performs;
* minimization: trim that candidate environment down to a 1-minimal
  sublist that still verifies, kind by kind, using chunked removal against
  the checker oracle.

Because the checker is monotone, a removal that verifies stays valid for
the rest of the search, so each granularity level needs a single sweep and
one final single-removal pass guarantees 1-minimality.  Chunks are tried
from the back of each list first, which resolves ties (several sufficient
hints, say) in favor of the earliest candidate in corpus order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import (
    Corpus,
    DepEdge,
    Environment,
    Item,
    ItemKind,
    Opacity,
    Visibility,
)
from .errors import CorpusMismatchError, NotVerifiableError, ParseError

# Kinds are trimmed in this fixed order.
KIND_MINIMIZATION_ORDER = (
    ItemKind.THEOREM,
    ItemKind.DEFINITION,
    ItemKind.RESERVATION,
    ItemKind.NOTATION,
    ItemKind.HINT,
)


@dataclass(frozen=True, slots=True)
class Microarticle:
    """One item plus the environment of everything declared before it."""

    item: Item
    candidate_env: Environment


@dataclass(frozen=True, slots=True)
class MinimizationResult:
    item_name: str
    minimal_env: Environment
    oracle_calls: int
    removed: dict[ItemKind, int]


def decompose(corpus: Corpus) -> list[Microarticle]:
    """One microarticle per item, in corpus order."""
    return [
        Microarticle(item=item, candidate_env=corpus.candidate_environment(idx))
        for idx, item in enumerate(corpus.items)
    ]


def _shrink(keep: list[int], bits: int, still_ok) -> int:
    """Greedy monotone reduction of one kind's positions.

    ``keep`` lists the set positions of ``bits`` in ascending order.  Tries
    removing chunks of half the list, then quarters, and so on down to
    pairs, scanning chunks back to front, then finishes with one
    single-removal pass.  A chunk is a run of ``keep``, so its trial is
    ``bits`` minus the position range from the run's first to its last
    entry.  ``still_ok`` is called with the trial mask and must be
    monotone in the set of surviving positions.
    """
    size = (len(keep) + 1) // 2
    while size >= 2:
        start = ((len(keep) - 1) // size) * size if keep else -1
        while start >= 0:
            end = min(start + size, len(keep)) - 1
            trial = bits & ~((2 << keep[end]) - (1 << keep[start]))
            if still_ok(trial):
                bits = trial
                del keep[start : end + 1]
            start -= size
        size = (size + 1) // 2 if size > 2 else 1
    for i in range(len(keep) - 1, -1, -1):
        trial = bits & ~(1 << keep[i])
        if still_ok(trial):
            bits = trial
            del keep[i]
    return bits


def minimize_env(
    corpus: Corpus,
    micro: Microarticle,
    seed_targets: Iterable[str] | None = None,
) -> MinimizationResult:
    """Smallest sublist of the candidate environment that still verifies.

    The result is 1-minimal: removing any single element breaks
    verification.  ``seed_targets`` (typically the targets of a previously
    captured trace) short-circuits the search: if the environment
    restricted to the seed verifies, minimization proceeds inside it only.
    ``oracle_calls`` counts the verification attempts made during the
    search itself (the upfront validation of the full environment is not a
    search step).  The search edits the environment's position mask, so a
    trial costs one int and one check.

    Each kind's search starts from the ascending positions of its bits.
    Unless a seed restrict was kept, those bits are a prefix of the corpus
    table's kind mask, and the positions are a slice of the table's
    per-kind position list; after a kept restrict, and for an environment
    built by name, they are listed by ``bit_positions``.
    """
    item = micro.item
    env = micro.candidate_env
    if not corpus.accepts(item, env):
        outcome = corpus.check_item(item, env)
        raise NotVerifiableError(item.name, outcome.reason.value if outcome.reason else "rejected")

    calls = 0

    def oracle(trial_env: Environment) -> bool:
        nonlocal calls
        calls += 1
        return corpus.accepts(item, trial_env)

    if seed_targets is not None:
        restricted = env.restrict(frozenset(seed_targets))
        if restricted != env and oracle(restricted):
            env = restricted

    current = env.mask
    for kind in KIND_MINIMIZATION_ORDER:
        kind_bits = current & env.kind_mask(kind)
        if not kind_bits:
            continue
        others = current & ~kind_bits

        def still_ok(trial: int, others=others) -> bool:
            return oracle(env.with_mask(others | trial))

        keep = env.with_mask(kind_bits).kind_positions(kind)
        current = others | _shrink(keep, kind_bits, still_ok)

    minimal = env.with_mask(current)
    candidate = micro.candidate_env
    removed = {
        kind: candidate.kind_mask(kind).bit_count() - minimal.kind_mask(kind).bit_count()
        for kind in ItemKind
    }
    return MinimizationResult(
        item_name=item.name, minimal_env=minimal, oracle_calls=calls, removed=removed
    )


def trace_extract(corpus: Corpus) -> list[DepEdge]:
    """Concatenated traces of every item under its candidate environment."""
    edges: list[DepEdge] = []
    for micro in decompose(corpus):
        outcome = corpus.check_item(micro.item, micro.candidate_env, trace_requested=True)
        if not outcome.accepted:
            raise NotVerifiableError(
                micro.item.name, outcome.reason.value if outcome.reason else "rejected"
            )
        edges.extend(outcome.trace)
    return edges


def event_lines(corpus: Corpus, trace_edges: Sequence[DepEdge]) -> list[str]:
    """One progress message per item, in corpus order."""
    by_src: dict[str, list[str]] = {item.name: [] for item in corpus.items}
    for edge in trace_edges:
        by_src[edge.src].append(edge.dst)
    lines = []
    for item in corpus.items:
        targets = by_src[item.name]
        lines.append(f"dependencies: {' '.join(targets)}" if targets else "dependencies: (empty list)")
    return lines


def edges_from_minimization(corpus: Corpus, results: Sequence[MinimizationResult]) -> list[DepEdge]:
    """One edge per surviving environment entry, ordered by corpus position."""
    edges: list[DepEdge] = []
    for result in results:
        item = corpus.item(result.item_name)
        targets = sorted(result.minimal_env.all_names(), key=corpus.index_of)
        edges.extend(corpus.dep_edges(item, targets))
    return edges


@dataclass(frozen=True, slots=True)
class ExtractionResult:
    trace_edges: tuple[DepEdge, ...] | None
    minimization: tuple[MinimizationResult, ...] | None
    min_edges: tuple[DepEdge, ...] | None


def extract_corpus(
    corpus: Corpus,
    mode: str = "both",
    jobs: int = 1,
    seed_from_trace: bool = True,
) -> ExtractionResult:
    """Run trace and/or minimization extraction over a whole corpus.

    ``jobs`` must be at least 1 and never changes anything: items are
    minimized one after another in corpus order, because the checker is
    pure Python that holds the interpreter lock, and a thread pool measured
    slower than one thread.
    """
    if mode not in ("trace", "minimize", "both"):
        raise ValueError(f"unknown extraction mode: {mode!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")
    trace_edges = trace_extract(corpus) if mode in ("trace", "both") else None

    minimization = None
    min_edges = None
    if mode in ("minimize", "both"):
        seeds: dict[str, list[str]] | None = None
        if seed_from_trace and trace_edges is not None:
            seeds = {}
            for edge in trace_edges:
                seeds.setdefault(edge.src, []).append(edge.dst)

        minimization = tuple(
            minimize_env(
                corpus,
                micro,
                seed_targets=seeds.get(micro.item.name, []) if seeds is not None else None,
            )
            for micro in decompose(corpus)
        )
        min_edges = tuple(edges_from_minimization(corpus, minimization))

    return ExtractionResult(
        trace_edges=tuple(trace_edges) if trace_edges is not None else None,
        minimization=minimization,
        min_edges=min_edges,
    )


def compare_methods(
    corpus: Corpus,
    trace_edges: Sequence[DepEdge],
    minimization: Sequence[MinimizationResult],
) -> dict:
    """Per-item set differences between traced and minimized dependencies."""
    min_names = {result.item_name for result in minimization}
    corpus_names = {item.name for item in corpus.items}
    if min_names != corpus_names:
        raise CorpusMismatchError(
            "minimization results do not cover the corpus "
            f"(missing {sorted(corpus_names - min_names)[:3]}, "
            f"extra {sorted(min_names - corpus_names)[:3]})"
        )
    stray = {name for edge in trace_edges for name in edge.pair()} - corpus_names
    if stray:
        raise CorpusMismatchError(f"trace edges reference unknown items: {sorted(stray)[:3]}")

    traced: dict[str, set[str]] = {name: set() for name in corpus_names}
    for edge in trace_edges:
        traced[edge.src].add(edge.dst)
    minimal: dict[str, set[str]] = {
        result.item_name: set(result.minimal_env.all_names()) for result in minimization
    }

    per_item = {}
    for item in corpus.items:
        t, m = traced[item.name], minimal[item.name]
        per_item[item.name] = {
            "trace_only": sorted(t - m, key=corpus.index_of),
            "min_only": sorted(m - t, key=corpus.index_of),
            "common": sorted(t & m, key=corpus.index_of),
        }
    totals = {
        key: sum(len(entry[key]) for entry in per_item.values())
        for key in ("trace_only", "min_only", "common")
    }
    return {"per_item": per_item, "totals": totals}


# JSON-lines edge records -----------------------------------------------------


def edge_record(edge: DepEdge, method: str) -> str:
    return json.dumps(
        {
            "from": edge.src,
            "to": edge.dst,
            "vis": edge.visibility.value,
            "opacity": edge.opacity.value,
            "method": method,
        },
        separators=(",", ":"),
    )


def write_edges_jsonl(path: str | Path, result: ExtractionResult) -> None:
    lines = []
    if result.trace_edges is not None:
        lines.extend(edge_record(edge, "trace") for edge in result.trace_edges)
    if result.min_edges is not None:
        lines.extend(edge_record(edge, "min") for edge in result.min_edges)
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# Lines per ``json.loads`` call in ``read_edges_jsonl``.  A decoded block
# lives until it is folded, so this bounds the reader's extra memory.
_BLOCK_LINES = 256

_VIS_BITS = {Visibility.IMPLICIT.value: 0, Visibility.EXPLICIT.value: 1}
_OPACITY_BITS = {Opacity.OPAQUE.value: 0, Opacity.TRANSPARENT.value: 2}


def _fold_records(records: Iterable, method: str, flags: dict[tuple[str, str], int]) -> None:
    """The record rule: OR each record's explicit (1) and transparent (2)
    flags into the entry of its (from, to) pair, skipping records of another
    ``method`` unless it is ``"any"``.  The first record that breaks the
    rule raises ``KeyError``, ``TypeError`` or ``ValueError``; a bad
    ``vis`` or ``opacity`` raises the error of the enum lookup."""
    for rec in records:
        if method != "any" and rec["method"] != method:
            continue
        src, dst = rec["from"], rec["to"]
        if not (isinstance(src, str) and isinstance(dst, str)):
            raise TypeError("'from' and 'to' must be strings")
        vis, opacity = rec["vis"], rec["opacity"]
        try:
            bits = _VIS_BITS[vis] | _OPACITY_BITS[opacity]
        except (KeyError, TypeError):
            Visibility(vis), Opacity(opacity)  # raises the lookup's ValueError
            raise
        flags[src, dst] = flags.get((src, dst), 0) | bits


def _block_records(block: Sequence[bytes]) -> list | None:
    """The records of ``block`` from one ``json.loads``, or None unless that
    decode provably equals decoding each line on its own.

    The lines are joined as ``[line,line,...]`` with a raw newline before
    each comma, and JSON strings cannot hold a raw newline, so no string
    spans two lines.  The guard: no ``[`` byte, so the outer list is the
    only list; one ``{`` byte per line and one dict per line decoded, so
    every ``{`` opens a record and no record nests an object; and every
    line ending in ``}``, so each line end closes a record and no record
    spans two lines.  Then line k holds exactly record k.  A blank line
    fails the guard.  The block is read as UTF-8, not by the encoding
    detection of ``json.loads``, which could take a NUL byte for UTF-16; a
    block that is not plain UTF-8 JSON fails the decode.
    """
    joined = b"\n,".join(block)
    if (
        b"[" in joined
        or joined.count(b"{") != len(block)
        or joined.count(b"}\n,") != len(block) - 1
        or not joined.endswith(b"}")
    ):
        return None
    try:
        records = json.loads("[" + joined.decode("utf-8") + "]")
    except ValueError:
        return None
    if len(records) != len(block) or not all(type(rec) is dict for rec in records):
        return None
    return records


def read_edges_jsonl(path: str | Path, method: str = "any") -> list[DepEdge]:
    """Load edges back, optionally filtered by extraction method.

    Each record's explicit and transparent flags are ORed into its (from,
    to) pair while reading, so explicit wins over implicit and transparent
    over opaque, and one ``DepEdge`` is built per pair, in first-seen
    order.  A malformed record raises ``ParseError`` naming its line.

    Lines are decoded ``_BLOCK_LINES`` at a time, one ``json.loads`` per
    block, when ``_block_records`` shows that this equals decoding each line
    on its own.  A block that fails that guard or the record rule is
    decoded again one line at a time, and only that block, so a malformed
    record is reported with its own line, and blank lines are skipped.
    Decoding the whole file in one call would hold every record at once.
    """
    if method not in ("any", "trace", "min"):
        raise ValueError(f"unknown method filter: {method!r}")
    flags: dict[tuple[str, str], int] = {}
    lines = Path(path).read_bytes().splitlines()
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start : start + _BLOCK_LINES]
        records = _block_records(block)
        if records is not None:
            try:
                _fold_records(records, method, flags)
                continue
            except (KeyError, TypeError, ValueError):
                pass  # the line loop below names the record's line
        for lineno, line in enumerate(block, start + 1):
            if not line.strip():
                continue
            try:
                _fold_records((json.loads(line),), method, flags)
            except (KeyError, TypeError, ValueError) as err:
                raise ParseError(f"malformed edge record ({err!r})", str(path), lineno) from None
    vis = (Visibility.IMPLICIT, Visibility.EXPLICIT)
    opacity = (Opacity.OPAQUE, Opacity.TRANSPARENT)
    return [DepEdge(*pair, vis[bits & 1], opacity[bits >> 1]) for pair, bits in flags.items()]
