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

Both routes read one checker: the item's rules, written once as corpus
positions by ``Corpus._rules``.  Tracing bit-tests them through
``Corpus.check_item``.  Minimization compiles them once per item
(``Corpus._compile_local``) over local bits, one per position the rules
read, and searches each kind over indices: the kind's number of positions
and the index of each read position among them.  A trial's verdict can
only change when its chunk removes a read position, so a chunk holding
none is counted and dropped, a chunk holding a required position fails,
and only a chunk holding an alternative (a reservation pair or a hint)
runs the compiled check; the trials, and their order, are those of a
search that checks every chunk.  A minimal environment is a mask over the
corpus table whose set positions ascend in corpus order: its edges come
from those positions through ``Corpus.dep_edges``, the builder of a
trace's edges, and the trace/minimize comparison reads the names at them,
so neither needs a sort.  Edge records are formatted as text, which is
exact because the writer first checks every name against the lexical
identifier rule.

The reader reads the records back by the same form: a block of lines that
are all records exactly as ``edge_record`` writes them is read by one regex
search, and any other block by ``json.loads`` per line, so a valid file in
another layout reads the same and every malformed record names its line.
Every record is checked before the method filter, so whether a file reads
does not depend on the filter.  The reader folds the records into their
(from, to) pairs and returns them as a view (``EdgeRecords``), which the
graph and the learner read without building an edge per record.
"""

from __future__ import annotations

import json
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .corpus import (
    IDENTIFIER_RE,
    Corpus,
    DepEdge,
    Environment,
    Item,
    ItemKind,
    Opacity,
    Visibility,
    _SLOT,
    bit_positions,
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
_SEARCH_SLOTS = tuple(_SLOT[kind] for kind in KIND_MINIMIZATION_ORDER)


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


def _shrink(
    n: int,
    reads: list[tuple[int, int]],
    state: int,
    required: int,
    verifies: Callable[[int], bool],
) -> tuple[int, int]:
    """Greedy monotone reduction of one kind's ``n`` positions, by index:
    the new ``state`` and the number of trials.

    The search tries removing chunks of half the kind's positions, then
    quarters, and so on down to pairs, scanning chunks back to front, then
    finishes with one single-removal pass.  It keeps only ``n`` and, per
    position that the item's rules read, its index among the kind's
    positions and its local bit (``reads``, ascending).  ``state`` holds
    the local bits present, and a trial's verdict is ``verifies`` of the
    state without the chunk's local bits, which is monotone.  Only a chunk
    holding a read position can change the verdict: the others are counted
    as trials and dropped, since the state verified before and so verifies
    again; a chunk holding a ``required`` local bit fails without a check;
    the rest run ``verifies``.  A chunk that verifies is removed, and the
    reads after it move down by its length, so the trials are those of a
    search over the positions themselves, in the same order.  The last pass
    removes every unread position, so the kept positions are the reads
    whose local bits ``state`` still holds.
    """
    trials = 0
    size = (n + 1) // 2
    while n:
        trials += -(-n // size)
        # Back to front, the chunks holding reads: ``reads[start:end]``, in
        # the chunk that starts at index ``first``.
        kept = []
        end = len(reads)
        while end:
            start = end - 1
            first = reads[start][0] // size * size
            bits = reads[start][1]
            while start and reads[start - 1][0] >= first:
                start -= 1
                bits |= reads[start][1]
            if bits & required or not verifies(state & ~bits):
                kept.append((first, start, end))
            else:
                state &= ~bits
            end = start
        if size == 1:
            break
        # The kept chunks close up, front to back.
        moved = []
        length = 0
        for first, start, end in reversed(kept):
            for index, local in reads[start:end]:
                moved.append((index - first + length, local))
            length += min(size, n - first)
        n, reads = length, moved
        size = (size + 1) // 2 if size > 2 else 1
    return state, trials


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
    ``oracle_calls`` counts the trials of the search itself, the seed
    restrict and every chunk of the chunked search, whether a count
    decided a trial or the compiled check did (the upfront validation of
    the full environment is not a search step).

    The search runs on corpus positions.  The candidate environment becomes
    one mask over the corpus table: an environment the corpus handed out is
    its mask already, and one built by name is matched to corpus positions
    once, by name and kind, as the checker matches it, so its own order
    plays no part and names the corpus does not hold under that kind are
    neither searched nor counted in ``removed``.  The item's rules, the
    corpus positions ``check_item`` tests (``Corpus._rules``), are compiled
    once into one local bit per position they read
    (``Corpus._compile_local``), so a state is a small int of the read
    positions present and its verdict a few tests of it.  A rejected
    candidate's reason comes from ``check_item``.

    Each kind is searched over indices (``_shrink``): its number of
    positions and the index of each read position among them
    (``Corpus._index_reads``).  For a candidate environment, a prefix mask, both
    are read from the corpus's per-cut kind counts; after a kept restrict,
    from the seed targets' positions, looked up by name; no kind's
    positions are listed per item.  Only a candidate mask that is no
    prefix, such as a restricted environment's, is listed by
    ``bit_positions``.  The last pass of each search drops every position
    the rules do not read, so the minimal mask is the read positions kept,
    and ``removed[kind]`` is the number of the candidate's positions of that
    kind less the number kept.
    """
    item = micro.item
    candidate = corpus._bits_of(micro.candidate_env)
    cut = candidate.bit_length()
    reads, required, verifies = corpus._compile_local(item)
    # The candidate's positions: all below ``cut`` for a prefix mask (a
    # candidate environment), else listed; ``holds(pos)`` tests one.
    listed = bit_positions(candidate) if candidate & (candidate + 1) else None
    holds = cut.__gt__ if listed is None else set(listed).__contains__
    if listed is None:
        candidate_counts = corpus._kind_counts_below(cut)
    else:
        candidate_counts = corpus._index_reads({}, cut, listed)[0]
    state = 0
    for pos, local in reads.items():
        if holds(pos):
            state |= local
    if not verifies(state):
        outcome = corpus.check_item(item, micro.candidate_env)
        raise NotVerifiableError(item.name, outcome.reason.value if outcome.reason else "rejected")

    calls = 0
    searched = listed
    if seed_targets is not None:
        index = corpus._table.index
        seeds = sorted(filter(holds, {index[name] for name in seed_targets if name in index}))
        if len(seeds) != sum(candidate_counts):
            calls += 1
            restricted = 0
            for pos in seeds:
                restricted |= reads.get(pos, 0)
            if verifies(restricted):
                state, searched = restricted, seeds

    counts, held = corpus._index_reads(reads, cut, searched)
    for slot in _SEARCH_SLOTS:
        if counts[slot]:
            state, trials = _shrink(counts[slot], held[slot], state, required, verifies)
            calls += trials

    slot_at = corpus._slot_at
    minimal = 0
    kept_counts = [0] * len(_SLOT)
    for pos, local in reads.items():
        if state & local:
            minimal |= 1 << pos
            kept_counts[slot_at[pos]] += 1
    return MinimizationResult(
        item_name=item.name,
        minimal_env=Environment._of(corpus._table, minimal),
        oracle_calls=calls,
        removed={kind: candidate_counts[slot] - kept_counts[slot] for kind, slot in _SLOT.items()},
    )


def trace_extract(
    corpus: Corpus, micros: Sequence[Microarticle] | None = None
) -> list[DepEdge]:
    """Concatenated traces of every item under its candidate environment.

    ``micros`` are the corpus's microarticles, ``decompose(corpus)`` when
    not given; ``extract_corpus`` passes the ones it minimizes, so each
    candidate environment is built once.
    """
    edges: list[DepEdge] = []
    for micro in decompose(corpus) if micros is None else micros:
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


def _names_at(corpus: Corpus, bits: int) -> list[str]:
    """The names at the set positions of ``bits``, a corpus mask, in corpus order."""
    items = corpus.items
    return [items[pos].name for pos in bit_positions(bits)]


def edges_from_minimization(corpus: Corpus, results: Sequence[MinimizationResult]) -> list[DepEdge]:
    """One edge per surviving environment entry, ordered by corpus position.

    The targets are the set positions of each minimal environment's mask
    over the corpus table, which ascend in corpus order; ``Corpus.dep_edges``
    builds the edges from them, as it builds a trace's, so no name list is
    derived and nothing is sorted.
    """
    edges: list[DepEdge] = []
    for result in results:
        item = corpus.item(result.item_name)
        edges.extend(corpus.dep_edges(item, bit_positions(corpus._bits_of(result.minimal_env))))
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
    micros = decompose(corpus)
    trace_edges = trace_extract(corpus, micros) if mode in ("trace", "both") else None

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
            for micro in micros
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

    # Per item, the traced and the minimal dependencies as corpus masks: the
    # set differences are mask operations whose positions come out in
    # corpus order.
    index_of = corpus.index_of
    traced = dict.fromkeys(corpus_names, 0)
    for edge in trace_edges:
        traced[edge.src] |= 1 << index_of(edge.dst)
    minimal = {result.item_name: corpus._bits_of(result.minimal_env) for result in minimization}

    per_item = {}
    for item in corpus.items:
        t, m = traced[item.name], minimal[item.name]
        per_item[item.name] = {
            "trace_only": _names_at(corpus, t & ~m),
            "min_only": _names_at(corpus, m & ~t),
            "common": _names_at(corpus, t & m),
        }
    totals = {
        key: sum(len(entry[key]) for entry in per_item.values())
        for key in ("trace_only", "min_only", "common")
    }
    return {"per_item": per_item, "totals": totals}


def compare_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True) + "\n"`` for a report of
    ``compare_methods``, built by formatting.

    With ``indent`` set, ``json.dumps`` takes its pure-Python encoder.  Here
    each item name is quoted once, by ``json.dumps`` itself, so names are
    escaped exactly as in the full dump; every name in the report's lists
    is one of its items.
    """
    quoted = {name: json.dumps(name) for name in report["per_item"]}

    def names(values: list[str]) -> str:
        if not values:
            return "[]"
        return "[\n        " + ",\n        ".join(map(quoted.__getitem__, values)) + "\n      ]"

    entries = ",\n".join(
        f"    {quoted[name]}: {{\n"
        f'      "common": {names(entry["common"])},\n'
        f'      "min_only": {names(entry["min_only"])},\n'
        f'      "trace_only": {names(entry["trace_only"])}\n'
        "    }"
        for name, entry in sorted(report["per_item"].items())
    )
    per_item = "{\n" + entries + "\n  }" if entries else "{}"
    totals = report["totals"]
    return (
        "{\n"
        f'  "per_item": {per_item},\n'
        '  "totals": {\n'
        f'    "common": {totals["common"]},\n'
        f'    "min_only": {totals["min_only"]},\n'
        f'    "trace_only": {totals["trace_only"]}\n'
        "  }\n"
        "}\n"
    )


# JSON-lines edge records -----------------------------------------------------


_VISIBILITY_OF = (Visibility.IMPLICIT, Visibility.EXPLICIT)
_OPACITY_OF = (Opacity.OPAQUE, Opacity.TRANSPARENT)


def _flag_bits(visibility: Visibility, opacity: Opacity) -> int:
    """A dependency record's flag bits: explicit 1, transparent 2."""
    return (visibility is Visibility.EXPLICIT) | (opacity is Opacity.TRANSPARENT) << 1


class EdgeRecords(Sequence[DepEdge]):
    """Read-only view of folded dependency records: per distinct (from, to)
    pair, in first-seen order, its from, its to and its flag bits
    (``_flag_bits``), held in two lists of names and one byte string.

    ``len``, iteration, indexing, slices, ``in`` and ``==`` treat it as the
    list of one ``DepEdge`` per pair, and it builds an edge only when one is
    read; ``edge_columns`` hands the names and the bits over as they are.
    """

    __slots__ = ("_sources", "_targets", "_flags")

    def __init__(self, folded: dict[tuple[str, str], int]):
        """The records of ``folded``, each pair's ORed flag bits, in its order."""
        self._sources = list(map(operator.itemgetter(0), folded))
        self._targets = list(map(operator.itemgetter(1), folded))
        self._flags = bytes(folded.values())

    def __len__(self) -> int:
        return len(self._flags)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        # The names list raises what a list of the edges would.
        src, dst, bits = self._sources[index], self._targets[index], self._flags[index]
        return DepEdge(src, dst, _VISIBILITY_OF[bits & 1], _OPACITY_OF[bits >> 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, EdgeRecords)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def edge_columns(edges: Iterable[DepEdge]) -> tuple[list[str], list[str], bytes | bytearray]:
    """The from, the to and the flag bits (``_flag_bits``) of each edge, as
    three columns: an ``EdgeRecords``' own, else one entry per edge, in
    order."""
    if isinstance(edges, EdgeRecords):
        return edges._sources, edges._targets, edges._flags
    sources, targets, flags = [], [], bytearray()
    for edge in edges:
        sources.append(edge.src)
        targets.append(edge.dst)
        flags.append(_flag_bits(edge.visibility, edge.opacity))
    return sources, targets, flags


def edge_record(edge: DepEdge, method: str) -> str:
    """One ``deps.jsonl`` record, without its line end.

    The record is built by formatting, not by ``json.dumps``.  The two give
    the same text when no string needs a JSON escape: true of the ``vis``,
    ``opacity`` and ``method`` values the writer uses, and of every name
    under the lexical identifier rule (``IDENTIFIER_RE``), which
    ``write_edges_jsonl`` checks before it writes.
    """
    return (
        f'{{"from":"{edge.src}","to":"{edge.dst}","vis":"{edge.visibility.value}",'
        f'"opacity":"{edge.opacity.value}","method":"{method}"}}'
    )


def write_edges_jsonl(path: str | Path, result: ExtractionResult) -> None:
    """Write the trace records, then the minimization records, one per line.

    Every name of the records must match the lexical identifier rule, so
    that ``edge_record`` needs no escaping: a name that does not raises
    ``ValueError`` before anything is written.
    """
    groups = [
        (edges, method)
        for edges, method in ((result.trace_edges, "trace"), (result.min_edges, "min"))
        if edges is not None
    ]
    names = {name for edges, _ in groups for edge in edges for name in (edge.src, edge.dst)}
    for name in names:
        if not IDENTIFIER_RE.fullmatch(name):
            raise ValueError(f"item name {name!r} is not an identifier; no records written")
    text = "".join(edge_record(edge, method) + "\n" for edges, method in groups for edge in edges)
    Path(path).write_text(text, encoding="utf-8")


# Lines per block of ``read_edges_jsonl``.  A block's matches live until
# they are folded, so this bounds the reader's extra memory.
_BLOCK_LINES = 256

_METHODS = ("trace", "min")


def _tail(vis: str, opacity: str, method: str) -> str:
    """A record's text between its names and its closing brace."""
    return f'"vis":"{vis}","opacity":"{opacity}","method":"{method}"'


# The tail of each (vis, opacity, method), with the record's flag bits
# (``_flag_bits``) and its method.
_TAILS = {
    _tail(vis.value, opacity.value, method): (_flag_bits(vis, opacity), method)
    for vis in Visibility
    for opacity in Opacity
    for method in _METHODS
}

# One record exactly as ``edge_record`` writes it, with names under the
# identifier rule: its from, its to and its tail.  The tail's pattern is
# ``_tail`` of one alternation per field, so it matches exactly the keys of
# ``_TAILS``.  In MULTILINE mode a match spans one whole line, since nothing
# in a record matches a line end.
_RECORD_RE = re.compile(
    r'^\{{"from":"({name})","to":"({name})",({tail})\}}$'.format(
        name=IDENTIFIER_RE.pattern,
        tail=_tail(
            *(
                "(?:" + "|".join(values) + ")"
                for values in ([v.value for v in Visibility], [o.value for o in Opacity], _METHODS)
            )
        ),
    ),
    re.MULTILINE,
)


def _record_fields(rec) -> tuple[str, str, str]:
    """The (from, to, tail) of one decoded record, checked by the record
    rule; the tail is the ``_TAILS`` key of its vis, opacity and method.  A
    record that breaks the rule raises ``KeyError``, ``TypeError`` or
    ``ValueError``; a bad ``vis`` or ``opacity`` raises the error of the enum
    lookup, and a ``method`` other than ``trace`` or ``min`` a
    ``ValueError``."""
    src, dst, method = rec["from"], rec["to"], rec["method"]
    if not (isinstance(src, str) and isinstance(dst, str)):
        raise TypeError("'from' and 'to' must be strings")
    vis, opacity = rec["vis"], rec["opacity"]
    Visibility(vis), Opacity(opacity)  # raises the lookup's error
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    return src, dst, _tail(vis, opacity, method)


def _canonical_records(block: Sequence[bytes]) -> list[tuple[str, str, str]] | None:
    """The (from, to, tail) of each line of ``block`` when every line is a
    canonical record (``_RECORD_RE``), else None.

    The lines hold no line end, so joined by ``\n`` each is one line of the
    search, and the matches are as many as the lines only when every line
    matches.  A canonical record decodes under ``json.loads`` to five
    strings, none of them escaped: its from, its to, and the vis, opacity
    and method its tail spells, the tail ``_record_fields`` would build
    from them.  The block is decoded as strict UTF-8, so a block that is
    not UTF-8 fails here, never replaced.
    """
    try:
        text = b"\n".join(block).decode("utf-8")
    except UnicodeDecodeError:
        return None
    records = _RECORD_RE.findall(text)
    return records if len(records) == len(block) else None


def read_edges_jsonl(path: str | Path, method: str = "any") -> EdgeRecords:
    """Load edges back, optionally filtered by extraction method.

    Each record's explicit and transparent flags are ORed into its (from,
    to) pair while reading, so explicit wins over implicit and transparent
    over opaque.  The pairs and their flag bits, in first-seen order, are
    returned as an ``EdgeRecords`` view, which reads as the list of one
    ``DepEdge`` per pair but builds an edge only when one is read.  A
    malformed record raises ``ParseError`` naming its line.

    Lines are read ``_BLOCK_LINES`` at a time, and each record is read as
    its from, its to and its tail: the text of its vis, opacity and method,
    one of the eight keys of ``_TAILS``.  A block whose every line is a
    record exactly as ``edge_record`` writes it gives these by one regex
    search (``_canonical_records``).  Any other block is decoded one line at
    a time with ``json.loads`` and checked by ``_record_fields``, which
    builds the same tail, so a valid record in another layout reads the
    same, a malformed record is reported with its own line, and blank lines
    are skipped.  One loop then folds the block's records, looking up each
    tail's flag bits among the ``_TAILS`` whose method ``method`` keeps (all
    eight for ``"any"``) and skipping the records of any other tail; every
    record of the block is checked before any is filtered, so whether a
    file reads does not depend on ``method``.
    """
    if method not in ("any", "trace", "min"):
        raise ValueError(f"unknown method filter: {method!r}")
    # The flag bits of each tail whose method the filter keeps.
    wanted = {
        tail: bits for tail, (bits, rec_method) in _TAILS.items() if method in ("any", rec_method)
    }
    flags: dict[tuple[str, str], int] = {}
    get = flags.get
    lines = Path(path).read_bytes().splitlines()
    for start in range(0, len(lines), _BLOCK_LINES):
        block = lines[start : start + _BLOCK_LINES]
        records = _canonical_records(block)
        if records is None:
            records = []
            for lineno, line in enumerate(block, start + 1):
                if line.strip():
                    try:
                        records.append(_record_fields(json.loads(line)))
                    except (KeyError, TypeError, ValueError) as err:
                        raise ParseError(
                            f"malformed edge record ({err!r})", str(path), lineno
                        ) from None
        for src, dst, tail in records:
            bits = wanted.get(tail)
            if bits is not None:
                pair = src, dst
                flags[pair] = get(pair, 0) | bits
    return EdgeRecords(flags)


def record_line(path: str | Path, pair: tuple[str, str], method: str = "any") -> int | None:
    """The line of the first record of ``pair`` that ``read_edges_jsonl``
    reads from ``path`` under ``method``, or None when it reads none.

    The file is read again, one ``json.loads`` per line, so this is for
    naming a record in an error, not for the load path.
    """
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        if line.strip():
            src, dst, tail = _record_fields(json.loads(line))
            if (src, dst) == pair and method in ("any", _TAILS[tail][1]):
                return lineno
    return None
