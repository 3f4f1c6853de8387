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
positions by ``Corpus._rules``.  Tracing bit-tests them
(``Corpus._check``) and collects the trace as positions; with both
routes, the same pass compiles them (``Corpus._compile``) over local bits,
one per position the rules read, and minimization searches each kind
over indices: the kind's number of positions and the index of each read
position among them.  A trial's verdict can only change when its chunk
removes a read position, so a chunk holding none is counted and dropped,
a chunk holding a required position fails, and only a chunk holding an
alternative (a reservation pair or a hint) runs the compiled check; once
every read left is required, the remaining passes are counted over the
indices alone.  The trials, and their order, are those of a search that
checks every chunk.  A minimal environment is a mask over the corpus
table whose set positions ascend in corpus order.

Extraction walks corpus positions and holds nothing per item but its
results.  The trace checks each item on its prefix mask, and the one
candidate (``Microarticle``) the minimizer takes is built while its item
is minimized and dropped with it, so no list of candidates, whose masks
would grow with the square of the corpus, is held.

Both routes' results are records (``EdgeRecords``): per dependency, the
names and the flag bits ``Corpus.dep_records`` gives for a trace's
positions and for a minimal environment's, so no ``DepEdge`` is built.
The writer, the progress events and the trace/minimize comparison read
the records' columns, and the comparison reads each item's lists off
positions, in corpus order, with no sort of names.  Edge records are
formatted as text, which is exact because the writer first checks every
name against the lexical identifier rule.

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
    _OPACITY_OF,
    _SLOT,
    _VISIBILITY_OF,
    _flag_bits,
    _slot_setters,
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


@dataclass(frozen=True, slots=True, init=False)
class MinimizationResult:
    """One item's minimal environment, the trials its search made and, per
    kind, how many candidate positions it removed.

    ``__init__`` is written by hand, with the generated one's parameters, to
    set the fields through their slot descriptors (``_slot_setters``):
    extraction builds one result per item and method.
    """

    item_name: str
    minimal_env: Environment
    oracle_calls: int
    removed: dict[ItemKind, int]

    def __init__(
        self,
        item_name: str,
        minimal_env: Environment,
        oracle_calls: int,
        removed: dict[ItemKind, int],
    ):
        set_name, set_env, set_calls, set_removed = _RESULT_SETTERS
        set_name(self, item_name)
        set_env(self, minimal_env)
        set_calls(self, oracle_calls)
        set_removed(self, removed)


_RESULT_SETTERS = _slot_setters(MinimizationResult)


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

    Once every remaining read is required, each later pass is known in
    advance: its chunks holding reads fail and the others are dropped.  The
    rest of the search is then counted over the read indices alone
    (``_counted_passes``), with no local bits and no ``verifies`` call, and
    ``state`` does not change.
    """
    trials = 0
    size = (n + 1) // 2
    while n:
        for _, local in reads:
            if not local & required:
                break
        else:
            return state, trials + _counted_passes(n, reads, size)
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


def _counted_passes(n: int, reads: list[tuple[int, int]], size: int) -> int:
    """The trials of ``_shrink``'s passes over ``n`` positions from chunk
    ``size`` on, when every chunk holding one of the ``reads`` fails and
    every other chunk is removed: each pass counts its chunks, and the
    chunks holding reads close up, by the reads' indices alone.  The last
    pass, of single positions, counts one trial per position left."""
    if not reads:
        return -(-n // size)
    trials = 0
    if len(reads) == 1:
        # One read, the most common case: its chunk is the only one kept.
        index = reads[0][0]
        while size > 1:
            trials += -(-n // size)
            first = index - index % size
            n = n - first if n - first < size else size
            index -= first
            size = (size + 1) // 2 if size > 2 else 1
        return trials + n
    indices = [index for index, _ in reads]
    while size > 1:
        trials += -(-n // size)
        moved = []
        length = 0
        first = -size
        for index in indices:
            if index - first >= size:
                # The first index of a kept chunk, which starts at ``first``
                # and moves down to ``length``.
                first = index - index % size
                shift = length - first
                length += n - first if n - first < size else size
            moved.append(index + shift)
        n, indices = length, moved
        size = (size + 1) // 2 if size > 2 else 1
    return trials + n


def minimize_env(
    corpus: Corpus,
    micro: Microarticle,
    seed_targets: Iterable[str | int] | None = None,
    compiled: tuple[dict[int, int], int, Callable[[int], bool]] | None = None,
) -> MinimizationResult:
    """Smallest sublist of the candidate environment that still verifies.

    The result is 1-minimal: removing any single element breaks
    verification.  ``seed_targets`` (typically the targets of a previously
    captured trace, as names or as corpus positions) short-circuits the
    search: if the environment restricted to the seed verifies,
    minimization proceeds inside it only.  ``compiled`` is the item's
    compiled check, ``Corpus._compile_local(item)``, when the caller has it
    from a rules pass of its own, as ``extract_corpus`` has from the trace.
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
    (``Corpus._compile``), so a state is a small int of the read
    positions present and its verdict a few tests of it.  A rejected
    candidate's reason comes from ``check_item``.

    Each kind is searched over indices (``_shrink``): its number of
    positions and the index of each read position among them
    (``Corpus._index_reads``).  For a candidate environment, a prefix mask, both
    are read from the corpus's per-cut kind counts; after a kept restrict,
    from the seed targets' positions (looked up once when given as names);
    no kind's positions are listed per item.  Only a candidate mask that is
    no prefix, such as a restricted environment's, is listed by
    ``bit_positions``.  A kind holding no read position is dropped by the
    first pass of its search, whose at most two trials are counted without
    a search.  The last pass of each search drops every position the rules
    do not read, so the minimal mask is the read positions kept, and
    ``removed[kind]`` is the number of the candidate's positions of that
    kind less the number kept.
    """
    item = micro.item
    candidate = corpus._bits_of(micro.candidate_env)
    cut = candidate.bit_length()
    reads, required, verifies = corpus._compile_local(item) if compiled is None else compiled
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
        targets = set(seed_targets)
        if targets and isinstance(next(iter(targets)), str):
            # Names: one the corpus lacks gets position ``len(corpus)``,
            # which no candidate holds.
            index, never = corpus._table.index, len(corpus)
            targets = {index.get(name, never) for name in targets}
        seeds = sorted(filter(holds, targets))
        if len(seeds) != sum(candidate_counts):
            calls += 1
            restricted = 0
            for pos in seeds:
                restricted |= reads.get(pos, 0)
            if verifies(restricted):
                state, searched = restricted, seeds

    counts, held = corpus._index_reads(reads, cut, searched)
    for slot in _SEARCH_SLOTS:
        if held[slot]:
            state, trials = _shrink(counts[slot], held[slot], state, required, verifies)
            calls += trials
        else:
            # A kind holding no read: the first pass drops its chunks, at
            # most two.
            calls += min(counts[slot], 2)

    slot_at = corpus._slot_at
    minimal = 0
    kept_counts = [0] * len(_SLOT)
    for pos, local in reads.items():
        if state & local:
            minimal |= 1 << pos
            kept_counts[slot_at[pos]] += 1
    return MinimizationResult(
        item.name,
        Environment._of(corpus._table, minimal),
        calls,
        dict(zip(_SLOT, map(operator.sub, candidate_counts, kept_counts))),
    )


def trace_extract(
    corpus: Corpus,
    on_item: Callable[[int, list[int], tuple], None] | None = None,
) -> EdgeRecords:
    """Concatenated traces of every item under its candidate environment,
    as records: one per resolved dependency, in corpus order, then in the
    order each check resolved them.

    Each item's candidate environment is its prefix mask ``(1 << i) - 1``
    over the corpus table, so no ``Microarticle`` or ``Environment`` is
    built.  Each item's rules (``Corpus._rules``) are written out once,
    checked (``Corpus._check``) on that mask with the trace collected as
    positions, and the records built from the positions
    (``Corpus.dep_records``), so no ``DepEdge`` is built.  ``on_item``,
    when given, is called after each item's check with the item's
    position, its trace positions and its compiled check
    (``Corpus._compile``) from the same rules; ``extract_corpus`` minimizes
    the item there, so no candidate or compiled check outlives its item.
    """

    def traces():
        for pos, item in enumerate(corpus.items):
            rules = corpus._rules(item)
            reason, resolved = corpus._check(rules, (1 << pos) - 1, True)
            if reason is not None:
                raise NotVerifiableError(item.name, reason.value)
            if on_item is not None:
                on_item(pos, resolved, corpus._compile(rules))
            yield item, resolved

    return _records(corpus, traces())


def event_lines(corpus: Corpus, trace_edges: Sequence[DepEdge]) -> list[str]:
    """One progress message per item, in corpus order, read from the
    edges' names (``edge_columns``)."""
    by_src: dict[str, list[str]] = {item.name: [] for item in corpus.items}
    sources, targets, _ = edge_columns(trace_edges)
    for src, dst in zip(sources, targets):
        by_src[src].append(dst)
    return [
        f"dependencies: {' '.join(targets)}" if targets else "dependencies: (empty list)"
        for targets in by_src.values()
    ]


def edges_from_minimization(corpus: Corpus, results: Sequence[MinimizationResult]) -> EdgeRecords:
    """One record per surviving environment entry, ordered by corpus position.

    The targets are the set positions of each minimal environment's mask
    over the corpus table, which ascend in corpus order;
    ``Corpus.dep_records`` gives their names and flag bits, as it gives a
    trace's, so no name list is derived, nothing is sorted and no
    ``DepEdge`` is built.
    """
    return _records(
        corpus,
        (
            (corpus.item(result.item_name), bit_positions(corpus._bits_of(result.minimal_env)))
            for result in results
        ),
    )


def _records(corpus: Corpus, targets_of: Iterable[tuple[Item, list[int]]]) -> EdgeRecords:
    """The records of one edge from each item to the item at each of its
    positions, in the order given, from ``Corpus.dep_records``."""
    sources: list[str] = []
    targets: list[str] = []
    flags = bytearray()
    for item, positions in targets_of:
        names, bits = corpus.dep_records(item, positions)
        sources += [item.name] * len(names)
        targets += names
        flags.extend(bits)
    return EdgeRecords(sources, targets, flags)


@dataclass(frozen=True, slots=True)
class ExtractionResult:
    """Both methods' dependencies: each method's records (``EdgeRecords``,
    read as a sequence of ``DepEdge``) and the minimization results, None
    for a method the run did not use."""

    trace_edges: Sequence[DepEdge] | None
    minimization: tuple[MinimizationResult, ...] | None
    min_edges: Sequence[DepEdge] | None


def extract_corpus(
    corpus: Corpus,
    mode: str = "both",
    jobs: int = 1,
    seed_from_trace: bool = True,
) -> ExtractionResult:
    """Run trace and/or minimization extraction over a whole corpus.

    Extraction walks corpus positions and holds nothing per item but its
    results: the trace checks prefix masks, and each item's
    ``Microarticle``, which ``minimize_env`` takes, is built from
    ``Corpus.candidate_environment`` when the item is minimized and dropped
    with it.  With both methods, each item's rules are written out once: as
    the trace checks each item, it hands the item's position, trace
    positions and compiled check over, and the item is minimized right
    after it is traced, with the trace as its seed (unless
    ``seed_from_trace`` is false) and that check.

    ``jobs`` must be at least 1 and never changes anything: items are
    minimized one after another in corpus order, because the checker is
    pure Python that holds the interpreter lock, and a thread pool measured
    slower than one thread.
    """
    if mode not in ("trace", "minimize", "both"):
        raise ValueError(f"unknown extraction mode: {mode!r}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs!r}")

    def micro(pos: int) -> Microarticle:
        return Microarticle(corpus.items[pos], corpus.candidate_environment(pos))

    trace_edges = None
    minimization = None
    min_edges = None
    if mode == "both":
        results: list[MinimizationResult] = []

        def minimize(pos: int, resolved: list[int], compiled: tuple) -> None:
            seed = resolved if seed_from_trace else None
            results.append(minimize_env(corpus, micro(pos), seed, compiled))

        trace_edges = trace_extract(corpus, minimize)
        minimization = tuple(results)
    elif mode == "trace":
        trace_edges = trace_extract(corpus)
    else:
        minimization = tuple(minimize_env(corpus, micro(pos)) for pos in range(len(corpus)))
    if minimization is not None:
        min_edges = edges_from_minimization(corpus, minimization)
    return ExtractionResult(trace_edges, minimization, min_edges)


def compare_methods(
    corpus: Corpus,
    trace_edges: Sequence[DepEdge],
    minimization: Sequence[MinimizationResult],
) -> dict:
    """Per-item set differences between traced and minimized dependencies.

    The traced targets are read from the edges' names (``edge_columns``)
    as corpus positions, and the minimal ones are the set positions of each
    minimal environment's mask, which ascend; each item's lists are read
    from those positions, in corpus order.
    """
    min_names = {result.item_name for result in minimization}
    corpus_names = corpus._order.keys()
    if min_names != corpus_names:
        raise CorpusMismatchError(
            "minimization results do not cover the corpus "
            f"(missing {sorted(corpus_names - min_names)[:3]}, "
            f"extra {sorted(min_names - corpus_names)[:3]})"
        )
    sources, targets, _ = edge_columns(trace_edges)
    stray = set(sources).union(targets) - corpus_names
    if stray:
        raise CorpusMismatchError(f"trace edges reference unknown items: {sorted(stray)[:3]}")

    order = corpus._order
    traced: dict[str, list[int]] = {}
    for src, dst in zip(sources, targets):
        traced.setdefault(src, []).append(order[dst])
    minimal = {
        result.item_name: bit_positions(corpus._bits_of(result.minimal_env))
        for result in minimization
    }
    names = corpus._table.names
    per_item = {}
    for name in order:
        t, m = set(traced.get(name, ())), minimal[name]
        per_item[name] = {
            "trace_only": [names[pos] for pos in sorted(t.difference(m))],
            "min_only": [names[pos] for pos in m if pos not in t],
            "common": [names[pos] for pos in m if pos in t],
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


class EdgeRecords(Sequence[DepEdge]):
    """Read-only view of dependency records: per record, its from, its to
    and its flag bits (``_flag_bits``), held in two lists of names and one
    byte string.  The reader's records are one per distinct (from, to)
    pair, in first-seen order; extraction's are one per dependency, in
    corpus order.

    ``len``, iteration, indexing, slices, ``in`` and ``==`` treat it as the
    list of one ``DepEdge`` per record, and it builds an edge only when one
    is read; ``edge_columns`` hands the names and the bits over as they
    are, and two views compare by them.
    """

    __slots__ = ("_sources", "_targets", "_flags")

    def __init__(self, sources: list[str], targets: list[str], flags: bytes | bytearray):
        """The records of three columns of one length, which the view keeps."""
        self._sources = sources
        self._targets = targets
        self._flags = flags

    def __len__(self) -> int:
        return len(self._flags)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        # The names list raises what a list of the edges would.
        src, dst, bits = self._sources[index], self._targets[index], self._flags[index]
        return DepEdge(src, dst, _VISIBILITY_OF[bits & 1], _OPACITY_OF[bits >> 1])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EdgeRecords):
            return (
                self._flags == other._flags
                and self._sources == other._sources
                and self._targets == other._targets
            )
        if not isinstance(other, list):
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


# A record's text around its from, its to and its tail (``_tail``).
_RECORD = '{{"from":"{}","to":"{}",{}}}'

# Records per write of ``write_edges_jsonl``.
_WRITE_LINES = 4096


def edge_record(edge: DepEdge, method: str) -> str:
    """One ``deps.jsonl`` record, without its line end.

    The record is built by formatting, not by ``json.dumps``.  The two give
    the same text when no string needs a JSON escape: true of the ``vis``,
    ``opacity`` and ``method`` values the writer uses, and of every name
    under the lexical identifier rule (``IDENTIFIER_RE``), which
    ``write_edges_jsonl`` checks before it writes.
    """
    tail = _tail(edge.visibility.value, edge.opacity.value, method)
    return _RECORD.format(edge.src, edge.dst, tail)


def write_edges_jsonl(path: str | Path, result: ExtractionResult) -> None:
    """Write the trace records, then the minimization records, one per line.

    Each record is written as ``edge_record`` writes it, read from the
    records' names and flag bits (``edge_columns``), so no ``DepEdge`` is
    built: the text after the names is one of the ``_tail`` strings, picked
    by the flag bits.  The text is written ``_WRITE_LINES`` records at a
    time, so the writer holds one block's lines, not the file's.  Every
    name of the records must match the lexical identifier rule, so that no
    name needs escaping: a name that does not raises ``ValueError`` before
    anything is written.
    """
    groups = [
        (edge_columns(edges), method)
        for edges, method in ((result.trace_edges, "trace"), (result.min_edges, "min"))
        if edges is not None
    ]
    names: set[str] = set()
    for (sources, targets, _), _ in groups:
        names.update(sources, targets)
    for name in names:
        if not IDENTIFIER_RE.fullmatch(name):
            raise ValueError(f"item name {name!r} is not an identifier; no records written")
    line = _RECORD + "\n"
    with open(path, "w", encoding="utf-8") as out:
        for (sources, targets, flags), method in groups:
            tails = [
                _tail(_VISIBILITY_OF[bits & 1].value, _OPACITY_OF[bits >> 1].value, method)
                for bits in range(4)
            ]
            for start in range(0, len(flags), _WRITE_LINES):
                block = slice(start, start + _WRITE_LINES)
                tails_of = map(tails.__getitem__, flags[block])
                out.write("".join(map(line.format, sources[block], targets[block], tails_of)))


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
    return EdgeRecords(
        list(map(operator.itemgetter(0), flags)),
        list(map(operator.itemgetter(1), flags)),
        bytes(flags.values()),
    )


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
