"""Dependency DAGs over items or files, with closure and metric queries.

A graph is stored as bit rows over node positions: per node, the nodes it
directly depends on, and which of those edges are transparent and which
explicit.  ``DepGraph`` ORs edge records into the rows in one loop over
(from, to, flag bits) triples, which the reader's ``EdgeRecords`` hands
over as it folded them (``edge_columns``), with no edge object per record;
a transitive closure and a file projection (per file, the OR of its items'
rows, mapped to file bits) are built from rows by the same constructor.
The edge list is a read-only view over the rows that builds an edge only
when one is read, so counting edges costs a popcount per row.  Graphs are
immutable after construction.
Next to the rows a folded graph keeps each edge's positions: its source
and target node positions, in two ``array``s, and its flag bits, in a byte
string (9 bytes an edge), mapped from its records' names after the loop.
The two steps that need every edge, the transposition under
``reverse_reach`` and the file projection of all three rows, read these
positions instead of walking every row's bits.  A graph built from rows,
such as a closure or a projection, has no records; it gives the same
steps its positions by one walk over the rows' bits when they ask, and
keeps none, so a closure's memory stays its bit rows.
Nodes keep corpus order, which is a topological witness (edges always point
at earlier nodes), so every closure is one pass of bit-row unions
(``_closure``): over the rows for reachability, over the transposed rows,
last node first, for reverse reachability, and over the transparent and the
explicit rows for the attributes of closure-only edges (an indirect
dependency is transparent or explicit exactly when some witnessing path is
all-transparent or all-explicit).  Closures are bitsets at every graph size,
n*n/8 bytes at most.  Statistics, distributions and the speedup report read
every reverse row; a rebuild plan computes its own few rows instead.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import re
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from itertools import islice
from statistics import median
from typing import Iterable, Iterator, Sequence

from .corpus import IDENTIFIER_RE, Corpus, DepEdge, ItemKind, Opacity, Visibility, bit_positions
from .errors import CycleDetectedError, DepkitError, UnknownItemError
from .extract import EdgeRecords, edge_columns

# A file name that ``to_dot`` can write between quotes unescaped.
_DOT_PATH_RE = re.compile(r'[^"\\]+')


class Granularity(str, Enum):
    ITEM = "item"
    FILE = "file"


@dataclass(frozen=True, slots=True)
class GraphStats:
    """Headline numbers of one dependency graph.

    ``p`` is the percentage of unordered node pairs related by the
    transitive dependency relation, ``arl`` the average and ``mrl`` the
    median number of nodes invalidated when one node changes.
    """

    items: int
    deps: int
    tdeps: int
    p: float
    arl: float
    mrl: float

    @classmethod
    def from_counts(
        cls,
        items: int,
        tdeps: int,
        deps: int = 0,
        reverse_counts: Sequence[int] = (),
    ) -> "GraphStats":
        pairs = items * (items - 1) // 2
        p = 100.0 * tdeps / pairs if items >= 2 else 0.0
        arl = tdeps / items if items >= 1 else 0.0
        mrl = float(median(reverse_counts)) if reverse_counts else 0.0
        return cls(items=items, deps=deps, tdeps=tdeps, p=p, arl=arl, mrl=mrl)

    def as_dict(self) -> dict:
        return {
            "items": self.items,
            "deps": self.deps,
            "tdeps": self.tdeps,
            "p": self.p,
            "arl": self.arl,
            "mrl": self.mrl,
        }

    def table(self) -> str:
        rows = [
            ("Items", str(self.items)),
            ("Deps", str(self.deps)),
            ("TDeps", str(self.tdeps)),
            ("P(%)", f"{self.p:.1f}"),
            ("ARL", f"{self.arl:.1f}"),
            ("MRL", f"{self.mrl:g}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


class DepGraph:
    """Immutable DAG over item or file names; queries are read-only.

    Node ``i`` holds three bit rows over node positions: ``deps[i]`` has bit
    ``j`` set when node ``i`` depends on node ``j``, and its subsets
    ``transparent[i]`` and ``explicit[i]`` when that edge is transparent,
    and explicit.  Duplicate edge records OR into the rows, which is the
    merge rule: explicit wins over implicit and transparent over opaque.
    ``edges`` is a view over the rows (``_EdgeView``); the closures are
    derived from the rows and cached lazily, and recomputing them is
    idempotent, so concurrent readers need no locking.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        edges: Iterable[DepEdge],
        granularity: Granularity,
        kinds: dict[str, ItemKind] | None = None,
        files: dict[str, str] | None = None,
        opacities: dict[str, Opacity] | None = None,
    ):
        nodes = tuple(nodes)
        index = {name: i for i, name in enumerate(nodes)}
        if len(index) != len(nodes):
            raise ValueError("duplicate node names")

        deps, transparent, explicit = rows = [[0] * len(nodes) for _ in range(3)]
        sources, targets, flags = edge_columns(edges)
        for src, dst, bits in zip(sources, targets, flags):
            try:
                si, di = index[src], index[dst]
            except KeyError as err:
                raise UnknownItemError(err.args[0], (src, dst)) from None
            if si <= di:
                raise CycleDetectedError(
                    f"edge {src} -> {dst} does not point at an earlier node; "
                    "corpus order is not a topological witness",
                    (src, dst),
                )
            bit = 1 << di
            deps[si] |= bit
            if bits & 2:
                transparent[si] |= bit
            if bits & 1:
                explicit[si] |= bit
        positions = (
            array("I", map(index.__getitem__, sources)),
            array("I", map(index.__getitem__, targets)),
            flags,
        )
        self._init_rows(nodes, index, rows, granularity, kinds, files, opacities, positions)

    def _init_rows(
        self, nodes, index, rows, granularity, kinds=None, files=None, opacities=None, positions=None
    ) -> DepGraph:
        """The one constructor from bit rows (``deps``, ``transparent``, ``explicit``);
        ``index`` maps each of the distinct ``nodes`` to its position, and
        ``positions`` are the edges' (``_edge_positions``) as three columns
        when the caller has them."""
        self.granularity = granularity
        self.nodes: tuple[str, ...] = nodes
        self._index = index
        self.kinds = dict(kinds or {})
        self.files = dict(files or {})
        self.opacities = dict(opacities or {})
        self.deps, self.transparent, self.explicit = (tuple(row) for row in rows)
        self._positions = positions
        self._reach: list[int] | None = None
        self._rev_reach: list[int] | None = None
        self._file_scope_bits: tuple[list[int], list[int], list[int]] | None = None
        return self

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise UnknownItemError(name)
        return self._index[name]

    @property
    def edges(self) -> _EdgeView:
        """The direct edges, ordered by (source, target) node position."""
        return _EdgeView(self)

    def reach(self) -> list[int]:
        """Per-node bitsets of transitively reachable (depended-on) nodes."""
        if self._reach is None:
            self._reach = _closure(list(self.deps), range(len(self.nodes)))
        return self._reach

    def closure_counts(self) -> tuple[int, list[int]]:
        """Transitive edge total plus per-node reverse-dependent counts."""
        counts = [bits.bit_count() for bits in self.reverse_reach()]
        return sum(counts), counts

    def reverse_counts(self) -> list[int]:
        """For each node, how many nodes transitively depend on it."""
        return self.closure_counts()[1]

    def reverse_reach(self) -> list[int]:
        """Per-node bitsets of transitive reverse dependents."""
        if self._rev_reach is None:
            users = [0] * len(self.nodes)
            for i, j, _ in self._edge_positions():
                users[j] |= 1 << i
            self._rev_reach = _closure(users, reversed(range(len(self.nodes))))
        return self._rev_reach

    def _edge_positions(self) -> Iterator[tuple[int, int, int]]:
        """Each edge's (source position, target position, flag bits), the
        bits explicit 1 and transparent 2, in no fixed order and perhaps with
        repeats: the fold's positions, or, for a graph built from rows, one
        walk over the rows' bits, which keeps nothing."""
        if self._positions is not None:
            return zip(*self._positions)
        return (
            (i, j, bits)
            for i, rows in enumerate(zip(self.deps, self.transparent, self.explicit))
            for j, bits in zip(*_row_edges(*rows))
        )

    def _file_projection(self) -> tuple[DepGraph, list[int], list[int]]:
        """The file graph (files in first-item order), each node's file
        position, and each file's item mask.  For each of the three rows, a
        file's row is the OR of its items' rows, with the file's own items
        masked out and every other item bit mapped to the bit of its file:
        one pass over the edge positions sets all three."""
        if not self.files.keys() >= set(self.nodes):
            raise DepkitError("file granularity needs a file map that covers every item")
        file_names = [self.files[name] for name in self.nodes]
        file_index = {file: f for f, file in enumerate(dict.fromkeys(file_names))}
        file_of = [file_index[file] for file in file_names]
        own = [0] * len(file_index)
        for i, f in enumerate(file_of):
            own[f] |= 1 << i

        deps, transparent, explicit = rows = [[0] * len(own) for _ in range(3)]
        for i, j, bits in self._edge_positions():
            f, t = file_of[i], file_of[j]
            if f != t:
                bit = 1 << t
                deps[f] |= bit
                if bits & 2:
                    transparent[f] |= bit
                if bits & 1:
                    explicit[f] |= bit
        if any(bits >> f for f, bits in enumerate(deps)):
            raise CycleDetectedError("file order is not a topological witness")
        file_g = DepGraph.__new__(DepGraph)._init_rows(
            tuple(file_index), file_index, rows, Granularity.FILE
        )
        return file_g, file_of, own

    def _file_scopes(self) -> tuple[list[int], list[int], list[int]]:
        """Item bitsets for whole-file invalidation, built once per graph.

        Returns, per node, the index of its file in the file projection;
        per file, the bitset of its own items; and per file, the bitset of
        the items of every file that transitively depends on it.  File
        order is a topological witness, so one pass from the last file to
        the first finishes each file's dependents before it passes its own
        items and dependents on to the files it directly depends on: one OR
        per file edge.
        """
        if self._file_scope_bits is None:
            file_g, file_of, own = self._file_projection()
            dependents = [0] * len(own)
            for u in reversed(range(len(own))):
                items = own[u] | dependents[u]
                for f in bit_positions(file_g.deps[u]):
                    dependents[f] |= items
            self._file_scope_bits = (file_of, own, dependents)
        return self._file_scope_bits


class _EdgeView(Sequence[DepEdge]):
    """Read-only view of a graph's direct edges, ordered by (source, target)
    node position, that ``len``, iteration, indexing, ``in`` and ``==``
    treat as the tuple of those edges.

    It holds only the graph and builds an edge when one is read: ``len`` is
    the sum of the ``deps`` popcounts, an index walks the row popcounts to
    its row, and ``in`` tests the edge's two bits, so counting the edges of
    a closure costs no memory per edge.
    """

    __slots__ = ("_g",)

    def __init__(self, g: DepGraph):
        self._g = g

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self._g.deps)

    def __iter__(self) -> Iterator[DepEdge]:
        g = self._g
        nodes = g.nodes
        visibility = (Visibility.IMPLICIT, Visibility.EXPLICIT)
        opacity = (Opacity.OPAQUE, Opacity.TRANSPARENT)
        for src, *rows in zip(nodes, g.deps, g.transparent, g.explicit):
            for j, bits in zip(*_row_edges(*rows)):
                yield DepEdge(src, nodes[j], visibility[bits & 1], opacity[bits >> 1])

    def __getitem__(self, index):
        if isinstance(index, slice):
            picked = range(*index.indices(len(self)))
            if picked.step > 0:
                return tuple(islice(self, picked.start, picked.stop, picked.step))
            # Read up to the first edge picked, then pick backwards.
            return tuple(islice(self, picked.stop + 1, picked.start + 1))[::picked.step]
        index = operator.index(index)
        if index < 0:
            index += len(self)
        if index >= 0:
            for i, row in enumerate(self._g.deps):
                size = row.bit_count()
                if index < size:
                    return self._edge(i, bit_positions(row)[index])
                index -= size
        raise IndexError("edge index out of range")

    def __contains__(self, edge: object) -> bool:
        if not isinstance(edge, DepEdge):
            return False
        index = self._g._index
        i, j = index.get(edge.src), index.get(edge.dst)
        if i is None or j is None or not self._g.deps[i] >> j & 1:
            return False
        return edge == self._edge(i, j)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _EdgeView)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    # ``Sequence``'s own ``index`` and ``__reversed__`` index edge by edge,
    # and each index walks the rows, so both go through the tuple instead.
    def index(self, value: object, start: int = 0, stop: int = sys.maxsize) -> int:
        return tuple(self).index(value, start, stop)

    def __reversed__(self) -> Iterator[DepEdge]:
        return reversed(tuple(self))

    def _edge(self, i: int, j: int) -> DepEdge:
        """The edge from node ``i`` to node ``j``, which must be one."""
        g = self._g
        return DepEdge(
            g.nodes[i],
            g.nodes[j],
            Visibility.EXPLICIT if g.explicit[i] >> j & 1 else Visibility.IMPLICIT,
            Opacity.TRANSPARENT if g.transparent[i] >> j & 1 else Opacity.OPAQUE,
        )


def _row_edges(row: int, transparent: int, explicit: int) -> tuple[list[int], list[int]]:
    """The set positions of ``row``, ascending, and each one's flag bits
    (explicit 1, transparent 2) read from its two submasks.

    The submasks are read once, as little-endian bytes as long as the row's:
    bit j is bit j % 8 of byte j // 8.
    """
    targets = bit_positions(row)
    size = (row.bit_length() + 7) // 8
    trans_bytes = transparent.to_bytes(size, "little")
    expl_bytes = explicit.to_bytes(size, "little")
    flags = [
        expl_bytes[j >> 3] >> (j & 7) & 1 | (trans_bytes[j >> 3] >> (j & 7) & 1) << 1
        for j in targets
    ]
    return targets, flags


def _closure(rows: list[int], order: Iterable[int]) -> list[int]:
    """Close bit rows in place: row ``i`` becomes itself ORed with the closed
    rows of the positions it points at.  ``order`` visits every position
    after the positions its row points at."""
    for i in order:
        bits = rows[i]
        for j in bit_positions(bits):
            bits |= rows[j]
        rows[i] = bits
    return rows


def build_graph(
    corpus: Corpus,
    edges: Iterable[DepEdge],
    granularity: Granularity = Granularity.ITEM,
) -> DepGraph:
    """Item-level graph as-is, or the projection onto source files.

    At file granularity the item graph is built first, so its checks hold
    for every record, and then projected: an edge A -> B appears whenever
    any item of A depends on any item of B, edges inside one file are
    dropped, and the projected edge is transparent or explicit when any
    contributing item edge is.
    """
    g = DepGraph(
        [item.name for item in corpus.items],
        edges,
        Granularity.ITEM,
        kinds={item.name: item.kind for item in corpus.items},
        files={item.name: item.source_file for item in corpus.items},
        opacities={item.name: item.opacity for item in corpus.items},
    )
    if Granularity(granularity) is Granularity.ITEM:
        return g
    return g._file_projection()[0]


def build_graph_from_edges(edges: Iterable[DepEdge]) -> DepGraph:
    """Item graph when only edge records are available.

    Node order is recovered by a deterministic topological sort: by level
    (0 without dependencies, else one more than the highest level of a
    dependency), then by name.  Statistics that need the full node set
    should prefer ``build_graph`` with the corpus.
    """
    if not isinstance(edges, EdgeRecords):
        edges = list(edges)
    sorter: TopologicalSorter = TopologicalSorter()
    for src, dst in zip(*edge_columns(edges)[:2]):
        sorter.add(src, dst)
    try:
        sorter.prepare()
    except CycleError:
        raise CycleDetectedError("edge records contain a dependency cycle") from None
    order: list[str] = []
    while sorter.is_active():
        level = sorted(sorter.get_ready())
        order.extend(level)
        sorter.done(*level)
    return DepGraph(order, edges, Granularity.ITEM)


def transitive_closure(g: DepGraph) -> DepGraph:
    """Graph whose edge set is the reachability relation of ``g``.

    Direct edges keep their attributes; closure-only edges are transparent
    (or explicit) exactly when some witnessing path uses only transparent
    (only explicit) edges.
    """

    def attribute(rows: Sequence[int]) -> list[int]:
        # Pairs reachable over edges with the attribute, minus the direct
        # edges, plus the direct edges that have it.
        closed = _closure(list(rows), range(len(g.nodes)))
        return [c & ~d | r for c, d, r in zip(closed, g.deps, rows)]

    rows = (g.reach(), attribute(g.transparent), attribute(g.explicit))
    return DepGraph.__new__(DepGraph)._init_rows(
        g.nodes, g._index, rows, g.granularity, g.kinds, g.files, g.opacities
    )


def stats(g: DepGraph) -> GraphStats:
    """Graph statistics from per-node reachability, closure unmaterialized."""
    tdeps, reverse_counts = g.closure_counts()
    deps = sum(row.bit_count() for row in g.deps)
    return GraphStats.from_counts(
        items=len(g.nodes), tdeps=tdeps, deps=deps, reverse_counts=reverse_counts
    )


def kind_table(g: DepGraph) -> dict[str, dict[str, int]]:
    """Direct-edge counts by source kind and by target kind, from the rows:
    a source's edges are its row's popcount, and the edges into a kind are
    the popcounts of every row masked by the kind's nodes.  Every end of an
    edge needs a kind (``KeyError`` otherwise)."""
    if g.granularity is not Granularity.ITEM:
        raise ValueError("kind_table requires an item-granularity graph")
    table = {kind.value: {"from": 0, "to": 0} for kind in ItemKind}
    targets = 0
    for row in g.deps:
        targets |= row
    masks = dict.fromkeys(ItemKind, 0)
    for i, (name, row) in enumerate(zip(g.nodes, g.deps)):
        if row or targets >> i & 1:
            kind = g.kinds[name]
            masks[kind] |= 1 << i
            table[kind.value]["from"] += row.bit_count()
    for kind, mask in masks.items():
        if mask:
            table[kind.value]["to"] = sum((row & mask).bit_count() for row in g.deps)
    return table


def reverse_cumulative(g: DepGraph) -> list[tuple[int, int]]:
    """Cumulative distribution of transitive reverse-dependent counts."""
    tally = Counter(g.reverse_counts())
    out: list[tuple[int, int]] = []
    running = 0
    for threshold in sorted(tally):
        running += tally[threshold]
        out.append((threshold, running))
    return out


def load_set(g: DepGraph, target: str) -> list[str]:
    """The target and everything it transitively needs, load order first."""
    i = g.index_of(target)
    return [g.nodes[j] for j in bit_positions(g.reach()[i] | (1 << i))]


# Exports ---------------------------------------------------------------------


def to_dot(g: DepGraph) -> str:
    """The graph in DOT: one quoted line per node, then per edge.

    Names are written between quotes as they are, since in a DOT quoted
    string only ``\\"`` is an escape and a name ending in ``\\`` cannot be
    written at all.  So an item name must match the lexical identifier rule,
    and a file name must hold neither ``"`` nor ``\\``; the first node that
    does not raises ``DepkitError`` naming it, so no text is returned.
    """
    writable = (IDENTIFIER_RE if g.granularity is Granularity.ITEM else _DOT_PATH_RE).fullmatch
    lines = [f"digraph deps {{  // granularity={g.granularity.value}"]
    for name in g.nodes:
        if not writable(name):
            raise DepkitError(f"{g.granularity.value} name {name!r} cannot be written to DOT")
        kind = g.kinds.get(name)
        label = f"{name}\\n{kind.value}" if kind else name
        lines.append(f'  "{name}" [label="{label}"];')
    # The edges of ``g.edges``, in its order, read from the rows.
    nodes = g.nodes
    for src, row, explicit in zip(nodes, g.deps, g.explicit):
        for j in bit_positions(row):
            style = "solid" if explicit >> j & 1 else "dashed"
            lines.append(f'  "{src}" -> "{nodes[j]}" [style={style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cumulative_csv(g: DepGraph) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["threshold", "item_count"])
    for threshold, count in reverse_cumulative(g):
        writer.writerow([threshold, count])
    return buf.getvalue()


def stats_json(s: GraphStats) -> str:
    return json.dumps(s.as_dict(), indent=2, sort_keys=True) + "\n"
