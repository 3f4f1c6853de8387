"""Dependency DAGs over items or files, with closure and metric queries.

Graphs are immutable after construction.  Nodes keep corpus order, which
is a topological witness (edges always point at earlier nodes), so
transitive closure reduces to one pass of bitset unions.  Three
reachability relations are kept: over all edges, over transparent edges
only, and over explicit edges only; the latter two derive the attributes
of closure-only edges (an indirect dependency is transparent or explicit
exactly when some witnessing path is all-transparent or all-explicit).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from statistics import median
from typing import Iterable, Sequence

from .corpus import Corpus, DepEdge, ItemKind, Opacity, Visibility
from .errors import CycleDetectedError, UnknownItemError


class Granularity(str, Enum):
    ITEM = "item"
    FILE = "file"


# Reachability bitsets take n*n/8 bytes (50 MB at 20k nodes); above this
# node count the statistics fall back to counting by per-node DFS, which
# needs O(n) memory at a time.
BITSET_NODE_LIMIT = 20_000


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

    Reachability results are cached lazily; recomputing them is idempotent,
    so concurrent readers need no locking.
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
        self.granularity = granularity
        self.nodes: tuple[str, ...] = tuple(nodes)
        self.kinds = dict(kinds or {})
        self.files = dict(files or {})
        self.opacities = dict(opacities or {})
        self._index = {name: i for i, name in enumerate(self.nodes)}
        if len(self._index) != len(self.nodes):
            raise ValueError("duplicate node names")

        merged = _merge_edges(edges)
        for edge in merged:
            for end in edge.pair():
                if end not in self._index:
                    raise UnknownItemError(end)
            si, di = self._index[edge.src], self._index[edge.dst]
            if si <= di:
                raise CycleDetectedError(
                    f"edge {edge.src} -> {edge.dst} does not point at an earlier node; "
                    "corpus order is not a topological witness"
                )
        self.edges: tuple[DepEdge, ...] = tuple(
            sorted(merged, key=lambda e: (self._index[e.src], self._index[e.dst]))
        )
        self._fwd: list[list[int]] = [[] for _ in self.nodes]
        for edge in self.edges:
            self._fwd[self._index[edge.src]].append(self._index[edge.dst])
        self._reach: list[int] | None = None
        self._rev_reach: list[int] | None = None
        self._reach_transparent: list[int] | None = None
        self._reach_explicit: list[int] | None = None
        self._file_scope_bits: tuple[list[int], list[int], list[int]] | None = None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        if name not in self._index:
            raise UnknownItemError(name)
        return self._index[name]

    def _closure_bits(self, keep) -> list[int]:
        fwd: list[list[int]] = [[] for _ in self.nodes]
        for edge in self.edges:
            if keep(edge):
                fwd[self._index[edge.src]].append(self._index[edge.dst])
        reach = [0] * len(self.nodes)
        for i in range(len(self.nodes)):
            bits = 0
            for j in fwd[i]:
                bits |= (1 << j) | reach[j]
            reach[i] = bits
        return reach

    def reach(self) -> list[int]:
        """Per-node bitsets of transitively reachable (depended-on) nodes."""
        if self._reach is None:
            self._reach = self._closure_bits(lambda e: True)
        return self._reach

    def _attr_reach(self) -> tuple[list[int], list[int]]:
        if self._reach_transparent is None:
            self._reach_transparent = self._closure_bits(
                lambda e: e.opacity is Opacity.TRANSPARENT
            )
            self._reach_explicit = self._closure_bits(
                lambda e: e.visibility is Visibility.EXPLICIT
            )
        return self._reach_transparent, self._reach_explicit

    def closure_counts(self, method: str = "auto") -> tuple[int, list[int]]:
        """Transitive edge total plus per-node reverse-dependent counts.

        ``method`` picks between the bitset pass and the memory-light
        per-node DFS; ``auto`` switches at ``BITSET_NODE_LIMIT`` nodes.
        Both produce identical numbers.
        """
        if method not in ("auto", "bitset", "dfs"):
            raise ValueError(f"unknown counting method {method!r}")
        if method == "auto":
            method = "bitset" if len(self.nodes) <= BITSET_NODE_LIMIT else "dfs"
        counts = [0] * len(self.nodes)
        if method == "bitset":
            tdeps = 0
            for bits in self.reach():
                tdeps += bits.bit_count()
                while bits:
                    low = bits & -bits
                    counts[low.bit_length() - 1] += 1
                    bits ^= low
            return tdeps, counts
        tdeps = 0
        for i in range(len(self.nodes)):
            seen = set()
            stack = list(self._fwd[i])
            while stack:
                j = stack.pop()
                if j in seen:
                    continue
                seen.add(j)
                counts[j] += 1
                stack.extend(self._fwd[j])
            tdeps += len(seen)
        return tdeps, counts

    def reverse_counts(self) -> list[int]:
        """For each node, how many nodes transitively depend on it."""
        return self.closure_counts()[1]

    def reverse_reach(self) -> list[int]:
        """Per-node bitsets of transitive reverse dependents."""
        if self._rev_reach is None:
            rev = [0] * len(self.nodes)
            for i, bits in enumerate(self.reach()):
                while bits:
                    low = bits & -bits
                    rev[low.bit_length() - 1] |= 1 << i
                    bits ^= low
            self._rev_reach = rev
        return self._rev_reach

    def _file_scopes(self) -> tuple[list[int], list[int], list[int]]:
        """Item bitsets for whole-file invalidation, built once per graph.

        Returns, per node, the index of its file in the file projection;
        per file, the bitset of its own items; and per file, the bitset of
        the items of every file that transitively depends on it.
        """
        if self._file_scope_bits is None:
            file_g = DepGraph(*_project_files(self.nodes, self.files, self.edges), Granularity.FILE)
            file_of = [file_g._index[self.files[name]] for name in self.nodes]
            own = [0] * len(file_g.nodes)
            for i, f in enumerate(file_of):
                own[f] |= 1 << i
            dependents = []
            for bits in file_g.reverse_reach():
                items = 0
                while bits:
                    low = bits & -bits
                    items |= own[low.bit_length() - 1]
                    bits ^= low
                dependents.append(items)
            self._file_scope_bits = (file_of, own, dependents)
        return self._file_scope_bits


def _merge_edges(edges: Iterable[DepEdge]) -> list[DepEdge]:
    """Collapse duplicate (src, dst) records into one edge, first-seen order.

    Explicit wins over implicit and transparent wins over opaque, so the
    merged edge keeps every way in which the source can see the target.
    """
    merged: dict[tuple[str, str], DepEdge] = {}
    for edge in edges:
        key = edge.pair()
        prev = merged.get(key)
        if prev is None:
            merged[key] = edge
        elif prev != edge:
            merged[key] = DepEdge(
                edge.src,
                edge.dst,
                Visibility.EXPLICIT
                if Visibility.EXPLICIT in (prev.visibility, edge.visibility)
                else Visibility.IMPLICIT,
                Opacity.TRANSPARENT
                if Opacity.TRANSPARENT in (prev.opacity, edge.opacity)
                else Opacity.OPAQUE,
            )
    return list(merged.values())


def _project_files(
    nodes: Sequence[str], files: dict[str, str], edges: Iterable[DepEdge]
) -> tuple[list[str], list[DepEdge]]:
    """File nodes in first-item order, and every cross-file item edge lifted
    to its pair of files (``DepGraph`` merges the duplicates)."""
    lifted = []
    for edge in edges:
        for end in edge.pair():
            if end not in files:
                raise UnknownItemError(end)
        src_file, dst_file = files[edge.src], files[edge.dst]
        if src_file != dst_file:
            lifted.append(DepEdge(src_file, dst_file, edge.visibility, edge.opacity))
    return list(dict.fromkeys(files[name] for name in nodes)), lifted


def _nodes_from_corpus(corpus: Corpus):
    nodes = [item.name for item in corpus.items]
    kinds = {item.name: item.kind for item in corpus.items}
    files = {item.name: item.source_file for item in corpus.items}
    opacities = {item.name: item.opacity for item in corpus.items}
    return nodes, kinds, files, opacities


def build_graph(
    corpus: Corpus,
    edges: Iterable[DepEdge],
    granularity: Granularity = Granularity.ITEM,
) -> DepGraph:
    """Item-level graph as-is, or the projection onto source files.

    At file granularity an edge A -> B appears whenever any item of A
    depends on any item of B; edges inside one file are dropped.  The
    projected edge is transparent or explicit when any contributing item
    edge is.
    """
    nodes, kinds, files, opacities = _nodes_from_corpus(corpus)
    granularity = Granularity(granularity)
    if granularity is Granularity.ITEM:
        return DepGraph(nodes, edges, granularity, kinds=kinds, files=files, opacities=opacities)

    return DepGraph(*_project_files(nodes, files, edges), granularity)


def build_graph_from_edges(edges: Iterable[DepEdge]) -> DepGraph:
    """Item graph when only edge records are available.

    Node order is recovered by a deterministic topological sort (ties by
    name), so statistics that need the full node set should prefer
    ``build_graph`` with the corpus.
    """
    edges = list(edges)
    names = sorted({end for edge in edges for end in edge.pair()})
    deps: dict[str, set[str]] = {name: set() for name in names}
    for edge in edges:
        deps[edge.src].add(edge.dst)
    order: list[str] = []
    placed: set[str] = set()
    remaining = set(names)
    while remaining:
        ready = sorted(n for n in remaining if deps[n] <= placed)
        if not ready:
            raise CycleDetectedError("edge records contain a dependency cycle")
        order.extend(ready)
        placed.update(ready)
        remaining.difference_update(ready)
    return DepGraph(order, edges, Granularity.ITEM)


def transitive_closure(g: DepGraph) -> DepGraph:
    """Graph whose edge set is the reachability relation of ``g``.

    Direct edges keep their attributes; closure-only edges are transparent
    (or explicit) exactly when some witnessing path uses only transparent
    (only explicit) edges.
    """
    direct = {edge.pair(): edge for edge in g.edges}
    reach = g.reach()
    trans, expl = g._attr_reach()
    closure: list[DepEdge] = []
    for i, src in enumerate(g.nodes):
        bits = reach[i]
        while bits:
            low = bits & -bits
            j = low.bit_length() - 1
            bits ^= low
            dst = g.nodes[j]
            edge = direct.get((src, dst))
            if edge is None:
                edge = DepEdge(
                    src,
                    dst,
                    Visibility.EXPLICIT if expl[i] & (1 << j) else Visibility.IMPLICIT,
                    Opacity.TRANSPARENT if trans[i] & (1 << j) else Opacity.OPAQUE,
                )
            closure.append(edge)
    return DepGraph(
        g.nodes, closure, g.granularity, kinds=g.kinds, files=g.files, opacities=g.opacities
    )


def stats(g: DepGraph) -> GraphStats:
    """Graph statistics from per-node reachability, closure unmaterialized."""
    tdeps, reverse_counts = g.closure_counts()
    return GraphStats.from_counts(
        items=len(g.nodes), tdeps=tdeps, deps=len(g.edges), reverse_counts=reverse_counts
    )


def kind_table(g: DepGraph) -> dict[str, dict[str, int]]:
    """Direct-edge counts by source kind and by target kind."""
    if g.granularity is not Granularity.ITEM:
        raise ValueError("kind_table requires an item-granularity graph")
    table = {kind.value: {"from": 0, "to": 0} for kind in ItemKind}
    for edge in g.edges:
        table[g.kinds[edge.src].value]["from"] += 1
        table[g.kinds[edge.dst].value]["to"] += 1
    return table


def reverse_cumulative(g: DepGraph) -> list[tuple[int, int]]:
    """Cumulative distribution of transitive reverse-dependent counts."""
    counts = g.reverse_counts()
    out: list[tuple[int, int]] = []
    running = 0
    for threshold in sorted(set(counts)):
        running += counts.count(threshold)
        out.append((threshold, running))
    return out


def load_set(g: DepGraph, target: str) -> list[str]:
    """The target and everything it transitively needs, load order first."""
    i = g.index_of(target)
    bits = g.reach()[i] | (1 << i)
    out = []
    while bits:
        low = bits & -bits
        out.append(g.nodes[low.bit_length() - 1])
        bits ^= low
    return out


# Exports ---------------------------------------------------------------------


def to_dot(g: DepGraph) -> str:
    lines = [f"digraph deps {{  // granularity={g.granularity.value}"]
    for name in g.nodes:
        kind = g.kinds.get(name)
        label = f"{name}\\n{kind.value}" if kind else name
        lines.append(f'  "{name}" [label="{label}"];')
    for edge in g.edges:
        style = "solid" if edge.visibility is Visibility.EXPLICIT else "dashed"
        lines.append(f'  "{edge.src}" -> "{edge.dst}" [style={style}];')
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
