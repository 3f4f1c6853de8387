"""Incremental re-verification planning and simulation.

A plan lists everything that must be re-checked after a set of edits:
the changed items plus all transitive reverse dependents, or, at file
granularity, every item of every file that transitively depends on a
changed file (the blunt strategy fine-grained dependencies are meant to
beat).  A body-only edit to an opaque item is invisible to consumers, so
with opacity honored its dependents are skipped and reported instead of
re-checked.  Plans include the changed items themselves; the ARL statistic
of ``graph.stats`` does not count the changed item, so exhaustive-mode
means differ from it by exactly one.

Plans are bit masks over node positions until the end, named once.  An
item plan is one forward pass over the graph's dependency rows from the
changed items (``_dependents``), so it computes only the rows it needs; a
file plan ORs the file scopes of the changed items (``_file_scopes`` of the
graph: a file's own items and the items of every file that depends on it).
``speedup_report`` asks for hundreds of plans, so it costs an item pick by
the graph's ``reverse_counts()`` and a file pick by the popcount of its
file's scopes.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Sequence

from .corpus import Corpus, Opacity, bit_positions
from .errors import DepkitError
from .graph import DepGraph, Granularity


class ChangeKind(str, Enum):
    BODY_ONLY = "body"
    STATEMENT_OR_TYPE = "stmt"


@dataclass(frozen=True, slots=True)
class ChangeSet:
    """Names of edited items with the flavor of each edit."""

    changes: tuple[tuple[str, ChangeKind], ...]

    def __post_init__(self):
        if not self.changes:
            raise ValueError("a change set must name at least one item")

    @classmethod
    def single(cls, name: str, kind: ChangeKind = ChangeKind.STATEMENT_OR_TYPE) -> "ChangeSet":
        return cls(changes=((name, kind),))


@dataclass(frozen=True, slots=True)
class RebuildPlan:
    to_recheck: tuple[str, ...]
    skipped_opaque: frozenset[str]
    granularity: Granularity
    cost: int
    changed: tuple[str, ...]


def _require_item_graph(g: DepGraph) -> None:
    if g.granularity is not Granularity.ITEM:
        raise ValueError("plan requires the item-granularity graph")


def _dependents(deps: Sequence[int], seeds: int, kept: int) -> tuple[int, int]:
    """``seeds`` and ``kept``, a submask of it, each closed under reverse
    dependency: one forward pass over the dependency rows ``deps``.

    Node ``j`` joins a closure when its row meets it.  Rows point only at
    earlier nodes, so every node ``j`` depends on has been decided before
    ``j`` is, and the pass starts after the lowest seed.  ``kept`` grows
    inside ``seeds``' closure, so its test runs only for nodes that joined
    that one.
    """
    full, part = seeds, kept
    for j in range((seeds & -seeds).bit_length(), len(deps)):
        row = deps[j]
        if row & full:
            full |= 1 << j
            if row & part:
                part |= 1 << j
    return full, part


def plan(
    g: DepGraph,
    changes: ChangeSet,
    granularity: Granularity = Granularity.ITEM,
    honor_opacity: bool = False,
) -> RebuildPlan:
    """Topologically ordered re-check list for one set of edits; a file
    plan needs the graph's file map, else ``DepkitError``.

    An item plan is one ``_dependents`` pass from the changed items, for
    all of them and for those whose edits are not pruned, so it computes
    only the rows it needs, not the graph's ``reverse_reach()`` table.  A
    file plan ORs the file scopes of the changed items.
    """
    granularity = Granularity(granularity)
    _require_item_graph(g)
    changed_bits = kept_bits = 0  # the changed items, and those not pruned
    for name, kind in changes.changes:
        i = g.index_of(name)
        changed_bits |= 1 << i
        pruned = (
            honor_opacity
            and kind is not ChangeKind.STATEMENT_OR_TYPE
            and g.opacities.get(name) is Opacity.OPAQUE
        )
        if not pruned:
            kept_bits |= 1 << i
    if granularity is Granularity.ITEM:
        full_bits, invalidated = _dependents(g.deps, changed_bits, kept_bits)
        recheck_bits = changed_bits | invalidated
    else:
        file_of, own, dependents = g._file_scopes()
        recheck_bits = full_bits = 0
        for i in bit_positions(changed_bits):
            f = file_of[i]
            scope = own[f] | dependents[f]
            full_bits |= scope
            recheck_bits |= scope if kept_bits >> i & 1 else own[f]
    to_recheck = tuple(g.nodes[i] for i in bit_positions(recheck_bits))
    return RebuildPlan(
        to_recheck=to_recheck,
        skipped_opaque=frozenset(g.nodes[i] for i in bit_positions(full_bits & ~recheck_bits)),
        granularity=granularity,
        cost=len(to_recheck),
        changed=tuple(name for name, _ in changes.changes),
    )


@dataclass(frozen=True, slots=True)
class ExecutionReport:
    passed: tuple[str, ...]
    failed: tuple[tuple[str, str], ...]
    missing: tuple[str, ...]
    verified_count: int

    def as_dict(self) -> dict:
        return {
            "passed": list(self.passed),
            "failed": [list(pair) for pair in self.failed],
            "missing": list(self.missing),
            "verified_count": self.verified_count,
        }


def execute(plan_: RebuildPlan, corpus: Corpus) -> ExecutionReport:
    """Re-check every planned item against the current corpus.

    Items are checked under their full preceding environments.  Failures are
    reported with reason codes, items no longer present are listed as
    missing; neither is an exception.
    """
    passed: list[str] = []
    failed: list[tuple[str, str]] = []
    missing: list[str] = []
    for name in plan_.to_recheck:
        if name not in corpus:
            missing.append(name)
            continue
        index = corpus.index_of(name)
        outcome = corpus.check_item(corpus.items[index], corpus.candidate_environment(index))
        if outcome.accepted:
            passed.append(name)
        else:
            reason = outcome.reason.value if outcome.reason else "rejected"
            failed.append((name, reason))
    return ExecutionReport(
        passed=tuple(passed),
        failed=tuple(failed),
        missing=tuple(missing),
        verified_count=len(passed) + len(failed),
    )


def _total_and_median(costs: Sequence[int], counts: Sequence[int]) -> tuple[int, float]:
    """Sum and ``statistics.median`` of the multiset that holds each
    ``costs[i]`` ``counts[i]`` times, without building it."""
    pairs = sorted(zip(costs, counts))
    ends = list(accumulate(count for _, count in pairs))
    # the middle element, or the two middle elements of an even count
    low, high = (pairs[bisect_right(ends, i)][0] for i in ((ends[-1] - 1) // 2, ends[-1] // 2))
    return sum(cost * count for cost, count in pairs), (low + high) / 2


def speedup_report(g: DepGraph, samples: int, rng_seed: int = 42) -> dict:
    """Plan costs for random single-item edits at both granularities.

    Draws ``samples`` items uniformly (with replacement, seeded); when
    ``samples`` equals the node count every node is used exactly once
    instead (exhaustive mode).  All edits are statement-level, the
    worst case for invalidation, so each cost is that of ``plan``: an item
    pick re-checks itself and its reverse dependents, ``1 +
    reverse_counts()[i]`` (a reverse row never holds its own node, since
    every edge points at an earlier node), and a file pick the items of
    its file and of every file that depends on it.

    The picks are tallied per node, so memory follows the graph whatever
    ``samples`` is; time grows with ``samples``, one draw each.
    """
    if not g.nodes:
        raise DepkitError("speedup needs a graph with at least one item")
    if samples <= 0:
        raise ValueError("samples must be positive")
    n = len(g.nodes)
    if samples == n:
        counts = [1] * n
    else:
        rng = random.Random(rng_seed)
        counts = [0] * n
        for _ in range(samples):
            counts[rng.randrange(n)] += 1

    _require_item_graph(g)
    file_of, own, dependents = g._file_scopes()
    file_scope = [(o | d).bit_count() for o, d in zip(own, dependents)]
    item_total, item_median = _total_and_median([1 + r for r in g.reverse_counts()], counts)
    file_total, file_median = _total_and_median([file_scope[f] for f in file_of], counts)
    item_mean = item_total / samples
    file_mean = file_total / samples
    return {
        "samples": samples,
        "exhaustive": samples == n,
        "seed": rng_seed,
        "item_mean": item_mean,
        "file_mean": file_mean,
        "ratio": file_mean / item_mean if item_mean else 0.0,
        "item_median": item_median,
        "file_median": file_median,
        "item_total": item_total,
        "file_total": file_total,
    }
