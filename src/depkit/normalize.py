"""Source normalization: three semantics-preserving rewrites.

Normalization makes every dependency individually removable before
environment minimization runs:

1. definition blocks are dissolved into standalone definitions,
2. ``then`` links become explicit ``by`` references (labeling anonymous
   link targets with fresh names), and
3. multi-variable reservations are split into single-variable ones.

The rewrites run per file, in that fixed order, and are idempotent at the
rendered-byte level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .corpus import Corpus, Item, ItemKind
from .errors import DanglingThenError


@dataclass
class RewriteReport:
    """What normalization did to one file."""

    blocks_split: int = 0
    links_rewritten: int = 0
    reservations_split: int = 0
    fresh_labels: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "blocks_split": self.blocks_split,
            "links_rewritten": self.links_rewritten,
            "reservations_split": self.reservations_split,
            "fresh_labels": list(self.fresh_labels),
        }


def split_definition_blocks(items: Sequence[Item]) -> list[Item]:
    """Dissolve definition blocks; members become standalone, order kept."""
    return [replace(it, block_id=None) if it.block_id is not None else it for it in items]


def explicit_linking(items: Sequence[Item]) -> list[Item]:
    """Replace each leading ``then`` by an explicit reference.

    The link target is the immediately preceding definition or theorem in
    the same file; an anonymous target loses its anonymity so that its
    generated label can be referenced.  A ``then`` with no linkable
    predecessor raises ``DanglingThenError``.
    """
    out: list[Item] = []
    prev_in_file: dict[str, int] = {}
    for item in items:
        if item.linked:
            prev_pos = prev_in_file.get(item.source_file)
            prev = out[prev_pos] if prev_pos is not None else None
            if prev is None or prev.kind not in (ItemKind.DEFINITION, ItemKind.THEOREM):
                raise DanglingThenError(item.source_file, item.index_in_file)
            if prev.anonymous:
                out[prev_pos] = replace(prev, anonymous=False)
            refs = tuple(dict.fromkeys((prev.name, *item.by_refs)))
            item = replace(item, linked=False, by_refs=refs)
        out.append(item)
        prev_in_file[item.source_file] = len(out) - 1
    return out


def split_reservations(items: Sequence[Item]) -> list[Item]:
    """Split every multi-variable reservation into single-variable ones."""
    out: list[Item] = []
    for item in items:
        if item.kind is ItemKind.RESERVATION and len(item.reserved_vars) > 1:
            for var in item.reserved_vars:
                out.append(replace(item, name=var, reserved_vars=(var,)))
        else:
            out.append(item)
    return out


def normalize_items(items: Sequence[Item]) -> tuple[list[Item], dict[str, RewriteReport]]:
    """Run the three rewrites and report per-file counts and fresh labels."""
    by_file: dict[str, list[Item]] = {}
    for item in items:
        by_file.setdefault(item.source_file, []).append(item)
    reports = {rel: RewriteReport() for rel in by_file}
    for rel, report in reports.items():
        in_file = by_file[rel]
        report.blocks_split = len({it.block_id for it in in_file if it.block_id is not None})
        report.links_rewritten = sum(1 for it in in_file if it.linked)
        report.reservations_split = sum(
            1 for it in in_file if it.kind is ItemKind.RESERVATION and len(it.reserved_vars) > 1
        )

    anonymous_before = {it.name for it in items if it.anonymous}
    rewritten = split_reservations(explicit_linking(split_definition_blocks(items)))
    for item in rewritten:
        if item.name in anonymous_before and not item.anonymous:
            reports[item.source_file].fresh_labels.append(item.name)

    reindexed: list[Item] = []
    counters: dict[str, int] = {}
    for item in rewritten:
        idx = counters.get(item.source_file, 0)
        counters[item.source_file] = idx + 1
        reindexed.append(
            item if item.index_in_file == idx else replace(item, index_in_file=idx)
        )
    return reindexed, reports


def normalize_corpus(corpus: Corpus) -> tuple[Corpus, dict[str, RewriteReport]]:
    """Normalized copy of ``corpus`` plus one rewrite report per file."""
    items, reports = normalize_items(corpus.items)
    return Corpus(items), reports
