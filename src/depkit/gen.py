"""Seeded synthetic corpus generation for tests and experiments.

Every family emits normalized sources (no blocks, no ``then``, single
variable reservations) in which each item verifies under the environment
of everything before it, so extraction and minimization preconditions
hold by construction.

Families:

* ``chain``    - one long dependency chain, alternating defs and theorems;
* ``diamond``  - stacked diamonds (base, two mids, a top joining them);
* ``hints``    - repeated redundant-hint motifs (two applicable hints per
                 ``auto`` theorem, so traces exceed minimal environments);
* ``symbols``  - a block of symbol definitions followed by theorems that
                 each use and reference exactly one of them (the premise
                 learner's favorite diet);
* ``mixed``    - a weighted blend of every construct, including notations,
                 reservations, free variables and ``auto`` justifications.

Generation takes time linear in the number of items. ``mixed`` draws names
through read-only views over its live name lists (``_Joined``), which give
the random generator the same calls and results as copies of the lists
would, and it tests ``by auto`` against one set of every symbol a hint uses.
Nothing copies or scans the earlier items once per item.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from pathlib import Path

from .corpus import source_relpaths, write_bytes

FAMILIES = ("chain", "diamond", "hints", "symbols", "mixed")


def generate_corpus(
    items: int,
    seed: int = 42,
    family: str = "mixed",
    per_file: int = 10,
) -> dict[str, str]:
    """Sources per relative path for one synthetic corpus."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick one of {FAMILIES}")
    if items < 0:
        raise ValueError("items must be nonnegative")
    if per_file < 1:
        raise ValueError("per_file must be positive")
    rng = random.Random(seed)
    lines = _FAMILY_BUILDERS[family](items, rng)
    files: dict[str, str] = {}
    for start in range(0, len(lines), per_file):
        rel = f"art{start // per_file:04d}.art"
        files[rel] = "".join(line + "\n" for line in lines[start : start + per_file])
    return files


def write_corpus(files: dict[str, str], out_dir: str | Path) -> list[Path]:
    """Write ``files`` under ``out_dir``, which may hold this corpus already.

    Raises ``FileExistsError``, before writing anything, when ``out_dir``
    holds a source file that ``files`` does not write: ``parse_corpus``
    would read it as part of the new corpus.  A path with directories
    (``sub/a.art``) gets them made, one ``mkdir`` per distinct parent.
    Each file is written by ``write_bytes``, in UTF-8.
    """
    out_dir = Path(out_dir)
    for rel in source_relpaths(out_dir):
        if rel not in files:
            raise FileExistsError(
                f"{out_dir / rel}: source file that this corpus does not write; "
                "write into an empty directory"
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    for parent in sorted({rel.rpartition("/")[0] for rel in files} - {""}):
        (out_dir / parent).mkdir(parents=True, exist_ok=True)
    paths = []
    for rel in sorted(files):
        path = out_dir / rel
        write_bytes(path, files[rel].encode("utf-8"))
        paths.append(path)
    return paths


def _chain(items: int, rng: random.Random) -> list[str]:
    lines: list[str] = []
    prev: str | None = None
    for i in range(items):
        if prev is None:
            name = f"d{i}"
            lines.append(f"def {name} := lit;")
        elif i % 2:
            name = f"t{i}"
            lines.append(f"thm {name} : uses {prev} by {prev};")
        else:
            name = f"d{i}"
            lines.append(f"def {name} : {prev} := lit;")
        prev = name
    return lines


def _diamond(items: int, rng: random.Random) -> list[str]:
    lines: list[str] = []
    top: str | None = None
    i = 0
    while len(lines) < items:
        base = f"b{i}"
        lines.append(f"def {base} := lit;" if top is None else f"def {base} : {top} := lit;")
        if len(lines) >= items:
            break
        left, right = f"l{i}", f"r{i}"
        lines.append(f"def {left} : {base} := lit;")
        if len(lines) >= items:
            break
        lines.append(f"def {right} : {base} := lit;")
        if len(lines) >= items:
            break
        peak = f"p{i}"
        lines.append(f"thm {peak} : uses {left} uses {right} by {left} {right};")
        top = peak
        i += 1
    return lines


def _hints(items: int, rng: random.Random) -> list[str]:
    lines: list[str] = []
    i = 0
    while len(lines) < items:
        fact = f"f{i}"
        lines.append(f"def {fact} := lit;")
        for suffix in ("a", "b"):
            if len(lines) >= items:
                return lines
            lines.append(f"hint h{i}{suffix} uses {fact};")
        if len(lines) >= items:
            return lines
        lines.append(f"thm t{i} : uses {fact} by auto;")
        i += 1
    return lines


def _symbols(items: int, rng: random.Random) -> list[str]:
    groups = max(2, min(25, items // 4 or 2))
    lines: list[str] = []
    for g in range(min(groups, items)):
        lines.append(f"def s{g} := lit;")
    for i in range(len(lines), items):
        g = rng.randrange(groups)
        lines.append(f"thm t{i} : uses s{g} by s{g};")
    return lines


class _Joined(Sequence[str]):
    """Read-only view of name lists laid end to end, in their current state.

    ``rng.sample`` and ``rng.choice`` read only ``len`` and nonnegative
    indexing, so drawing from a view draws exactly what drawing from the
    concatenated copy would, without copying the earlier items per draw.
    """

    __slots__ = ("_parts",)

    def __init__(self, *parts: list[str]):
        self._parts = parts

    def __len__(self) -> int:
        return sum(map(len, self._parts))

    def __getitem__(self, index: int) -> str:
        if index < 0:
            raise IndexError(index)
        for part in self._parts:
            if index < len(part):
                return part[index]
            index -= len(part)
        raise IndexError(index)


def _mixed(items: int, rng: random.Random) -> list[str]:
    lines: list[str] = []
    defs: list[str] = []
    thms: list[str] = []
    notations: list[str] = []
    hinted: set[str] = set()  # every symbol some hint uses
    reserved: list[str] = []
    statements = _Joined(defs, thms, notations)
    referable = _Joined(defs, thms)

    for i in range(items):
        choices = ["def"]
        if defs or thms:
            choices += ["thm", "thm", "notation", "hint"]
        if defs:
            choices.append("reserve")
        kind = rng.choice(choices)

        if kind == "def":
            name = f"d{i}"
            opac = "opaque " if rng.random() < 0.15 else ""
            type_part = ""
            if statements and rng.random() < 0.6:
                refs = rng.sample(statements, k=min(len(statements), rng.randint(1, 2)))
                type_part = f" : {' '.join(refs)}"
            body_part = "lit"
            if defs and rng.random() < 0.4:
                body_part = rng.choice(defs)
            lines.append(f"def {opac}{name}{type_part} := {body_part};")
            defs.append(name)
        elif kind == "thm":
            name = f"t{i}"
            opac = "transparent " if rng.random() < 0.3 else ""
            uses = rng.sample(statements, k=min(len(statements), rng.randint(1, 3)))
            clause = " ".join(f"uses {sym}" for sym in uses)
            if reserved and rng.random() < 0.3:
                clause += f" var {rng.choice(reserved)}"
            just = ""
            roll = rng.random()
            if not hinted.isdisjoint(uses) and roll < 0.35:
                just = " by auto"
            elif referable and roll < 0.75:
                refs = rng.sample(referable, k=min(len(referable), rng.randint(1, 2)))
                just = f" by {' '.join(refs)}"
            lines.append(f"thm {opac}{name} : {clause}{just};")
            thms.append(name)
        elif kind == "notation":
            name = f"n{i}"
            target = rng.choice(referable)
            lines.append(f"notation {name} for {target};")
            notations.append(name)
        elif kind == "hint":
            name = f"h{i}"
            syms = rng.sample(referable, k=min(len(referable), rng.randint(1, 2)))
            lines.append(f"hint {name} uses {' '.join(syms)};")
            hinted.update(syms)
        else:  # reserve
            var = f"v{i}"
            lines.append(f"reserve {var} : {rng.choice(defs)};")
            reserved.append(var)
    return lines


_FAMILY_BUILDERS = {
    "chain": _chain,
    "diamond": _diamond,
    "hints": _hints,
    "symbols": _symbols,
    "mixed": _mixed,
}
