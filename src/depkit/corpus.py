"""Micro-article (muArt) corpora: grammar, parser, renderer, and checker.

muArt is a tiny line-oriented proof-library language with five item kinds:

    def [opaque|transparent] NAME [: TYPE*] := BODY* ;
    thm [opaque|transparent] [NAME] : (uses SYM | var NAME)* [by REF+ | by auto] ;
    notation NAME for SYM ;
    hint NAME uses SYM+ ;
    reserve NAME[, NAME]* : SYM ;
    defblock { def ... def ... }
    then thm ...                    (link to the preceding statement)

Files use the ``.art`` extension, UTF-8, and ``#`` line comments.  ``lit``
is the literal atom: a definition body of ``lit`` references nothing.

The checker is a pure function of (item, environment).  It is deliberately
monotone: growing an environment can never turn an accepted item into a
rejected one.  That property is what makes brute-force environment
minimization well defined, and it is asserted by the test suite rather
than assumed.  In trace mode the checker records one dependency edge per
resolution it performs, including one edge per *applicable* hint when a
theorem is justified by ``auto`` (not just the one hint that minimization
would keep), so traces can strictly exceed minimal environments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DuplicateNameError, ParseError

ART_SUFFIX = ".art"

KEYWORDS = frozenset(
    {
        "def", "thm", "notation", "hint", "reserve", "defblock", "then",
        "uses", "var", "by", "auto", "opaque", "transparent", "for", "lit",
    }
)

# Namespace reserved for generated labels; user identifiers may not use it.
FRESH_PREFIX = "__n"

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(r"#[^\n]*|:=|[:;{},]|[A-Za-z_][A-Za-z0-9_]*|\S")


class ItemKind(str, Enum):
    DEFINITION = "definition"
    THEOREM = "theorem"
    NOTATION = "notation"
    HINT = "hint"
    RESERVATION = "reservation"


class Opacity(str, Enum):
    OPAQUE = "opaque"
    TRANSPARENT = "transparent"


class Visibility(str, Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"


class RejectReason(str, Enum):
    UNRESOLVED_SYMBOL = "UnresolvedSymbol"
    MISSING_RESERVATION = "MissingReservation"
    NO_APPLICABLE_HINT = "NoApplicableHint"
    MISSING_NOTATION = "MissingNotation"
    BAD_JUSTIFICATION = "BadJustification"


# Environment attribute name per kind, in corpus-declaration order.
KIND_FIELDS = {
    ItemKind.DEFINITION: "definitions",
    ItemKind.THEOREM: "theorems",
    ItemKind.NOTATION: "notations",
    ItemKind.HINT: "hints",
    ItemKind.RESERVATION: "reservations",
}

_DEFAULT_OPACITY = {
    ItemKind.DEFINITION: Opacity.TRANSPARENT,
    ItemKind.THEOREM: Opacity.OPAQUE,
    ItemKind.NOTATION: Opacity.TRANSPARENT,
    ItemKind.HINT: Opacity.TRANSPARENT,
    ItemKind.RESERVATION: Opacity.TRANSPARENT,
}


@dataclass(frozen=True, slots=True)
class Item:
    """One toplevel corpus construct.

    ``statement_symbols`` are the identifiers referenced in the statement or
    type part, ``body_symbols`` the ones referenced in a definition body.
    ``free_vars`` are the explicit ``var x`` markers of a theorem and
    ``reserved_vars`` the variables a reservation introduces (exactly one
    after normalization).  Justification is either ``by_auto`` or a tuple of
    ``by_refs``; both empty means no justification.
    """

    name: str
    kind: ItemKind
    statement_symbols: tuple[str, ...] = ()
    body_symbols: tuple[str, ...] = ()
    free_vars: tuple[str, ...] = ()
    reserved_vars: tuple[str, ...] = ()
    by_refs: tuple[str, ...] = ()
    by_auto: bool = False
    opacity: Opacity = Opacity.TRANSPARENT
    source_file: str = "<memory>"
    index_in_file: int = 0
    anonymous: bool = False
    linked: bool = False
    block_id: int | None = None

    @property
    def justification(self) -> str | tuple[str, ...] | None:
        if self.by_auto:
            return "auto"
        if self.by_refs:
            return self.by_refs
        return None

    def literal_names(self) -> frozenset[str]:
        """All identifiers that occur literally in this item's source text."""
        return frozenset(
            self.statement_symbols
            + self.body_symbols
            + self.by_refs
            + self.free_vars
            + self.reserved_vars
        )


@dataclass(frozen=True, slots=True)
class DepEdge:
    """A directed dependency: ``src`` needs ``dst``."""

    src: str
    dst: str
    visibility: Visibility
    opacity: Opacity

    def pair(self) -> tuple[str, str]:
        return (self.src, self.dst)


class Environment:
    """Per-kind ordered, duplicate-free name lists available to the checker."""

    __slots__ = ("definitions", "theorems", "notations", "hints", "reservations", "_sets")

    def __init__(
        self,
        definitions: Iterable[str] = (),
        theorems: Iterable[str] = (),
        notations: Iterable[str] = (),
        hints: Iterable[str] = (),
        reservations: Iterable[str] = (),
    ):
        self.definitions = tuple(definitions)
        self.theorems = tuple(theorems)
        self.notations = tuple(notations)
        self.hints = tuple(hints)
        self.reservations = tuple(reservations)
        self._sets = {}
        for kind, attr in KIND_FIELDS.items():
            names = getattr(self, attr)
            s = frozenset(names)
            if len(s) != len(names):
                raise ValueError(f"duplicate names in environment {attr}: {names}")
            self._sets[kind] = s

    def names(self, kind: ItemKind) -> tuple[str, ...]:
        return getattr(self, KIND_FIELDS[kind])

    def contains(self, kind: ItemKind, name: str) -> bool:
        return name in self._sets[kind]

    def size(self) -> int:
        return sum(len(self.names(k)) for k in ItemKind)

    def all_names(self) -> tuple[str, ...]:
        out: list[str] = []
        for kind in ItemKind:
            out.extend(self.names(kind))
        return tuple(out)

    def replace_kind(self, kind: ItemKind, names: Iterable[str]) -> "Environment":
        parts = {attr: getattr(self, attr) for attr in KIND_FIELDS.values()}
        parts[KIND_FIELDS[kind]] = tuple(names)
        return Environment(**parts)

    def restrict(self, keep: frozenset[str] | set[str]) -> "Environment":
        return Environment(
            **{
                attr: tuple(n for n in getattr(self, attr) if n in keep)
                for attr in KIND_FIELDS.values()
            }
        )

    def is_subenv_of(self, other: "Environment") -> bool:
        """Per-kind subset (membership only; both sides keep corpus order)."""
        return all(self._sets[k] <= other._sets[k] for k in ItemKind)

    def _key(self):
        return (self.definitions, self.theorems, self.notations, self.hints, self.reservations)

    def __eq__(self, other) -> bool:
        return isinstance(other, Environment) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{attr}={list(getattr(self, attr))}"
            for attr in KIND_FIELDS.values()
            if getattr(self, attr)
        )
        return f"Environment({parts})"


@dataclass(frozen=True, slots=True)
class CheckOutcome:
    """Checker verdict; ``trace`` is populated only for accepted trace runs."""

    accepted: bool
    reason: RejectReason | None = None
    trace: tuple[DepEdge, ...] = ()


@dataclass(frozen=True, slots=True)
class _Token:
    text: str
    line: int


def _tokenize(text: str, source_file: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for match in _TOKEN_RE.finditer(line):
            tok = match.group(0)
            if tok.startswith("#"):
                break
            if tok in (":=", ":", ";", "{", "}", ",") or _IDENT_RE.fullmatch(tok):
                tokens.append(_Token(tok, lineno))
            else:
                raise ParseError(f"unexpected character {tok!r}", source_file, lineno)
    return tokens


def file_tag(relpath: str) -> str:
    """Stable identifier fragment derived from a corpus-relative path."""
    stem = relpath[: -len(ART_SUFFIX)] if relpath.endswith(ART_SUFFIX) else relpath
    return re.sub(r"[^A-Za-z0-9]+", "_", stem).strip("_")


class _Parser:
    def __init__(self, tokens: list[_Token], source_file: str):
        self.tokens = tokens
        self.pos = 0
        self.source_file = source_file
        self.tag = file_tag(source_file)
        self.block_counter = 0

    def error(self, message: str) -> ParseError:
        line = self.tokens[self.pos].line if self.pos < len(self.tokens) else (
            self.tokens[-1].line if self.tokens else 1
        )
        return ParseError(message, self.source_file, line)

    def peek(self) -> str | None:
        return self.tokens[self.pos].text if self.pos < len(self.tokens) else None

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            raise self.error("unexpected end of file")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok.text

    def expect(self, text: str) -> None:
        got = self.take()
        if got != text:
            self.pos -= 1
            raise self.error(f"expected {text!r}, found {got!r}")

    def take_name(self, what: str = "identifier") -> str:
        tok = self.take()
        if tok in KEYWORDS or not _IDENT_RE.fullmatch(tok):
            self.pos -= 1
            raise self.error(f"expected {what}, found {tok!r}")
        if tok.startswith(FRESH_PREFIX) and not re.fullmatch(
            rf"{FRESH_PREFIX}\d+_{re.escape(self.tag)}", tok
        ):
            self.pos -= 1
            raise self.error(
                f"identifier {tok!r} uses the reserved {FRESH_PREFIX!r} label namespace"
            )
        return tok

    def at_name(self) -> bool:
        tok = self.peek()
        return tok is not None and tok not in KEYWORDS and _IDENT_RE.fullmatch(tok) is not None

    def take_opacity(self) -> Opacity | None:
        if self.peek() in ("opaque", "transparent"):
            return Opacity(self.take())
        return None

    def parse_items(self) -> list[Item]:
        items: list[Item] = []
        while self.peek() is not None:
            if self.peek() == "defblock":
                items.extend(self.parse_defblock(len(items)))
            else:
                items.append(self.parse_item(len(items)))
        return items

    def parse_defblock(self, base_index: int) -> list[Item]:
        self.expect("defblock")
        self.expect("{")
        block_id = self.block_counter
        self.block_counter += 1
        members: list[Item] = []
        while self.peek() != "}":
            if self.peek() != "def":
                raise self.error("defblock may only contain definitions")
            item = self.parse_def(base_index + len(members))
            members.append(replace(item, block_id=block_id))
        self.expect("}")
        if not members:
            raise self.error("empty defblock")
        return members

    def parse_item(self, index: int) -> Item:
        tok = self.peek()
        if tok == "def":
            return self.parse_def(index)
        if tok in ("thm", "then"):
            return self.parse_thm(index)
        if tok == "notation":
            return self.parse_notation(index)
        if tok == "hint":
            return self.parse_hint(index)
        if tok == "reserve":
            return self.parse_reserve(index)
        raise self.error(f"expected an item keyword, found {tok!r}")

    def parse_def(self, index: int) -> Item:
        self.expect("def")
        opacity = self.take_opacity() or _DEFAULT_OPACITY[ItemKind.DEFINITION]
        name = self.take_name("definition name")
        stmt: list[str] = []
        if self.peek() == ":":
            self.take()
            while self.at_name():
                stmt.append(self.take_name())
        self.expect(":=")
        body: list[str] = []
        while self.peek() != ";":
            if self.peek() is None:
                raise self.error("unterminated definition body")
            if self.peek() == "lit":
                self.take()
            elif self.at_name():
                body.append(self.take_name())
            else:
                raise self.error(f"unexpected token {self.peek()!r} in definition body")
        self.expect(";")
        return Item(
            name=name,
            kind=ItemKind.DEFINITION,
            statement_symbols=_dedup(stmt),
            body_symbols=_dedup(body),
            opacity=opacity,
            source_file=self.source_file,
            index_in_file=index,
        )

    def parse_thm(self, index: int) -> Item:
        linked = False
        if self.peek() == "then":
            self.take()
            linked = True
            if self.peek() != "thm":
                raise self.error("'then' may only prefix a theorem")
        self.expect("thm")
        opacity = self.take_opacity() or _DEFAULT_OPACITY[ItemKind.THEOREM]
        anonymous = not self.at_name()
        name = "" if anonymous else self.take_name("theorem name")
        self.expect(":")
        stmt: list[str] = []
        free_vars: list[str] = []
        while self.peek() in ("uses", "var"):
            clause = self.take()
            if clause == "uses":
                stmt.append(self.take_name("symbol after 'uses'"))
            else:
                free_vars.append(self.take_name("variable after 'var'"))
        by_refs: tuple[str, ...] = ()
        by_auto = False
        if self.peek() == "by":
            self.take()
            if self.peek() == "auto":
                self.take()
                by_auto = True
                if linked:
                    raise self.error("'then' cannot be combined with 'by auto'")
            else:
                refs = []
                while self.at_name():
                    refs.append(self.take_name("reference after 'by'"))
                if not refs:
                    raise self.error("'by' requires 'auto' or at least one reference")
                by_refs = _dedup(refs)
        self.expect(";")
        return Item(
            name=name,
            kind=ItemKind.THEOREM,
            statement_symbols=_dedup(stmt),
            free_vars=_dedup(free_vars),
            by_refs=by_refs,
            by_auto=by_auto,
            opacity=opacity,
            source_file=self.source_file,
            index_in_file=index,
            anonymous=anonymous,
            linked=linked,
        )

    def parse_notation(self, index: int) -> Item:
        self.expect("notation")
        name = self.take_name("notation name")
        self.expect("for")
        target = self.take_name("notation target")
        self.expect(";")
        return Item(
            name=name,
            kind=ItemKind.NOTATION,
            statement_symbols=(target,),
            opacity=_DEFAULT_OPACITY[ItemKind.NOTATION],
            source_file=self.source_file,
            index_in_file=index,
        )

    def parse_hint(self, index: int) -> Item:
        self.expect("hint")
        name = self.take_name("hint name")
        self.expect("uses")
        syms = [self.take_name("symbol in hint")]
        while self.at_name():
            syms.append(self.take_name())
        self.expect(";")
        return Item(
            name=name,
            kind=ItemKind.HINT,
            statement_symbols=_dedup(syms),
            opacity=_DEFAULT_OPACITY[ItemKind.HINT],
            source_file=self.source_file,
            index_in_file=index,
        )

    def parse_reserve(self, index: int) -> Item:
        self.expect("reserve")
        names = [self.take_name("reserved variable")]
        while self.peek() == ",":
            self.take()
            names.append(self.take_name("reserved variable"))
        self.expect(":")
        type_sym = self.take_name("reservation type symbol")
        self.expect(";")
        vars_ = _dedup(names)
        if len(vars_) != len(names):
            raise self.error("repeated variable in reservation")
        return Item(
            name=vars_[0],
            kind=ItemKind.RESERVATION,
            statement_symbols=(type_sym,),
            reserved_vars=vars_,
            opacity=_DEFAULT_OPACITY[ItemKind.RESERVATION],
            source_file=self.source_file,
            index_in_file=index,
        )


def _dedup(names: Iterable[str]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(names))


def _assign_anonymous_names(items: list[Item], source_file: str) -> list[Item]:
    """Give anonymous items deterministic names in the reserved namespace.

    Explicit fresh labels survive a round trip through the renderer, so the
    counter skips indexes already present in the file.
    """
    tag = file_tag(source_file)
    pattern = re.compile(rf"{FRESH_PREFIX}(\d+)_{re.escape(tag)}\Z")
    used = {int(m.group(1)) for it in items if (m := pattern.match(it.name))}
    counter = 0
    out: list[Item] = []
    for item in items:
        if item.anonymous:
            while counter in used:
                counter += 1
            used.add(counter)
            out.append(replace(item, name=f"{FRESH_PREFIX}{counter}_{tag}"))
        else:
            out.append(item)
    return out


def parse_source(text: str, source_file: str = "memory.art") -> list[Item]:
    """Parse one file's source into items (names assigned, order preserved)."""
    parser = _Parser(_tokenize(text, source_file), source_file)
    items = parser.parse_items()
    items = _assign_anonymous_names(items, source_file)
    seen: dict[str, Item] = {}
    for item in items:
        if item.name in seen:
            raise DuplicateNameError(item.name, source_file, source_file)
        seen[item.name] = item
    return items


class Corpus:
    """An immutable, ordered collection of items with name-based lookup.

    Corpus order (file path order, then position in file) is the canonical
    topological order: accepted items only ever resolve names introduced
    earlier.  Parser and checker never mutate the corpus, so instances are
    safe to share across threads.
    """

    def __init__(self, items: Sequence[Item]):
        self.items: tuple[Item, ...] = tuple(items)
        self._by_name: dict[str, Item] = {}
        self._order: dict[str, int] = {}
        for idx, item in enumerate(self.items):
            prev = self._by_name.get(item.name)
            if prev is not None:
                raise DuplicateNameError(item.name, prev.source_file, item.source_file)
            self._by_name[item.name] = item
            self._order[item.name] = idx

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def item(self, name: str) -> Item:
        return self._by_name[name]

    def get(self, name: str) -> Item | None:
        return self._by_name.get(name)

    def kind_of(self, name: str) -> ItemKind | None:
        item = self._by_name.get(name)
        return item.kind if item is not None else None

    def index_of(self, name: str) -> int:
        return self._order[name]

    def files(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(item.source_file for item in self.items))

    def by_file(self) -> dict[str, list[Item]]:
        grouped: dict[str, list[Item]] = {}
        for item in self.items:
            grouped.setdefault(item.source_file, []).append(item)
        return grouped

    def candidate_environment(self, index: int) -> Environment:
        """Everything declared before position ``index``, split per kind."""
        lists: dict[ItemKind, list[str]] = {kind: [] for kind in ItemKind}
        for item in self.items[:index]:
            lists[item.kind].append(item.name)
        return Environment(
            definitions=lists[ItemKind.DEFINITION],
            theorems=lists[ItemKind.THEOREM],
            notations=lists[ItemKind.NOTATION],
            hints=lists[ItemKind.HINT],
            reservations=lists[ItemKind.RESERVATION],
        )

    # Checker -------------------------------------------------------------

    def check_item(self, item: Item, env: Environment, trace_requested: bool = False) -> CheckOutcome:
        """Decide whether ``item`` verifies under ``env``.

        Acceptance requires, in this fixed order: (a) every statement and
        body symbol resolves to a definition or theorem in ``env`` (tokens
        naming a notation instead require that notation to be present), (b)
        every ``by`` reference resolves to a definition or theorem, (c)
        every free variable is covered by some reservation in ``env`` whose
        type symbol itself resolves, and (d) an ``auto`` justification finds
        at least one hint in ``env`` sharing a symbol with the statement.
        Rejection is reported as a verdict with a reason code, never as an
        exception.
        """
        reason, resolved = self._verify(item, env, trace_requested)
        if reason is not None:
            return CheckOutcome(False, reason, ())
        if not trace_requested:
            return CheckOutcome(True, None, ())
        literal = item.literal_names()
        trace = tuple(
            DepEdge(
                src=item.name,
                dst=target,
                visibility=Visibility.EXPLICIT if target in literal else Visibility.IMPLICIT,
                opacity=self._by_name[target].opacity,
            )
            for target in resolved
        )
        return CheckOutcome(True, None, trace)

    def accepts(self, item: Item, env: Environment) -> bool:
        """Fast verdict-only check (the minimization oracle)."""
        reason, _ = self._verify(item, env, False)
        return reason is None

    def _verify(
        self, item: Item, env: Environment, collect: bool
    ) -> tuple[RejectReason | None, dict[str, None]]:
        resolved: dict[str, None] = {}

        def note(name: str) -> None:
            if collect:
                resolved.setdefault(name)

        for ref in item.statement_symbols + item.body_symbols:
            target = self._by_name.get(ref)
            if target is None:
                return RejectReason.UNRESOLVED_SYMBOL, resolved
            if target.kind is ItemKind.NOTATION:
                if not env.contains(ItemKind.NOTATION, ref):
                    return RejectReason.MISSING_NOTATION, resolved
            elif target.kind in (ItemKind.DEFINITION, ItemKind.THEOREM):
                if not env.contains(target.kind, ref):
                    return RejectReason.UNRESOLVED_SYMBOL, resolved
            else:
                return RejectReason.UNRESOLVED_SYMBOL, resolved
            note(ref)

        for ref in item.by_refs:
            target = self._by_name.get(ref)
            if (
                target is None
                or target.kind not in (ItemKind.DEFINITION, ItemKind.THEOREM)
                or not env.contains(target.kind, ref)
            ):
                return RejectReason.BAD_JUSTIFICATION, resolved
            note(ref)

        for var in item.free_vars:
            witness = None
            covered = False
            for rname in env.reservations:
                res = self._by_name[rname]
                if var not in res.reserved_vars:
                    continue
                covered = True
                type_sym = res.statement_symbols[0]
                typ = self._by_name.get(type_sym)
                if (
                    typ is not None
                    and typ.kind in (ItemKind.DEFINITION, ItemKind.THEOREM)
                    and env.contains(typ.kind, type_sym)
                ):
                    witness = res
                    break
            if witness is None:
                reason = (
                    RejectReason.UNRESOLVED_SYMBOL if covered else RejectReason.MISSING_RESERVATION
                )
                return reason, resolved
            note(witness.name)
            note(witness.statement_symbols[0])

        if item.by_auto:
            stmt = set(item.statement_symbols)
            applicable = [
                hname
                for hname in env.hints
                if stmt.intersection(self._by_name[hname].statement_symbols)
            ]
            if not applicable:
                return RejectReason.NO_APPLICABLE_HINT, resolved
            # Deliberately exhaustive: every applicable hint is a dependency.
            for hname in applicable:
                note(hname)

        return None, resolved


def parse_corpus(root: str | Path) -> Corpus:
    """Parse every ``.art`` file under ``root`` (path order, then position)."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    relpaths = sorted(
        p.relative_to(root).as_posix() for p in root.rglob(f"*{ART_SUFFIX}") if p.is_file()
    )
    items: list[Item] = []
    for rel in relpaths:
        data = (root / rel).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError("not valid UTF-8", rel, data.count(b"\n", 0, err.start) + 1) from None
        items.extend(parse_source(text, rel))
    return Corpus(items)


# Rendering -----------------------------------------------------------------


def render_item(item: Item) -> str:
    """Canonical single-line source for one item (block braces excluded)."""
    if item.kind is ItemKind.DEFINITION:
        parts = ["def"]
        if item.opacity is Opacity.OPAQUE:
            parts.append("opaque")
        parts.append(item.name)
        if item.statement_symbols:
            parts.append(":")
            parts.extend(item.statement_symbols)
        parts.append(":=")
        parts.extend(item.body_symbols if item.body_symbols else ("lit",))
    elif item.kind is ItemKind.THEOREM:
        parts = ["then"] if item.linked else []
        parts.append("thm")
        if item.opacity is Opacity.TRANSPARENT:
            parts.append("transparent")
        if not item.anonymous:
            parts.append(item.name)
        parts.append(":")
        for sym in item.statement_symbols:
            parts.extend(("uses", sym))
        for var in item.free_vars:
            parts.extend(("var", var))
        if item.by_auto:
            parts.extend(("by", "auto"))
        elif item.by_refs:
            parts.append("by")
            parts.extend(item.by_refs)
    elif item.kind is ItemKind.NOTATION:
        parts = ["notation", item.name, "for", item.statement_symbols[0]]
    elif item.kind is ItemKind.HINT:
        parts = ["hint", item.name, "uses", *item.statement_symbols]
    elif item.kind is ItemKind.RESERVATION:
        joined = ", ".join(item.reserved_vars)
        parts = ["reserve", joined, ":", item.statement_symbols[0]]
    else:  # pragma: no cover - exhaustive over ItemKind
        raise AssertionError(item.kind)
    return " ".join(parts) + ";"


def render_file(items: Sequence[Item]) -> str:
    """Canonical source text for one file, regrouping definition blocks."""
    lines: list[str] = []
    i = 0
    while i < len(items):
        item = items[i]
        if item.block_id is not None:
            j = i
            while j < len(items) and items[j].block_id == item.block_id:
                j += 1
            inner = " ".join(render_item(member) for member in items[i:j])
            lines.append(f"defblock {{ {inner} }}")
            i = j
        else:
            lines.append(render_item(item))
            i += 1
    return "\n".join(lines) + "\n" if lines else ""


def render_corpus(corpus: Corpus) -> dict[str, str]:
    """Canonical sources per relative file path."""
    return {rel: render_file(items) for rel, items in corpus.by_file().items()}
