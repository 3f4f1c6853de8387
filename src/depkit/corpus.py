"""Micro-article (muArt) corpora: grammar, parser, renderer, and checker.

muArt is a tiny line-oriented proof-library language with five item kinds:

    def [opaque|transparent] NAME [: TYPE*] := BODY* ;
    thm [opaque|transparent] [NAME] : (uses SYM | var NAME)* [by REF+ | by auto] ;
    notation NAME for SYM ;
    hint NAME uses SYM+ ;
    reserve NAME[, NAME]* : SYM ;
    defblock { def ... def ... }
    then thm ...                    (link to the preceding statement)

Files use the ``.art`` extension and UTF-8.  The lexical rule: identifiers
are ``[A-Za-z_][A-Za-z0-9_]*`` other than the keywords, punctuation is
``:= : ; { } ,``, ``#`` starts a comment anywhere on a line, blanks separate
tokens, and any other character is a ``ParseError`` at its line.  Lines end
where ``str.splitlines`` ends them.  ``lit`` is the literal atom: a
definition body of ``lit`` references nothing.

The parser is the grammar's recursive descent flattened into one function,
``_parse_file``: one regex gives a file's tokens, without their lines, and
one loop walks the token list with a local index, parses one item per turn
and builds each ``Item`` at one construction site, with no method call per
token.  A file is lexically clean when its tokens cover every character
that is neither a blank nor in a comment, a test that is linear in the
text; a file that is not is tokenized again with lines (``_tokenize``),
which raises at the stray character's line.  Lines are computed only for an
error: every ``ParseError`` names its file and line, and a name declared
twice in one file raises ``DuplicateNameError`` at its second line.

The checker is a pure function of (item, environment).  It is deliberately
monotone: growing an environment can never turn an accepted item into a
rejected one.  That property is what makes brute-force environment
minimization well defined, and it is asserted by the test suite rather
than assumed.  In trace mode the checker records one dependency edge per
resolution it performs, including one edge per *applicable* hint when a
theorem is justified by ``auto`` (not just the one hint that minimization
would keep), so traces can strictly exceed minimal environments.

An environment is one int: a bit mask over the positions of a table that
numbers names and holds one mask per kind.  A corpus owns one table, in
corpus order, shared by every environment it hands out, so a candidate
environment is a prefix mask, trimming one is an AND, and a membership test
is a bit test; per-kind name lists are derived only when asked for.

The checker's rules are written once, in ``Corpus._rules``: per item, the
positions it needs (with the reason each one's absence gives), the
reservations covering each free variable with their types, and the hints
of ``by auto``, all corpus positions.  A name resolves through the
corpus's one name index and the kind slot of its position; a name that
resolves nowhere gets the position past the last item, which no mask
holds.  ``_check`` bit-tests the positions for a reason and collects a
trace as positions, and ``_compile`` gives each position they read one
local bit, compiling the rules into the test that ``accepts`` and the
minimizer run, so tracing and minimization consult one checker, and
reservations and hints are tried in corpus order.  Extraction runs both
on one ``_rules`` result per item.  ``dep_records`` gives the records of
both from positions (each target's name and flag bits), and ``dep_edges``
builds ``check_item``'s trace edges from them.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, fields, replace
from enum import Enum
from itertools import chain, compress, count
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DepkitError, DuplicateNameError, ParseError

ART_SUFFIX = ".art"

KEYWORDS = frozenset(
    {
        "def", "thm", "notation", "hint", "reserve", "defblock", "then",
        "uses", "var", "by", "auto", "opaque", "transparent", "for", "lit",
    }
)

# Namespace reserved for generated labels; user identifiers may not use it.
FRESH_PREFIX = "__n"

# The identifier rule of the lexer.  Every item name, fresh labels included,
# matches it in full.
IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# The lexical rule.  One match per token (group 1), comment, line break
# (group 2; the boundaries of str.splitlines) or stray character (group 3);
# blanks match nothing and are skipped.
_TOKEN_RE = re.compile(
    rf"({IDENTIFIER_RE.pattern}|:=|[:;{{}},])"
    r"|#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*"
    r"|(\r\n|[\n\r\v\f\x1c-\x1e\x85\u2028\u2029])"
    r"|(\S)"
)
# The same rule without lines: a comment up to its line end, and a token.
_COMMENT_RE = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")
_TOKENS_ONLY_RE = re.compile(rf"{IDENTIFIER_RE.pattern}|:=|[:;{{}},]")
# A token is an identifier exactly when it is none of these.
_NOT_NAMES = KEYWORDS | {":=", ":", ";", "{", "}", ","}


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


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in field order.

    A frozen dataclass's generated ``__init__`` sets each field by
    ``object.__setattr__``, about twice the cost of calling the slot's own
    descriptor; a hand-written ``__init__`` sets the fields through these.
    """
    return tuple(cls.__dict__[field.name].__set__ for field in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class Item:
    """One toplevel corpus construct.

    ``statement_symbols`` are the identifiers referenced in the statement or
    type part, ``body_symbols`` the ones referenced in a definition body.
    ``free_vars`` are the explicit ``var x`` markers of a theorem and
    ``reserved_vars`` the variables a reservation introduces (exactly one
    after normalization).  Justification is either ``by_auto`` or a tuple of
    ``by_refs``; both empty means no justification.

    ``__init__`` is written by hand, with the generated one's parameters and
    defaults, to set the fields through their slot descriptors
    (``_slot_setters``): the parser builds one item per declaration.
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

    def __init__(
        self,
        name: str,
        kind: ItemKind,
        statement_symbols: tuple[str, ...] = (),
        body_symbols: tuple[str, ...] = (),
        free_vars: tuple[str, ...] = (),
        reserved_vars: tuple[str, ...] = (),
        by_refs: tuple[str, ...] = (),
        by_auto: bool = False,
        opacity: Opacity = Opacity.TRANSPARENT,
        source_file: str = "<memory>",
        index_in_file: int = 0,
        anonymous: bool = False,
        linked: bool = False,
        block_id: int | None = None,
    ):
        (
            set_name, set_kind, set_statement, set_body, set_free, set_reserved, set_by_refs,
            set_by_auto, set_opacity, set_file, set_index, set_anonymous, set_linked, set_block,
        ) = _ITEM_SETTERS
        set_name(self, name)
        set_kind(self, kind)
        set_statement(self, statement_symbols)
        set_body(self, body_symbols)
        set_free(self, free_vars)
        set_reserved(self, reserved_vars)
        set_by_refs(self, by_refs)
        set_by_auto(self, by_auto)
        set_opacity(self, opacity)
        set_file(self, source_file)
        set_index(self, index_in_file)
        set_anonymous(self, anonymous)
        set_linked(self, linked)
        set_block(self, block_id)

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


@dataclass(frozen=True, slots=True, init=False)
class DepEdge:
    """A directed dependency: ``src`` needs ``dst``.

    ``__init__`` is written by hand, with the generated one's parameters, to
    set the fields through their slot descriptors (``_slot_setters``).
    ``check_item`` builds one edge per dependency of a trace it is asked
    for, while extraction keeps its results as records (``EdgeRecords``,
    names and flag bits from ``Corpus.dep_records``), and those records, the
    edge reader's and a graph's ``edges`` view build one only for an edge
    that is read.
    """

    src: str
    dst: str
    visibility: Visibility
    opacity: Opacity

    def __init__(self, src: str, dst: str, visibility: Visibility, opacity: Opacity):
        set_src, set_dst, set_visibility, set_opacity = _EDGE_SETTERS
        set_src(self, src)
        set_dst(self, dst)
        set_visibility(self, visibility)
        set_opacity(self, opacity)

    def pair(self) -> tuple[str, str]:
        return (self.src, self.dst)


_ITEM_SETTERS = _slot_setters(Item)
_EDGE_SETTERS = _slot_setters(DepEdge)

# The visibility and the opacity of a dependency record's flag bits
# (``_flag_bits``), by bit value.
_VISIBILITY_OF = (Visibility.IMPLICIT, Visibility.EXPLICIT)
_OPACITY_OF = (Opacity.OPAQUE, Opacity.TRANSPARENT)


def _flag_bits(visibility: Visibility, opacity: Opacity) -> int:
    """A dependency record's flag bits: explicit 1, transparent 2."""
    return (visibility is Visibility.EXPLICIT) | (opacity is Opacity.TRANSPARENT) << 1


# bin() digits as bytes 0/1, so that a mask selects with itertools.compress.
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")

# Slot of each kind in a table's kind masks, the corpus's kind lists and a
# name-built environment's names.
_SLOT = {kind: slot for slot, kind in enumerate(KIND_FIELDS)}


def _bit_selectors(bits: int) -> bytes:
    """One byte per position of ``bits``, lowest first: 1 where set, else 0."""
    return bin(bits)[:1:-1].encode().translate(_BIT_BYTES)


def bit_positions(bits: int) -> list[int]:
    """The set positions of a non-negative ``bits``, ascending.

    A sparse mask is read one lowest set bit at a time, a denser one in one
    pass over its binary digits: the two cost about the same at one set bit
    in 32 positions.
    """
    if bits.bit_count() * 32 > bits.bit_length():
        return list(compress(count(), _bit_selectors(bits)))
    positions = []
    while bits:
        low = bits & -bits
        positions.append(low.bit_length() - 1)
        bits ^= low
    return positions


class _Positions:
    """A position table: the name at each position, one mask per kind
    (indexed by ``_SLOT``), and each name's position (``index``, built on
    first use when not given)."""

    __slots__ = ("names", "kinds", "_index")

    def __init__(
        self, names: tuple[str, ...], kinds: tuple[int, ...], index: dict[str, int] | None = None
    ):
        self.names = names
        self.kinds = kinds
        self._index = index

    def mask_of(self, names: Iterable[str]) -> int:
        """The positions of those of ``names`` the table holds."""
        index = self.index
        bits = 0
        for name in names:
            pos = index.get(name)
            if pos is not None:
                bits |= 1 << pos
        return bits

    @property
    def index(self) -> dict[str, int]:
        # Built on first use when not given: the checker reads an
        # environment built by name without it.
        index = self._index
        if index is None:
            index = self._index = dict(zip(self.names, range(len(self.names))))
        return index


def _names_of(kind: ItemKind) -> property:
    slot = _SLOT[kind]
    return property(lambda env: env._names_at(slot), doc=f"The {KIND_FIELDS[kind]}, in table order.")


class Environment:
    """The names available to the checker, as one bit mask over a position table.

    A table numbers names and holds one mask per kind; bit ``p`` of an
    environment's mask says that the name at position ``p`` is present.  A
    corpus owns one table, with position = corpus index, and every
    environment it hands out shares it: ``Corpus.candidate_environment(i)``
    is the prefix mask ``(1 << i) - 1``, ``restrict`` and ``replace_kind``
    are AND / AND-NOT, ``contains`` is a bit test and ``size`` a popcount.
    An environment thus costs one int, and extraction memory grows
    linearly in corpus size.  ``names(kind)``, ``all_names()`` and the
    ``definitions`` ... ``reservations`` attributes list names in table
    order, which for a corpus table is corpus order; they are derived from
    the mask on each call.

    ``Environment(definitions=..., ...)`` builds a private table holding
    each kind's names contiguously, in the order given, so each kind mask
    is one range, and keeps the per-kind tuples it was given as its names.
    A name may appear once in the whole environment.  The checker matches
    such an environment to corpus positions by name and kind; see
    ``Corpus._bits_of``.
    Environments are immutable.  Two are equal when they list the same
    names per kind in the same order, whichever tables they use.
    """

    __slots__ = ("_table", "_mask", "_names")

    def __init__(
        self,
        definitions: Iterable[str] = (),
        theorems: Iterable[str] = (),
        notations: Iterable[str] = (),
        hints: Iterable[str] = (),
        reservations: Iterable[str] = (),
    ):
        parts = (
            tuple(definitions), tuple(theorems), tuple(notations), tuple(hints), tuple(reservations)
        )
        names = parts[0] + parts[1] + parts[2] + parts[3] + parts[4]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate names in environment: {names}")
        # 1 << (position where each kind's range ends), in _SLOT order.
        d_end = 1 << len(parts[0])
        t_end = d_end << len(parts[1])
        n_end = t_end << len(parts[2])
        h_end = n_end << len(parts[3])
        r_end = h_end << len(parts[4])
        kinds = (d_end - 1, t_end - d_end, n_end - t_end, h_end - n_end, r_end - h_end)
        self._table = _Positions(names, kinds)
        self._mask = r_end - 1
        # The full mask of a fresh table selects exactly the given tuples.
        self._names = parts

    @classmethod
    def _of(cls, table: _Positions, mask: int) -> "Environment":
        env = object.__new__(cls)
        env._table = table
        env._mask = mask
        env._names = None
        return env

    definitions = _names_of(ItemKind.DEFINITION)
    theorems = _names_of(ItemKind.THEOREM)
    notations = _names_of(ItemKind.NOTATION)
    hints = _names_of(ItemKind.HINT)
    reservations = _names_of(ItemKind.RESERVATION)

    @property
    def mask(self) -> int:
        """The positions present, over this environment's table."""
        return self._mask

    def kind_mask(self, kind: ItemKind) -> int:
        """The positions of ``kind`` present."""
        return self._mask & self._table.kinds[_SLOT[kind]]

    def with_mask(self, mask: int) -> "Environment":
        """The environment over the same table with positions ``mask``."""
        return Environment._of(self._table, mask)

    def _names_at(self, slot: int) -> tuple[str, ...]:
        if self._names is not None:
            return self._names[slot]
        bits = self._mask & self._table.kinds[slot]
        return tuple(compress(self._table.names, _bit_selectors(bits))) if bits else ()

    def names(self, kind: ItemKind) -> tuple[str, ...]:
        return self._names_at(_SLOT[kind])

    def contains(self, kind: ItemKind, name: str) -> bool:
        pos = self._table.index.get(name)
        return pos is not None and self.kind_mask(kind) >> pos & 1 == 1

    def size(self) -> int:
        return self._mask.bit_count()

    def all_names(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(self._key()))

    def replace_kind(self, kind: ItemKind, names: Iterable[str]) -> "Environment":
        """``kind``'s names replaced by ``names``, which must be names of
        that kind in this environment's table; they keep table order."""
        names = tuple(names)
        bits = self._table.mask_of(names)
        kind_bits = self._table.kinds[_SLOT[kind]]
        if bits & ~kind_bits or bits.bit_count() != len(names):
            raise ValueError(f"not all {KIND_FIELDS[kind]} of this table: {names}")
        return Environment._of(self._table, self._mask & ~kind_bits | bits)

    def restrict(self, keep: frozenset[str] | set[str]) -> "Environment":
        """Only the present names that are in ``keep``."""
        return Environment._of(self._table, self._mask & self._table.mask_of(keep))

    def is_subenv_of(self, other: "Environment") -> bool:
        """Per-kind subset (membership only; both sides keep corpus order)."""
        if self._table is other._table:
            return not self._mask & ~other._mask
        return all(
            set(self._names_at(slot)) <= set(other._names_at(slot)) for slot in range(len(_SLOT))
        )

    def _key(self) -> tuple[tuple[str, ...], ...]:
        """The names per kind, in ``_SLOT`` order."""
        return self._names or tuple(map(self._names_at, range(len(_SLOT))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Environment):
            return False
        if self._table is other._table:
            return self._mask == other._mask
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{attr}={list(names)}"
            for attr, names in zip(KIND_FIELDS.values(), self._key())
            if names
        )
        return f"Environment({parts})"


@dataclass(frozen=True, slots=True)
class CheckOutcome:
    """Checker verdict; ``trace`` is populated only for accepted trace runs."""

    accepted: bool
    reason: RejectReason | None = None
    trace: tuple[DepEdge, ...] = ()


def _tokenize(text: str, source_file: str) -> tuple[list[str], list[int]]:
    """The tokens of ``text`` and, in a parallel list, the line of each."""
    tokens: list[str] = []
    lines: list[int] = []
    line = 1
    for token, line_break, stray in _TOKEN_RE.findall(text):
        if token:
            tokens.append(token)
            lines.append(line)
        elif line_break:
            line += 1
        elif stray:
            raise ParseError(f"unexpected character {stray!r}", source_file, line)
    return tokens, lines


def _tokens(text: str, source_file: str) -> list[str]:
    """The tokens of ``text``, as ``_tokenize`` gives them, without lines.

    Comments are cut, then one ``findall`` lists the tokens.  At each
    position both scans try a token first, so they list the same tokens
    unless some character that is neither a blank nor in a comment starts
    no token, which ``_tokenize`` reports as stray.  Such a character is
    counted by ``str.split``, which splits at the blanks the regex skips
    (``str.isspace``), and by no token, so the text is clean exactly when
    the tokens' lengths sum to those of its blank-separated words.
    Otherwise ``_tokenize`` raises at the stray character's line.  Both
    tests are linear in the text.
    """
    code = _COMMENT_RE.sub("", text) if "#" in text else text
    tokens = _TOKENS_ONLY_RE.findall(code)
    if sum(map(len, tokens)) == sum(map(len, code.split())):
        return tokens
    return _tokenize(text, source_file)[0]


def file_tag(relpath: str) -> str:
    """Stable identifier fragment derived from a corpus-relative path."""
    stem = relpath[: -len(ART_SUFFIX)] if relpath.endswith(ART_SUFFIX) else relpath
    return re.sub(r"[^A-Za-z0-9]+", "_", stem).strip("_")


def _label_tags(relpaths: Sequence[str]) -> list[str]:
    """The fresh-label tag of each of a corpus's paths, in path order.

    A path's tag is its ``file_tag``, except that the second, third and
    later paths with one ``file_tag`` (``a_b.art`` after ``a-b.art``, say)
    append ``__2``, ``__3`` and so on.  No ``file_tag`` holds ``__``, so the
    tags are distinct, and tags that do not collide are left alone.
    """
    seen: dict[str, int] = {}
    tags = []
    for rel in relpaths:
        tag = file_tag(rel)
        seen[tag] = seen.get(tag, 0) + 1
        tags.append(tag if seen[tag] == 1 else f"{tag}__{seen[tag]}")
    return tags


# The keywords that start an item; ``thm`` after ``then`` is in the same item.
_ITEM_KEYWORDS = frozenset({"def", "thm", "then", "notation", "hint", "reserve"})

# The tokens at which no name can stand: the non-names and end of file.
_STOPS = _NOT_NAMES | {None}

_OPACITIES = {opacity.value: opacity for opacity in Opacity}


def _token_line(text: str, pos: int, source_file: str) -> int:
    """The line of token ``pos`` of ``text``, a clean file; past the end,
    the line of the last token.  Lines are computed here, for errors only."""
    lines = _tokenize(text, source_file)[1]
    return lines[min(pos, len(lines) - 1)] if lines else 1


def _parse_error(message: str, text: str, pos: int, source_file: str) -> ParseError:
    """``message`` at the line of token ``pos`` of ``text`` (``_token_line``)."""
    return ParseError(message, source_file, _token_line(text, pos, source_file))


def _found(tok: str | None, what: str) -> str:
    """The message for ``tok`` where ``what`` was expected."""
    return "unexpected end of file" if tok is None else f"expected {what}, found {tok!r}"


def _reserved(tok: str) -> str:
    """The message for a name in the reserved namespace that is not a fresh
    label of its file."""
    return f"identifier {tok!r} uses the reserved {FRESH_PREFIX!r} label namespace"


def _name_message(tok: str | None, what: str) -> str:
    """The message for ``tok`` where a name (``what``) was expected: a
    non-name, end of file, or a label outside the file's fresh labels."""
    return _found(tok, what) if tok in _STOPS else _reserved(tok)


def _fresh_label_index(name: str, tag: str) -> int | None:
    """The counter of a fresh label ``__n<digits>_<tag>``, else None."""
    digits = name[len(FRESH_PREFIX) : len(name) - len(tag) - 1]
    ok = name.startswith(FRESH_PREFIX) and name.endswith("_" + tag) and digits.isdecimal()
    return int(digits) if ok else None


def parse_source(text: str, source_file: str = "memory.art") -> list[Item]:
    """Parse one file's source into items (names assigned, order preserved)."""
    return _parse_file(text, source_file, file_tag(source_file))


def _parse_file(text: str, source_file: str, tag: str) -> list[Item]:
    """``parse_source`` with the fresh-label tag given.

    Recursive descent flattened into one loop over the file's tokens with a
    local index: each turn parses one item, or opens a ``defblock``, whose
    members the following turns parse until its ``}``.  The token list ends
    in ``None`` for end of file, which no branch steps past.  A token with
    the reserved prefix that is not a fresh label of this file is in
    ``bad``, found once per file.  A name position rejects the tokens of
    ``stops``, the non-names and ``bad``; a run of names ends at the first
    of them, an error when it is in ``bad``.  Anonymous theorems are named
    after the loop, skipping the fresh labels the file uses.  A name
    declared twice raises ``DuplicateNameError`` at the line of its second
    name token, once the whole file has parsed.  Tokens carry no lines: an
    error computes its line from the token's position (``_token_line``).
    """
    tokens = _tokens(text, source_file)
    labels = FRESH_PREFIX in text  # else no token has the reserved prefix
    bad = {
        tok
        for tok in (set(tokens) if labels else ())
        if tok.startswith(FRESH_PREFIX) and _fresh_label_index(tok, tag) is None
    }
    stops = _STOPS | bad
    tokens.append(None)
    items: list[Item] = []
    named: set[str] = set()
    duplicate = None  # the first name declared twice, and its second token's position
    anonymous_at: list[int] = []
    used: set[int] = set()  # the counters of the file's fresh labels
    block = None  # the open defblock's id
    blocks = block_start = pos = 0
    while True:
        tok = tokens[pos]
        if block is not None:
            if tok == "}":
                if len(items) == block_start:
                    raise _parse_error("empty defblock", text, pos, source_file)
                pos += 1
                block = None
                continue
            if tok != "def":
                raise _parse_error("defblock may only contain definitions", text, pos, source_file)
        elif tok is None:
            break
        elif tok == "defblock":
            pos += 1
            if tokens[pos] != "{":
                raise _parse_error(_found(tokens[pos], "'{'"), text, pos, source_file)
            pos += 1
            block = blocks
            blocks += 1
            block_start = len(items)
            continue

        # The item's keyword, then opacity and what its name token is.
        stmt: list[str] = []
        body: list[str] = []
        free_vars: list[str] = []
        reserved: tuple[str, ...] = ()
        by_refs: tuple[str, ...] = ()
        by_auto = anonymous = linked = False
        opacity = Opacity.TRANSPARENT
        if tok == "def":
            kind, what = ItemKind.DEFINITION, "definition name"
            pos += 1
            if tokens[pos] in _OPACITIES:
                opacity = _OPACITIES[tokens[pos]]
                pos += 1
        elif tok == "thm" or tok == "then":
            kind, what = ItemKind.THEOREM, "theorem name"
            if tok == "then":
                pos += 1
                linked = True
                if tokens[pos] != "thm":
                    raise _parse_error("'then' may only prefix a theorem", text, pos, source_file)
            pos += 1
            opacity = _OPACITIES.get(tokens[pos], Opacity.OPAQUE)
            if tokens[pos] in _OPACITIES:
                pos += 1
            anonymous = tokens[pos] in _STOPS
        elif tok == "notation":
            kind, what = ItemKind.NOTATION, "notation name"
            pos += 1
        elif tok == "hint":
            kind, what = ItemKind.HINT, "hint name"
            pos += 1
        elif tok == "reserve":
            kind, what = ItemKind.RESERVATION, "reserved variable"
            pos += 1
        else:
            raise _parse_error(_found(tok, "an item keyword"), text, pos, source_file)

        name = ""
        if not anonymous:
            name = tokens[pos]
            if name in stops:
                raise _parse_error(_name_message(name, what), text, pos, source_file)
            if name in named:
                duplicate = duplicate or (name, pos)
            named.add(name)
            if labels and name.startswith(FRESH_PREFIX):
                used.add(_fresh_label_index(name, tag))
            pos += 1

        # The rest of the item, up to its ``;``.
        if kind is ItemKind.DEFINITION:
            if tokens[pos] == ":":
                start = pos = pos + 1
                while tokens[pos] not in stops:
                    pos += 1
                if tokens[pos] in bad:
                    raise _parse_error(_reserved(tokens[pos]), text, pos, source_file)
                stmt = tokens[start:pos]
            if tokens[pos] != ":=":
                raise _parse_error(_found(tokens[pos], "':='"), text, pos, source_file)
            start = pos = pos + 1
            while tokens[pos] not in stops or tokens[pos] == "lit":
                pos += 1
            tok = tokens[pos]
            if tok is None:
                raise _parse_error("unterminated definition body", text, pos, source_file)
            if tok in bad:
                raise _parse_error(_reserved(tok), text, pos, source_file)
            if tok != ";":
                message = f"unexpected token {tok!r} in definition body"
                raise _parse_error(message, text, pos, source_file)
            body = [tok for tok in tokens[start:pos] if tok != "lit"]
        elif kind is ItemKind.THEOREM:
            if tokens[pos] != ":":
                raise _parse_error(_found(tokens[pos], "':'"), text, pos, source_file)
            pos += 1
            tok = tokens[pos]
            while tok == "uses" or tok == "var":
                pos += 1
                ref = tokens[pos]
                if ref in stops:
                    what = "symbol after 'uses'" if tok == "uses" else "variable after 'var'"
                    raise _parse_error(_name_message(ref, what), text, pos, source_file)
                (stmt if tok == "uses" else free_vars).append(ref)
                pos += 1
                tok = tokens[pos]
            if tok == "by":
                pos += 1
                tok = tokens[pos]
                if tok == "auto":
                    pos += 1
                    by_auto = True
                    if linked:
                        message = "'then' cannot be combined with 'by auto'"
                        raise _parse_error(message, text, pos, source_file)
                else:
                    start = pos
                    while tokens[pos] not in stops:
                        pos += 1
                    if tokens[pos] in bad:
                        raise _parse_error(_reserved(tokens[pos]), text, pos, source_file)
                    if pos == start:
                        message = "'by' requires 'auto' or at least one reference"
                        raise _parse_error(message, text, pos, source_file)
                    by_refs = tuple(dict.fromkeys(tokens[start:pos]))
        elif kind is ItemKind.NOTATION:
            if tokens[pos] != "for":
                raise _parse_error(_found(tokens[pos], "'for'"), text, pos, source_file)
            pos += 1
            tok = tokens[pos]
            if tok in stops:
                raise _parse_error(_name_message(tok, "notation target"), text, pos, source_file)
            stmt.append(tok)
            pos += 1
        elif kind is ItemKind.HINT:
            if tokens[pos] != "uses":
                raise _parse_error(_found(tokens[pos], "'uses'"), text, pos, source_file)
            start = pos = pos + 1
            while tokens[pos] not in stops:
                pos += 1
            if pos == start or tokens[pos] in bad:
                message = _name_message(tokens[pos], "symbol in hint")
                raise _parse_error(message, text, pos, source_file)
            stmt = tokens[start:pos]
        else:
            names = [name]
            while tokens[pos] == ",":
                pos += 1
                tok = tokens[pos]
                if tok in stops:
                    raise _parse_error(_name_message(tok, what), text, pos, source_file)
                names.append(tok)
                pos += 1
            if tokens[pos] != ":":
                raise _parse_error(_found(tokens[pos], "':'"), text, pos, source_file)
            pos += 1
            tok = tokens[pos]
            if tok in stops:
                message = _name_message(tok, "reservation type symbol")
                raise _parse_error(message, text, pos, source_file)
            stmt.append(tok)
            pos += 1
            reserved = tuple(dict.fromkeys(names))
            if len(reserved) != len(names):
                raise _parse_error("repeated variable in reservation", text, pos, source_file)
        if tokens[pos] != ";":
            raise _parse_error(_found(tokens[pos], "';'"), text, pos, source_file)
        pos += 1

        if anonymous:
            anonymous_at.append(len(items))
        items.append(
            Item(
                name, kind, tuple(dict.fromkeys(stmt)), tuple(dict.fromkeys(body)),
                tuple(dict.fromkeys(free_vars)), reserved, by_refs, by_auto, opacity,
                source_file, len(items), anonymous, linked, block,
            )
        )

    if duplicate is not None:
        name, pos = duplicate
        line = _token_line(text, pos, source_file)
        raise DuplicateNameError(name, source_file, source_file, line=line)
    # Fresh labels cannot collide with a declared name: the counter skips
    # every label the file declares.
    counter = 0
    for at in anonymous_at:
        while counter in used:
            counter += 1
        used.add(counter)
        items[at] = replace(items[at], name=f"{FRESH_PREFIX}{counter}_{tag}")
    return items


class Corpus:
    """An immutable, ordered collection of items with name-based lookup.

    Corpus order (file path order, then position in file) is the canonical
    topological order: accepted items only ever resolve names introduced
    earlier.  Parser and checker never mutate the corpus, so instances are
    safe to share across threads.  The position table of its environments
    and the checker's indexes are built once, in the constructor.
    """

    def __init__(self, items: Sequence[Item]):
        self.items: tuple[Item, ...] = tuple(items)
        self._order: dict[str, int] = {}  # each name's corpus position
        kinds = [0] * len(_SLOT)
        # Each position's kind slot, and per cut 0..len(items) the number of
        # positions of each kind below it, five entries per cut by slot: so
        # ``_kind_counts[5 * pos + slot]`` is the index of ``pos`` among the
        # positions of its kind.
        slot_at = bytearray()
        counts = [0] * len(_SLOT)
        kind_counts: list[int] = []
        # Checker indexes: in corpus order, the positions of the reservations
        # covering each variable and of the hints mentioning each symbol.
        self._reserving: dict[str, list[int]] = {}
        self._hinting: dict[str, list[int]] = {}
        for idx, item in enumerate(self.items):
            prev = self._order.get(item.name)
            if prev is not None:
                raise DuplicateNameError(item.name, self.items[prev].source_file, item.source_file)
            self._order[item.name] = idx
            slot = _SLOT[item.kind]
            kinds[slot] |= 1 << idx
            slot_at.append(slot)
            kind_counts += counts
            counts[slot] += 1
            if item.kind is ItemKind.HINT:
                for sym in item.statement_symbols:
                    self._hinting.setdefault(sym, []).append(idx)
            for var in item.reserved_vars:
                self._reserving.setdefault(var, []).append(idx)
        # Position ``len(items)``, where the checker's rules put a name that
        # resolves nowhere, has a slot of no kind: no mask holds it.
        slot_at.append(len(_SLOT))
        self._slot_at = bytes(slot_at)
        self._kind_counts = kind_counts + counts
        self._table = _Positions(tuple(self._order), tuple(kinds), self._order)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __contains__(self, name: str) -> bool:
        return name in self._order

    def item(self, name: str) -> Item:
        return self.items[self._order[name]]

    def get(self, name: str) -> Item | None:
        pos = self._order.get(name)
        return None if pos is None else self.items[pos]

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
        """Everything declared before position ``index`` (slice semantics):
        the prefix mask over the corpus table."""
        _, stop, _ = slice(index).indices(len(self.items))
        return Environment._of(self._table, (1 << stop) - 1)

    def _kind_counts_below(self, cut: int) -> list[int]:
        """Per kind slot, the number of positions of that kind below ``cut``."""
        return self._kind_counts[5 * cut : 5 * cut + 5]

    def _index_reads(
        self, reads: dict[int, int], cut: int, positions: list[int] | None
    ) -> tuple[list[int], list[list[tuple[int, int]]]]:
        """The positions held, per kind slot: how many of that kind, and
        ``(index, local bit)`` of each position of ``reads`` held, by
        ascending index, ``index`` being its index among the positions
        held of its kind.

        The positions held are ``positions``, ascending, or when it is None
        every position below ``cut``, whose counts and indices are read from
        ``_kind_counts``, so nothing is listed.
        """
        slot_at = self._slot_at
        held: list[list[tuple[int, int]]] = [[] for _ in _SLOT]
        if positions is None:
            kind_counts = self._kind_counts
            for pos, local in reads.items():
                if pos < cut:
                    slot = slot_at[pos]
                    held[slot].append((kind_counts[5 * pos + slot], local))
            for kind_held in held:
                kind_held.sort()
            return self._kind_counts_below(cut), held
        counts = [0] * len(_SLOT)
        for pos in positions:
            slot = slot_at[pos]
            local = reads.get(pos)
            if local is not None:
                held[slot].append((counts[slot], local))
            counts[slot] += 1
        return counts, held

    # Checker -------------------------------------------------------------

    def _rules(self, item: Item) -> tuple[list[tuple[int, RejectReason]], list, list[int] | None]:
        """``item``'s checks as corpus positions, in the order of
        ``check_item``.  A name resolves through the name index and the slot
        of its position; one that resolves nowhere, or to an item of another
        kind, gets position ``len(self)``, which no corpus mask holds.

        * ``needs``: one ``(position, reason)`` per statement and body
          symbol (its notation's position and ``MISSING_NOTATION`` for a
          notation token, else ``UNRESOLVED_SYMBOL``), then one per ``by``
          reference (``BAD_JUSTIFICATION``);
        * ``covers``: per free variable, the positions of the reservations
          covering it and, in corpus order, one ``(position,
          type_position)`` per such reservation whose type symbol resolves;
        * ``hints``: for ``by auto``, the positions of the hints sharing a
          symbol with the statement, ascending; None otherwise.
        """
        order, slot_at, never = self._order, self._slot_at, len(self.items)
        # Symbols resolve to definitions and theorems, whose slots lie below it.
        notation = _SLOT[ItemKind.NOTATION]
        unresolved, bad = RejectReason.UNRESOLVED_SYMBOL, RejectReason.BAD_JUSTIFICATION
        needs = []
        for ref in item.statement_symbols + item.body_symbols:
            pos = order.get(ref, never)
            slot = slot_at[pos]
            if slot < notation:
                needs.append((pos, unresolved))
            elif slot == notation:
                needs.append((pos, RejectReason.MISSING_NOTATION))
            else:
                needs.append((never, unresolved))
        for ref in item.by_refs:
            pos = order.get(ref, never)
            needs.append((pos if slot_at[pos] < notation else never, bad))
        covers = []
        for var in item.free_vars:
            covering = self._reserving.get(var, ())
            pairs = []
            for pos in covering:
                type_at = order.get(self.items[pos].statement_symbols[0], never)
                if slot_at[type_at] < notation:
                    pairs.append((pos, type_at))
            covers.append((covering, pairs))
        hints = None
        if item.by_auto:
            hints = sorted(
                {pos for sym in item.statement_symbols for pos in self._hinting.get(sym, ())}
            )
        return needs, covers, hints

    def check_item(self, item: Item, env: Environment, trace_requested: bool = False) -> CheckOutcome:
        """Decide whether ``item`` verifies under ``env``.

        Acceptance requires, in this fixed order: (a) every statement and
        body symbol resolves to a definition or theorem in ``env`` (tokens
        naming a notation instead require that notation to be present), (b)
        every ``by`` reference resolves to a definition or theorem, (c)
        every free variable is covered by some reservation in ``env`` whose
        type symbol itself resolves, and (d) an ``auto`` justification finds
        at least one hint in ``env`` sharing a symbol with the statement.
        Rejection is reported as a verdict with the reason of the first
        failing check, never as an exception: a variable with a covering
        reservation but none whose type resolves is ``UNRESOLVED_SYMBOL``,
        one with no covering reservation ``MISSING_RESERVATION``.  A trace
        lists the names resolved, first seen first: the symbols and
        references, then per variable the first reservation in corpus order
        whose type resolves and that type, then every applicable hint in
        corpus order.

        The checks are the item's ``_rules``, whose positions ``_check``
        bit-tests in ``env`` as a mask over the corpus table (``_bits_of``);
        ``accepts`` and the minimizer compile the same rules.  The trace is
        collected as positions, only when it is requested, and its edges are
        built from them by ``dep_edges``.
        """
        reason, resolved = self._check(self._rules(item), self._bits_of(env), trace_requested)
        if reason is not None:
            return CheckOutcome(False, reason, ())
        return CheckOutcome(True, None, self.dep_edges(item, resolved) if trace_requested else ())

    @staticmethod
    def _check(rules, bits: int, trace: bool) -> tuple[RejectReason | None, list[int]]:
        """The verdict of ``rules`` (``_rules``) on ``bits``, a mask over the
        corpus table: the reason of the first failing check, or None and,
        when ``trace``, the positions resolved, first seen first (see
        ``check_item``); else no positions."""
        needs, covers, hints = rules
        for pos, reason in needs:
            if not bits >> pos & 1:
                return reason, []
        witnesses = []
        for covering, pairs in covers:
            for pos, type_at in pairs:
                if bits >> pos & 1 and bits >> type_at & 1:
                    witnesses += pos, type_at
                    break
            else:
                if any(bits >> pos & 1 for pos in covering):
                    return RejectReason.UNRESOLVED_SYMBOL, []
                return RejectReason.MISSING_RESERVATION, []
        if hints is not None and not any(bits >> pos & 1 for pos in hints):
            return RejectReason.NO_APPLICABLE_HINT, []
        if not trace:
            return None, []
        resolved = [pos for pos, _ in needs] + witnesses
        if hints is not None:
            # Deliberately exhaustive: every applicable hint is a dependency.
            resolved += [pos for pos in hints if bits >> pos & 1]
        return None, list(dict.fromkeys(resolved))

    def dep_records(self, item: Item, positions: Iterable[int]) -> tuple[list[str], list[int]]:
        """Per edge from ``item`` to the item at each of ``positions``, in
        the order given, the target's name and the edge's flag bits
        (``_flag_bits``): explicit when the target occurs literally in the
        item's source, with the target's opacity."""
        literal = item.literal_names()
        items, transparent = self.items, Opacity.TRANSPARENT
        names, flags = [], []
        for pos in positions:
            target = items[pos]
            names.append(target.name)
            flags.append((target.name in literal) | (target.opacity is transparent) << 1)
        return names, flags

    def dep_edges(self, item: Item, positions: Iterable[int]) -> tuple[DepEdge, ...]:
        """One ``DepEdge`` per record of ``dep_records``, for ``check_item``'s
        trace."""
        src = item.name
        return tuple(
            DepEdge(src, name, _VISIBILITY_OF[bits & 1], _OPACITY_OF[bits >> 1])
            for name, bits in zip(*self.dep_records(item, positions))
        )

    def accepts(self, item: Item, env: Environment) -> bool:
        """Verdict-only check: the compiled check (``_compile_local``) of
        the local bits of the read positions that ``env`` holds."""
        bits = self._bits_of(env)
        reads, _, verifies = self._compile_local(item)
        state = 0
        for pos, local in reads.items():
            if bits >> pos & 1:
                state |= local
        return verifies(state)

    def _compile_local(self, item: Item) -> tuple[dict[int, int], int, Callable[[int], bool]]:
        """``item``'s verdict over local bits: ``_compile`` of its ``_rules``."""
        return self._compile(self._rules(item))

    def _compile(self, rules) -> tuple[dict[int, int], int, Callable[[int], bool]]:
        """A verdict over local bits, ``(reads, required, verifies)``, of
        ``rules`` (an item's ``_rules``).

        Each position that the rules read gets one local bit, and ``reads``
        maps the position to it.  The rules become ``required``, the local
        bits of every ``needs`` position, one list of (reservation, type)
        pair masks per free variable, and the ``by auto`` hints mask.
        ``verifies(state)`` is true when ``state``, the local bits of the
        read positions present, holds all of ``required``, all of one pair
        per variable, and for ``by auto`` some hint: the verdict of
        ``check_item`` on any environment holding exactly those read
        positions.  A name that resolves nowhere gets a required local bit
        at position ``len(self)``, which is then dropped from ``reads``, so
        no state holds it.
        """
        needs, covers, hints = rules
        local: dict[int, int] = {}  # position -> local bit, in first-read order
        for pos, _ in needs:
            if pos not in local:
                local[pos] = 1 << len(local)
        required = (1 << len(local)) - 1
        pairs = []
        for _, var_pairs in covers:
            pairs.append([])
            for pos, type_at in var_pairs:
                if pos not in local:
                    local[pos] = 1 << len(local)
                if type_at not in local:
                    local[type_at] = 1 << len(local)
                pairs[-1].append(local[pos] | local[type_at])
        hint_bits = None
        if hints is not None:
            hint_bits = 0
            for pos in hints:
                if pos not in local:
                    local[pos] = 1 << len(local)
                hint_bits |= local[pos]
        local.pop(len(self.items), None)  # the position of names that resolve nowhere

        def verifies(state: int) -> bool:
            if state & required != required:
                return False
            for var_pairs in pairs:
                for pair in var_pairs:
                    if state & pair == pair:
                        break
                else:
                    return False
            return hint_bits is None or state & hint_bits != 0

        return local, required, verifies

    def _bits_of(self, env: Environment) -> int:
        """``env`` as a mask over the corpus table: each present name at
        its corpus position, if the corpus has it under the same kind."""
        if env._table is self._table:
            return env._mask
        order = self._order
        bits = 0
        for names, kind_bits in zip(env._key(), self._table.kinds):
            if names:
                found = 0
                for name in names:
                    pos = order.get(name)
                    if pos is not None:
                        found |= 1 << pos
                bits |= found & kind_bits
        return bits


def source_relpaths(root: str | Path) -> list[str]:
    """Sorted posix paths, relative to ``root``, of the ``.art`` files under it.

    These are the files ``parse_corpus`` reads: symlinked directories are not
    descended, symlinked files are listed, and a directory that cannot be
    listed (a missing ``root`` too) holds none, as under ``os.walk``.  An
    ``.art`` entry that is not a file, such as a dangling symlink, is an
    error that names it.  Entry types come from the directory listing, so a
    plain file costs no ``stat``.
    """
    relpaths = []
    prefixes = [""]
    for prefix in prefixes:
        try:
            entries = list(os.scandir(os.path.join(root, prefix)))
        except OSError:
            continue
        for entry in entries:
            if entry.is_dir():
                if not entry.is_symlink():
                    prefixes.append(f"{prefix}{entry.name}/")
            elif entry.name.endswith(ART_SUFFIX):
                if not entry.is_file():
                    raise DepkitError(f"{entry.path}: source entry is not a readable file")
                relpaths.append(prefix + entry.name)
    relpaths.sort()
    return relpaths


def item_line(root: str | Path, item: Item) -> int | None:
    """The line of ``item``'s first token in its source file under
    ``root``, or None when that file no longer holds it.

    The file is tokenized again with lines, and the item is the
    ``index_in_file``-th item keyword (``then`` starts its theorem), so
    this is for naming an item of a parsed corpus in an error, not for the
    load path.
    """
    try:
        with open(os.path.join(root, item.source_file), "rb") as source:
            tokens, lines = _tokenize(source.read().decode("utf-8"), item.source_file)
    except (OSError, UnicodeDecodeError, ParseError):
        return None
    starts = [
        line
        for at, (tok, line) in enumerate(zip(tokens, lines))
        if tok in _ITEM_KEYWORDS and not (tok == "thm" and at and tokens[at - 1] == "then")
    ]
    return starts[item.index_in_file] if item.index_in_file < len(starts) else None


def write_bytes(path: str | Path, data: bytes) -> None:
    """Create or truncate the file at ``path`` and write ``data``: one
    ``os.open``, ``os.write`` until all of it is written, and one
    ``os.close``, with no buffered file object, which is much of the cost
    of writing many small files."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


def parse_corpus(root: str | Path) -> Corpus:
    """Parse every ``.art`` file under ``root`` (path order, then position).

    Anonymous items get fresh labels with the tags of ``_label_tags``, so
    files whose paths give one ``file_tag`` still get distinct labels.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {root}")
    relpaths = source_relpaths(root)
    items: list[Item] = []
    for rel, tag in zip(relpaths, _label_tags(relpaths)):
        with open(os.path.join(root, rel), "rb") as source:
            data = source.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ParseError("not valid UTF-8", rel, data.count(b"\n", 0, err.start) + 1) from None
        items.extend(_parse_file(text, rel, tag))
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
