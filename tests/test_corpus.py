"""Parser and checker behavior, including the documented semantic guarantees."""

from __future__ import annotations

import dataclasses
import inspect
import random
import re
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depkit.corpus import (
    KEYWORDS,
    Corpus,
    DepEdge,
    Environment,
    Item,
    ItemKind,
    Opacity,
    RejectReason,
    Visibility,
    _fresh_label_index,
    _parse_file,
    _tokenize,
    bit_positions,
    file_tag,
    item_line,
    parse_corpus,
    parse_source,
    render_file,
    render_item,
)
from depkit.errors import DuplicateNameError, ParseError
from depkit.gen import FAMILIES, generate_corpus

from _oracles import NaiveEnv, naive_check, parse_by_descent, tokenize_by_lines
from conftest import corpus_from

# One row per grammar production: source line -> the item fields it must yield.
GRAMMAR_TABLE = [
    (
        "def f : nat := lit;",
        dict(name="f", kind=ItemKind.DEFINITION, statement_symbols=("nat",),
             body_symbols=(), justification=None, opacity=Opacity.TRANSPARENT),
    ),
    (
        "def opaque k := v w;",
        dict(name="k", kind=ItemKind.DEFINITION, statement_symbols=(),
             body_symbols=("v", "w"), opacity=Opacity.OPAQUE),
    ),
    (
        "def plain := lit;",
        dict(name="plain", kind=ItemKind.DEFINITION, statement_symbols=(), body_symbols=()),
    ),
    (
        "thm t : uses f by auto;",
        dict(name="t", kind=ItemKind.THEOREM, statement_symbols=("f",),
             justification="auto", opacity=Opacity.OPAQUE),
    ),
    (
        "thm transparent u : uses f uses g var x by f g;",
        dict(name="u", kind=ItemKind.THEOREM, statement_symbols=("f", "g"),
             free_vars=("x",), justification=("f", "g"), opacity=Opacity.TRANSPARENT),
    ),
    (
        "thm bare : ;",
        dict(name="bare", kind=ItemKind.THEOREM, statement_symbols=(), justification=None),
    ),
    (
        "notation oplus for plus;",
        dict(name="oplus", kind=ItemKind.NOTATION, statement_symbols=("plus",)),
    ),
    (
        "hint h uses f g;",
        dict(name="h", kind=ItemKind.HINT, statement_symbols=("f", "g")),
    ),
    (
        "reserve x : t;",
        dict(name="x", kind=ItemKind.RESERVATION, statement_symbols=("t",),
             reserved_vars=("x",)),
    ),
    (
        "reserve a, b, c : t;",
        dict(name="a", kind=ItemKind.RESERVATION, reserved_vars=("a", "b", "c")),
    ),
    (
        "then thm w : uses p;",
        dict(name="w", kind=ItemKind.THEOREM, linked=True, statement_symbols=("p",)),
    ),
    (
        "thm : uses p;",
        dict(name="__n0_table", kind=ItemKind.THEOREM, anonymous=True),
    ),
]


@pytest.mark.parametrize("source,expected", GRAMMAR_TABLE, ids=[s for s, _ in GRAMMAR_TABLE])
def test_grammar_table_round_trip(source, expected):
    (item,) = parse_source(source, "table.art")
    for field_name, value in expected.items():
        assert getattr(item, field_name) == value, field_name


def test_defblock_members_are_items():
    items = parse_source(
        "defblock { def p := lit; def q : p := lit; }\ndef r := lit;\n"
        "defblock { def s := lit; }\ndefblock { def t := lit; }\n",
        "blk.art",
    )
    assert [it.name for it in items] == ["p", "q", "r", "s", "t"]
    assert [it.block_id for it in items] == [0, 0, None, 1, 2]
    assert [it.index_in_file for it in items] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("cls", [Item, DepEdge])
def test_hand_written_inits_match_the_dataclass_fields(cls):
    """Each hand-written ``__init__`` takes the fields, in order, with their
    defaults, and sets every one; instances stay frozen and ``replace``
    rebuilds them."""
    fields = dataclasses.fields(cls)
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [f.name for f in fields]
    assert [p.default for p in params] == [
        inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        for f in fields
    ]
    values = [f"v{i}" for i in range(len(fields))]
    obj = cls(*values)
    assert [getattr(obj, f.name) for f in fields] == values
    assert dataclasses.replace(obj, **{fields[0].name: "other"}) == cls("other", *values[1:])
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, fields[0].name, "other")


def test_parse_corpus_orders_files_then_positions(tmp_path):
    (tmp_path / "b.art").write_text("def later := lit;\n")
    (tmp_path / "a.art").write_text("def first := lit;\ndef second := lit;\n")
    corpus = parse_corpus(tmp_path)
    assert [it.name for it in corpus.items] == ["first", "second", "later"]
    assert [it.index_in_file for it in corpus.items] == [0, 1, 0]


def test_parse_corpus_finds_art_files_in_posix_relpath_order(tmp_path):
    """Nested directories in posix relpath order; a directory named like a
    source is not read as one (its files are) and a file of another suffix
    is skipped; a symlinked directory is not descended and a symlinked
    source file is read."""
    root, outside = tmp_path / "corpus", tmp_path / "outside"
    (root / "b" / "c").mkdir(parents=True)
    (root / "b" / "c" / "z.art").write_text("def in_bc := lit;\n")
    (root / "b" / "a.art").write_text("def in_b := lit;\n")
    (root / "b.art").write_text("def top_b := lit;\n")
    (root / "a-b.art").write_text("def top_a_dash := lit;\n")
    (root / "x.art").mkdir()
    (root / "x.art" / "inside.art").write_text("def inside_x := lit;\n")
    (root / "notes.txt").write_text("def ignored := lit;\n")
    outside.mkdir()
    (outside / "far.art").write_text("def far := lit;\n")
    (root / "linked_dir").symlink_to(outside, target_is_directory=True)
    (root / "linked.art").symlink_to(outside / "far.art")
    corpus = parse_corpus(root)
    # Sorted as strings: "." sorts before "/".
    assert corpus.files() == (
        "a-b.art", "b.art", "b/a.art", "b/c/z.art", "linked.art", "x.art/inside.art"
    )
    assert [it.name for it in corpus.items] == [
        "top_a_dash", "top_b", "in_b", "in_bc", "far", "inside_x"
    ]


def test_duplicate_name_in_one_file_names_its_second_line():
    with pytest.raises(DuplicateNameError) as exc:
        parse_source("def f := lit;\n\ndef f := lit;", "a.art")
    assert str(exc.value) == "a.art:3: duplicate item name 'f' (first in a.art, again in a.art)"
    assert (exc.value.name, exc.value.first_file, exc.value.second_file) == ("f", "a.art", "a.art")
    assert exc.value.line == 3
    with pytest.raises(DuplicateNameError, match=r"^a\.art:4: duplicate item name 'f'"):
        parse_source("def f := lit;\nthm\n\nf : ;", "a.art")


def test_duplicate_name_across_files_is_an_error(tmp_path):
    (tmp_path / "a.art").write_text("def f := lit;\n")
    (tmp_path / "b.art").write_text("def f := lit;\n")
    with pytest.raises(DuplicateNameError) as exc:
        parse_corpus(tmp_path)
    assert exc.value.name == "f"
    assert exc.value.first_file == "a.art"
    assert exc.value.second_file == "b.art"


@pytest.mark.parametrize(
    "bad",
    [
        "def f = lit;",          # wrong assignment token
        "thm t uses f;",         # missing colon
        "def f := lit",          # missing terminator
        "hint h uses;",          # hints need at least one symbol
        "notation n for;",       # missing target
        "reserve : t;",          # missing variable
        "def __n0_elsewhere := lit;",  # reserved label namespace of another file
        "defblock { thm t : ; }",  # only defs allowed inside blocks
        "then def d := lit;",    # then only prefixes theorems
        "then thm t : uses f by auto;",  # link and auto cannot combine
        "def f := lit; def f := lit;",   # duplicate within one file
        "thm t : uses f by;",    # by needs auto or references
        "def f : ~ := lit;",     # stray character
    ],
)
def test_syntax_errors(bad):
    with pytest.raises((ParseError, DuplicateNameError)):
        parse_source(bad, "bad.art")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_source("def ok := lit;\ndef broken : ;\n", "pos.art")
    assert exc.value.source_file == "pos.art"
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "source,error",
    [
        ("defblock { }\ndef f := lit;\n", "x.art:1: empty defblock"),
        ("reserve a, a : t;\n\n\ndef f := lit;\n", "x.art:1: repeated variable in reservation"),
        # At end of file, the line of the last token.
        ("def f := lit\n\n\n", "x.art:1: unterminated definition body"),
        ("# c\n\ndef f := lit\n\n", "x.art:3: unterminated definition body"),
    ],
)
def test_parse_error_names_the_line_of_the_faulty_item(source, error):
    with pytest.raises(ParseError) as exc:
        parse_source(source, "x.art")
    assert str(exc.value) == error


# Letters, digits, every punctuation character, a stray one, a non-ASCII
# letter, blanks and line breaks (\r\n and the other str.splitlines ones).
_LEXICAL_ALPHABET = "abdefz_AZ019:=;{},#~\u00e9 \t\n\r\v\f\x85\u2028"


@given(st.text(alphabet=_LEXICAL_ALPHABET, max_size=40))
@example("a\r\nb\n\rc\r\r\nd")
@example("a#b\rc\vd#\x85e\u2028~")
@example("\u00e9")
def test_tokenize_matches_the_per_line_reference(text):
    expected = tokenize_by_lines(text)
    if isinstance(expected, int):
        with pytest.raises(ParseError) as exc:
            _tokenize(text, "lex.art")
        assert exc.value.line == expected
    else:
        tokens, lines = _tokenize(text, "lex.art")
        assert list(zip(tokens, lines)) == expected
        assert len(tokens) == len(lines)


# Parser against the recursive-descent reference ------------------------------

# Single tokens: every keyword and punctuation mark, plain names, fresh labels
# of the file ``p.art`` (tag ``p``) and names in the reserved namespace that
# are not (another file's label, no digits).  Whole items make valid files
# likely; the single tokens break them at every point of the grammar.
_PARSER_TOKENS = sorted(KEYWORDS) + [":=", ":", ";", "{", "}", ","] + [
    "f", "g", "x", "__n0_p", "__n1_p", "__n0_q", "__n_p",
]
_PARSER_ITEMS = [
    "def f := lit ;", "def opaque g : f := f x ;", "thm : uses f by auto ;",
    "thm transparent t : uses f var x by f g ;", "then thm : uses g by f ;",
    "notation f for g ;", "hint g uses f x ;", "reserve x , g : f ;",
    "defblock { def f := g ; def g := lit ; }", "thm __n0_p : ;", "thm : ;",
]
_SEPARATORS = [" ", " ", "\n", "\n\n", " # note\n", "\r\n", "\u2028", "\v", "\x85", "~"]


def _parse_outcome(parse, text: str):
    """The items, or the type and full message of the error."""
    try:
        return parse(text, "p.art", "p")
    except (ParseError, DuplicateNameError) as err:
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_PARSER_TOKENS), st.sampled_from(_PARSER_ITEMS)),
            st.sampled_from(_SEPARATORS),
        ),
        max_size=14,
    )
)
@example([("def", " "), ("f", " "), (":=", "\n"), ("lit", "\n\n")])
@example([("def f := lit ;", "\n"), ("reserve x , f : g ;", "\n")])
@example([("thm : ;", " "), ("thm __n0_p : ;", " "), ("thm : ;", " ")])
@example([("defblock", " "), ("{", " "), ("}", " ")])
def test_parser_matches_the_descent_reference(parts):
    """On token sequences, valid or not: the same items, or the same error
    type and message, line included."""
    text = "".join(token + separator for token, separator in parts)
    assert _parse_outcome(_parse_file, text) == _parse_outcome(parse_by_descent, text)


def test_a_stray_character_after_a_long_name_fails_in_linear_time():
    """The lexical test is linear: a stray ``~`` after a 5,000-letter name
    is reported at once, at its line."""
    with pytest.raises(ParseError) as exc:
        parse_source(f"def {'a' * 5000}~ := lit;", "long.art")
    assert exc.value.line == 1
    assert "unexpected character '~'" in str(exc.value)


@pytest.mark.parametrize(
    "source",
    [
        "thm __n0_q : ;",
        "def f : g __n0_q := lit;",
        "def f := g lit __n_p;",
        "thm t : uses __n_p;",
        "thm t : var __n0_q;",
        "thm t : by f __n0_q;",
        "notation n for __n0_q;",
        "hint h uses __n_p;",
        "hint h uses f __n_p;",
        "reserve x, __n0_q : t;",
        "reserve x : __n0_q;",
    ],
)
def test_reserved_labels_are_rejected_at_every_name_position(source):
    outcome = _parse_outcome(_parse_file, source)
    assert outcome == _parse_outcome(parse_by_descent, source)
    assert outcome[0] is ParseError and "reserved '__n' label namespace" in outcome[1]


@pytest.mark.parametrize("family", FAMILIES)
def test_generated_files_parse_as_the_descent_reference_parses_them(family):
    for rel, text in generate_corpus(items=200, seed=5, family=family, per_file=10).items():
        assert parse_source(text, rel) == parse_by_descent(text, rel, file_tag(rel))


def test_comments_and_blank_lines_are_ignored():
    src = "# heading\n\ndef f := lit;  # trailing\n"
    (item,) = parse_source(src, "c.art")
    assert item.name == "f"
    # A comment glued to a token ends at the line break.
    assert [it.name for it in parse_source("def f := lit;#c", "c.art")] == ["f"]
    assert [it.name for it in parse_source("def f := lit;#c\rdef g := f;", "c.art")] == ["f", "g"]


def test_anonymous_names_skip_existing_labels():
    src = "thm __n0_fresh : ;\nthm : ;\n"
    items = parse_source(src, "fresh.art")
    assert items[0].name == "__n0_fresh" and not items[0].anonymous
    assert items[1].name == "__n1_fresh" and items[1].anonymous


def test_fresh_labels_of_a_tag_with_digits_and_underscores():
    """``sec_2/part_10.art`` has the tag ``sec_2_part_10``: a fresh label
    is ``__n``, decimal digits, ``_`` and that whole tag, nothing else."""
    src = "thm __n7_sec_2_part_10 : ;\nthm : ;\nthm __n0_sec_2_part_10 : ;\n"
    items = parse_source(src, "sec_2/part_10.art")
    assert [it.name for it in items] == [
        "__n7_sec_2_part_10", "__n1_sec_2_part_10", "__n0_sec_2_part_10"
    ]
    for bad in (
        "__n7_sec_2_part_1",
        "__n7_2_part_10",
        "__n_sec_2_part_10",
        "__n7x_sec_2_part_10",
        "__n7__sec_2_part_10",
        "__nsec_2_part_10",
    ):
        with pytest.raises(ParseError):
            parse_source(f"def {bad} := lit;", "sec_2/part_10.art")


@given(
    name=st.text(alphabet="_n0123456789a\u0663", max_size=12),
    tag=st.text(alphabet="_n0123456789a", max_size=5),
)
def test_fresh_label_index_matches_the_label_regex(name, tag):
    match = re.fullmatch(rf"__n(\d+)_{re.escape(tag)}", name)
    assert _fresh_label_index(name, tag) == (int(match.group(1)) if match else None)


# Checker ---------------------------------------------------------------------


def test_check_vacuous_item_accepts_under_empty_env():
    corpus = corpus_from("thm empty : ;")
    outcome = corpus.check_item(corpus.item("empty"), Environment(), trace_requested=True)
    assert outcome.accepted and outcome.trace == ()


def test_check_redundant_hint_trace_hand_enumerated(redundant_hint_corpus):
    corpus = redundant_hint_corpus
    t = corpus.item("t")
    env = Environment(definitions=("f",), hints=("h1", "h2"))
    outcome = corpus.check_item(t, env, trace_requested=True)
    assert outcome.accepted
    seen = [(e.dst, e.visibility) for e in outcome.trace]
    assert seen == [
        ("f", Visibility.EXPLICIT),
        ("h1", Visibility.IMPLICIT),
        ("h2", Visibility.IMPLICIT),
    ]


def test_check_missing_symbol_rejects(redundant_hint_corpus):
    corpus = redundant_hint_corpus
    t = corpus.item("t")
    outcome = corpus.check_item(t, Environment(hints=("h1", "h2")))
    assert not outcome.accepted
    assert outcome.reason is RejectReason.UNRESOLVED_SYMBOL
    assert outcome.trace == ()


def test_reject_reason_codes():
    corpus = corpus_from(
        "def f := lit;\n"
        "notation n for f;\n"
        "hint h uses f;\n"
        "reserve x : f;\n"
        "thm uses_n : uses n;\n"
        "thm uses_var : var x;\n"
        "thm auto_t : uses f by auto;\n"
        "thm by_t : uses f by f;\n"
    )
    env_full = corpus.candidate_environment(len(corpus.items))

    def reason_without(item_name, **env_parts):
        return corpus.check_item(corpus.item(item_name), Environment(**env_parts)).reason

    assert reason_without("uses_n", definitions=("f",)) is RejectReason.MISSING_NOTATION
    assert reason_without("uses_var", definitions=("f",)) is RejectReason.MISSING_RESERVATION
    # reservation present but its type symbol missing
    assert reason_without("uses_var", reservations=("x",)) is RejectReason.UNRESOLVED_SYMBOL
    assert reason_without("auto_t", definitions=("f",)) is RejectReason.NO_APPLICABLE_HINT
    assert reason_without("by_t", definitions=()) is RejectReason.UNRESOLVED_SYMBOL
    # statement resolves but the by reference does not
    outcome = corpus.check_item(
        corpus.item("by_t"), Environment(definitions=("f",), theorems=())
    )
    assert outcome.accepted  # f covers both the statement and the reference
    bad_by = corpus_from("def f := lit;\ndef g := lit;\nthm t : uses f by g h;\n")
    assert (
        bad_by.check_item(bad_by.item("t"), Environment(definitions=("f", "g"))).reason
        is RejectReason.BAD_JUSTIFICATION
    )
    # everything present: accepted
    for name in ("uses_n", "uses_var", "auto_t", "by_t"):
        assert corpus.check_item(corpus.item(name), env_full).accepted


def test_reservation_type_resolution_traced():
    corpus = corpus_from(
        "def set_t := lit;\nreserve x : set_t;\nthm t : var x;\n"
    )
    env = corpus.candidate_environment(2)
    outcome = corpus.check_item(corpus.item("t"), env, trace_requested=True)
    assert outcome.accepted
    assert [(e.dst, e.visibility) for e in outcome.trace] == [
        ("x", Visibility.EXPLICIT),          # the variable name occurs in the source
        ("set_t", Visibility.IMPLICIT),      # the reservation-provided type does not
    ]


def test_edge_opacity_matches_target(five_file_corpus):
    corpus = five_file_corpus
    from depkit.normalize import normalize_corpus
    normalized, _ = normalize_corpus(corpus)
    for idx, item in enumerate(normalized.items):
        env = normalized.candidate_environment(idx)
        outcome = normalized.check_item(item, env, trace_requested=True)
        assert outcome.accepted
        for edge in outcome.trace:
            assert edge.opacity == normalized.item(edge.dst).opacity


def test_duplicate_edges_merge_keeping_explicit():
    corpus = corpus_from("def a := lit;\nthm b : uses a by a;\n")
    outcome = corpus.check_item(
        corpus.item("b"), corpus.candidate_environment(1), trace_requested=True
    )
    assert [(e.dst, e.visibility) for e in outcome.trace] == [("a", Visibility.EXPLICIT)]


def test_checker_determinism_across_runs_and_threads(redundant_hint_corpus):
    corpus = redundant_hint_corpus
    t = corpus.item("t")
    env = corpus.candidate_environment(corpus.index_of("t"))
    expected = corpus.check_item(t, env, trace_requested=True)
    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(lambda _: corpus.check_item(t, env, True), range(64)))
    assert all(outcome == expected for outcome in outcomes)


def _random_subenv(rng: random.Random, env: Environment) -> Environment:
    return Environment(
        **{
            attr: tuple(n for n in getattr(env, attr) if rng.random() < 0.6)
            for attr in ("definitions", "theorems", "notations", "hints", "reservations")
        }
    )


def _random_superenv(rng: random.Random, sub: Environment, full: Environment) -> Environment:
    lists = {}
    for attr in ("definitions", "theorems", "notations", "hints", "reservations"):
        have = set(getattr(sub, attr))
        lists[attr] = tuple(
            n for n in getattr(full, attr) if n in have or rng.random() < 0.5
        )
    return Environment(**lists)


def test_monotonicity_on_1000_generated_triples():
    """Accepted under env implies accepted under any per-kind superset."""
    rng = random.Random(20240)
    checked = 0
    seed = 0
    while checked < 1000:
        seed += 1
        corpus = Corpus(
            [
                item
                for rel, text in generate_corpus(items=18, seed=seed, family="mixed").items()
                for item in parse_source(text, rel)
            ]
        )
        for idx, item in enumerate(corpus.items):
            full = corpus.candidate_environment(idx)
            sub = _random_subenv(rng, full)
            superenv = _random_superenv(rng, sub, full)
            assert sub.is_subenv_of(superenv) and superenv.is_subenv_of(full)
            if corpus.accepts(item, sub):
                assert corpus.accepts(item, superenv), (item.name, sub, superenv)
                assert corpus.accepts(item, full)
            checked += 1
            if checked >= 1000:
                break


def test_trace_soundness_on_fixtures_and_generated(five_file_corpus):
    """Every traced edge is load-bearing, except extra hints as a group."""
    from depkit.normalize import normalize_corpus

    corpora = [normalize_corpus(five_file_corpus)[0]]
    for seed in range(5):
        files = generate_corpus(items=24, seed=seed, family="mixed")
        corpora.append(
            Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
        )
    for corpus in corpora:
        for idx, item in enumerate(corpus.items):
            env = corpus.candidate_environment(idx)
            outcome = corpus.check_item(item, env, trace_requested=True)
            assert outcome.accepted
            traced_hints = {
                e.dst for e in outcome.trace
                if corpus.item(e.dst).kind is ItemKind.HINT
            }
            for edge in outcome.trace:
                without = env.restrict(
                    frozenset(env.all_names()) - {edge.dst}
                )
                if corpus.accepts(item, without):
                    assert edge.dst in traced_hints, edge
                    stripped = env.restrict(frozenset(env.all_names()) - traced_hints)
                    assert not corpus.accepts(item, stripped)


# Compiled check --------------------------------------------------------------

# Corpora small enough to check every submask of every candidate
# environment: a variable covered by two reservations, so that only a whole
# (reservation, type) pair verifies it; notation tokens in a statement and
# in a definition type, and a ``by`` reference naming a notation; ``by
# auto`` with hints shared by several symbols; and names that resolve
# nowhere, a variable with no reservation, a variable whose only
# reservation has a type that resolves nowhere, and ``by auto`` with no
# hint; a variable whose first covering reservation has a type that
# resolves nowhere and a later one a type that resolves, a ``by`` reference
# naming a reservation, and a symbol naming a hint.
COMPILED_CHECK_SOURCES = [
    "def a := lit;\ndef b := lit;\nreserve x, y : a;\nreserve y : b;\n"
    "thm t : var y;\nthm u : var x var y by t;\n",
    "def plus := lit;\nnotation oplus for plus;\nthm t : uses oplus;\n"
    "def d : oplus := plus;\nthm s : uses d uses oplus by t;\nthm r : uses plus by oplus;\n",
    "def f := lit;\ndef g := lit;\nhint h1 uses f;\nhint h2 uses f g;\n"
    "thm t : uses f uses g by auto;\nthm s : uses g by auto;\n",
    "def f := lit;\nthm t : uses missing;\nthm s : uses f by nowhere;\n"
    "thm r : var z;\nthm q : uses f by auto;\nreserve w : nowhere;\nthm p : var w;\n",
    "def a := lit;\nhint h uses a;\nreserve w, y : nowhere;\nreserve y : a;\nthm t : var y;\n"
    "thm s : uses a by y;\nthm r : uses h;\n",
]


def _assert_compiled_verdicts(corpus: Corpus, idx: int, masks) -> None:
    """Item ``idx`` on the environment of each mask over the corpus table,
    against the independent ``naive_check``: ``check_item``'s reason and
    traced names, and the verdict of ``accepts``, the compiled check."""
    item = corpus.items[idx]
    env = corpus.candidate_environment(idx)
    for bits in masks:
        sub = env.with_mask(bits)
        reason, resolved = naive_check(corpus, item, NaiveEnv({k: sub.names(k) for k in ItemKind}))
        outcome = corpus.check_item(item, sub, trace_requested=True)
        assert outcome.reason is reason, (item.name, bin(bits))
        assert [edge.dst for edge in outcome.trace] == (resolved if reason is None else [])
        assert corpus.accepts(item, sub) is (reason is None), (item.name, bin(bits))


@pytest.mark.parametrize("source", COMPILED_CHECK_SOURCES)
def test_compiled_check_equals_verify_on_every_submask(source):
    corpus = corpus_from(source)
    for idx in range(len(corpus)):
        _assert_compiled_verdicts(corpus, idx, range(1 << idx))


@pytest.mark.parametrize("family", FAMILIES)
def test_compiled_check_on_full_candidates_agrees_with_verify(family):
    """On the whole candidate environment, raw and normalized, the compiled
    verdict is ``check_item``'s (acceptance exactly when no reason is
    found), and both agree with ``naive_check``."""
    from depkit.normalize import normalize_corpus

    files = generate_corpus(items=150, seed=5, family=family)
    raw = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
    for corpus in (raw, normalize_corpus(raw)[0]):
        for idx in range(len(corpus)):
            _assert_compiled_verdicts(corpus, idx, [(1 << idx) - 1])


@settings(max_examples=40, deadline=None)
@given(
    items=st.integers(min_value=20, max_value=120),
    seed=st.integers(min_value=0, max_value=2**16),
    family=st.sampled_from(FAMILIES),
    normalized=st.booleans(),
    rng=st.randoms(use_true_random=False),
)
def test_compiled_check_equals_verify_on_random_submasks(items, seed, family, normalized, rng):
    """Per item: the candidate mask, its seed restrict (the traced names),
    the seed restrict less each traced name, and random submasks of three
    densities, alone, cut to the seed and joined to it less one name."""
    from depkit.normalize import normalize_corpus

    files = generate_corpus(items=items, seed=seed, family=family)
    corpus = Corpus([it for rel, text in files.items() for it in parse_source(text, rel)])
    if normalized:
        corpus = normalize_corpus(corpus)[0]
    for idx, item in enumerate(corpus.items):
        env = corpus.candidate_environment(idx)
        trace = corpus.check_item(item, env, trace_requested=True).trace
        seed_bits = env.restrict(frozenset(edge.dst for edge in trace)).mask
        masks = [env.mask, seed_bits]
        masks += [seed_bits & ~(1 << pos) for pos in bit_positions(seed_bits)]
        r1, r2, r3 = (rng.getrandbits(idx) if idx else 0 for _ in range(3))
        for sub in (r1 & r2, r1, r1 | r2 | r3):
            masks.append(sub)
            masks.append(sub & seed_bits)
            drop = rng.choice(bit_positions(seed_bits)) if seed_bits else 0
            masks.append((sub | seed_bits) & ~(1 << drop))
        _assert_compiled_verdicts(corpus, idx, masks)


# Rendering -------------------------------------------------------------------


def test_render_round_trip_is_identity_on_canonical_sources():
    sources = [
        "def f : nat := lit;",
        "def opaque k := v w;",
        "thm transparent u : uses f var x by f g;",
        "thm t : uses f by auto;",
        "notation oplus for plus;",
        "hint h uses f g;",
        "reserve a, b : t;",
        "then thm w : uses p;",
        "thm : uses p;",
    ]
    for source in sources:
        (item,) = parse_source(source, "rt.art")
        rendered = render_item(item)
        (again,) = parse_source(rendered, "rt.art")
        assert render_item(again) == rendered


@pytest.mark.parametrize("family", FAMILIES)
def test_render_file_round_trips_generated_files(family):
    for rel, text in generate_corpus(items=80, seed=4, family=family, per_file=8).items():
        items = parse_source(text, rel)
        assert parse_source(render_file(items), rel) == items


def test_render_file_regroups_blocks():
    text = "defblock { def p := lit; def q : p := lit; }\ndef r : q := lit;\n"
    items = parse_source(text, "blocks.art")
    assert render_file(items) == text


# Bit iteration ---------------------------------------------------------------


def test_bit_positions_matches_naive_loop():
    """Both the sparse and the dense path, and masks at the switch between them."""
    rng = random.Random(8)
    cases = [0, (1 << 63) | 1, (1 << 63) | 3, (1 << 95) | 7]
    cases += [1 << i for i in (0, 1, 31, 32, 63, 64, 1000, 4095)]
    for length in (1, 7, 64, 300, 3000):
        for density in (0.001, 0.01, 1 / 32, 0.05, 0.2, 0.5, 0.9, 1.0):
            cases.append(sum(1 << i for i in range(length) if rng.random() < density))
    for bits in cases:
        assert bit_positions(bits) == [i for i in range(bits.bit_length()) if bits >> i & 1]


def test_item_line_is_the_line_of_each_item_s_first_token(tmp_path):
    """Every construct, anonymous theorems, ``then`` links and defblock
    members included, is found at the line its keyword starts on; a file
    that no longer holds the item gives None."""
    source = (
        "# header\n"
        "def d := lit;  def e : d := d;\n"
        "defblock {\n"
        "  def opaque f := lit;\n"
        "  def g := f;\n"
        "}\n"
        "thm : uses d;\n"
        "then\n"
        "  thm t : uses e by d;\n"
        "notation n for d;  hint h uses d;\n"
        "\n"
        "reserve x, y : d; thm transparent : var x by auto;\n"
    )
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "a.art").write_text(source)
    corpus = parse_corpus(tmp_path)
    lines = [item_line(tmp_path, item) for item in corpus.items]
    assert lines == [2, 2, 4, 5, 7, 8, 10, 10, 12, 12]
    (tmp_path / "sub" / "a.art").write_text("def d := lit;\n")
    assert item_line(tmp_path, corpus.items[1]) is None

