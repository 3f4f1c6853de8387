"""Independent brute-force oracles used to validate the real implementations.

Everything here is deliberately naive: full subset enumeration for minimal
environments, a check of every chunk of the minimizer's chunked search,
plain DFS for reachability, straightforward recounting for model training,
scoring every candidate and sorting for premise ranking, one cost per
random pick and ``statistics.median`` for the speedup report, one line at
a time for tokenizing and for reading edge records, a list of one edge per
record pair from the block reader, a walk over every row's bits for a
graph's transposition and file projection, a recursive-descent parser with
a method call per token, a ``mixed`` corpus generator that copies and
rescans every earlier name for each item, and extraction's edges built as
one ``DepEdge`` per dependency: the trace's from ``check_item``'s traces,
the minimal environments' by a copy of the edge builder that extraction
had before it kept records, and the two methods' comparison read off one
corpus mask per item and method.
The oracles never share code paths with the functions they check; the
ranking oracles share only training, the feature and dependency maps and
``score_premise``, whose floats the sparse ranking must reproduce bit for
bit, the speedup oracle shares the graph's ``reverse_counts`` and file
scopes and differs only in keeping every pick and cost in a list, and the
list reader shares the block reader's decoding and differs only in the list
it returns, and the bit-walk transposition shares the closure pass.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path
from statistics import median

from depkit.corpus import (
    FRESH_PREFIX,
    _NOT_NAMES,
    _tokenize,
    Corpus,
    DepEdge,
    Environment,
    Item,
    ItemKind,
    KIND_FIELDS,
    Opacity,
    RejectReason,
    Visibility,
    bit_positions,
)
from depkit.errors import DepkitError, DuplicateNameError, NotVerifiableError, ParseError
from depkit.extract import (
    _BLOCK_LINES,
    _TAILS,
    KIND_MINIMIZATION_ORDER,
    MinimizationResult,
    _canonical_records,
    _record_fields,
    decompose,
)
from depkit.graph import DepGraph, _closure
from depkit.learn import BayesModel, RankedPremises, dependency_map, features_of, score_premise
from depkit.rebuild import _require_item_graph


_LINE_TOKEN_RE = re.compile(r"#[^\n]*|:=|[:;{},]|[A-Za-z_][A-Za-z0-9_]*|\S")
_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def tokenize_by_lines(text: str) -> list[tuple[str, int]] | int:
    """muArt tokens with their lines, or the line of the first stray character.

    Each line of ``str.splitlines`` is scanned on its own; a ``#`` token ends
    the line, and a token that is neither punctuation nor an identifier is a
    stray character.
    """
    tokens: list[tuple[str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in _LINE_TOKEN_RE.findall(line):
            if tok.startswith("#"):
                break
            if tok not in (":=", ":", ";", "{", "}", ",") and not _IDENTIFIER_RE.fullmatch(tok):
                return lineno
            tokens.append((tok, lineno))
    return tokens


def env_candidates(env: Environment) -> list[tuple[str, str]]:
    """Flatten an environment into (kind attribute, name) pairs, kind by kind."""
    return [(attr, name) for kind, attr in KIND_FIELDS.items() for name in env.names(kind)]


def env_from_mask(pairs, mask: int) -> Environment:
    """The environment of the pairs whose bit is set in ``mask``, built by name."""
    lists: dict[str, list[str]] = {attr: [] for attr in KIND_FIELDS.values()}
    for attr, name in pairs:
        if mask & 1:
            lists[attr].append(name)
        mask >>= 1
    return Environment(**lists)


def brute_force_minimal_env(corpus: Corpus, item: Item, env: Environment) -> Environment:
    """Lexicographically earliest 1-minimal verifying subset, by enumeration.

    Candidates are indexed in corpus order; among all verifying subsets
    from which no single element can be removed, the one whose sorted
    index tuple is smallest wins.  Only usable for small candidate counts.
    """
    pairs = env_candidates(env)
    order = sorted(range(len(pairs)), key=lambda b: corpus.index_of(pairs[b][1]))
    n = len(pairs)
    assert n <= 16, "oracle is exponential; keep candidate counts small"

    verdict: dict[int, bool] = {}

    def verifies(mask: int) -> bool:
        if mask not in verdict:
            verdict[mask] = corpus.accepts(item, env_from_mask(pairs, mask))
        return verdict[mask]

    best: tuple[int, ...] | None = None
    best_mask = None
    for mask in range(1 << n):
        if not verifies(mask):
            continue
        bits = [b for b in range(n) if mask & (1 << b)]
        if any(verifies(mask & ~(1 << b)) for b in bits):
            continue  # not 1-minimal
        key = tuple(sorted(order.index(b) for b in bits))
        if best is None or key < best:
            best = key
            best_mask = mask
    assert best_mask is not None, "item should verify under the full environment"
    return env_from_mask(pairs, best_mask)


def shrink_per_trial(keep: list[int], bits: int, still_ok) -> int:
    """Greedy monotone reduction of one kind's positions.

    ``keep`` lists the set positions of ``bits`` in ascending order.  Tries
    removing chunks of half the list, then quarters, and so on down to
    pairs, scanning chunks back to front, then finishes with one
    single-removal pass.  A chunk is a run of ``keep``, so its trial is
    ``bits`` minus the position range from the run's first to its last
    entry.  ``still_ok`` is called with the trial mask and must be
    monotone in the set of surviving positions.
    """
    size = (len(keep) + 1) // 2
    while size >= 2:
        start = ((len(keep) - 1) // size) * size if keep else -1
        while start >= 0:
            end = min(start + size, len(keep)) - 1
            trial = bits & ~((2 << keep[end]) - (1 << keep[start]))
            if still_ok(trial):
                bits = trial
                del keep[start : end + 1]
            start -= size
        size = (size + 1) // 2 if size > 2 else 1
    for i in range(len(keep) - 1, -1, -1):
        trial = bits & ~(1 << keep[i])
        if still_ok(trial):
            bits = trial
            del keep[i]
    return bits


def minimize_per_trial(
    corpus: Corpus, item: Item, candidate: Environment, seed_targets=None
) -> tuple[int, int, dict[ItemKind, int]]:
    """``(minimal mask, oracle calls, removed per kind)`` of the search that
    tries every chunk: each trial a mask over the corpus table, run through
    ``shrink_per_trial`` over the kind's listed positions, its verdict that
    of ``check_item`` on the environment of the mask.  The seed restrict
    counts one call when it changes the candidate and is kept when it
    verifies."""
    full = corpus.candidate_environment(len(corpus))
    kinds = {kind: full.kind_mask(kind) for kind in ItemKind}

    def verifies(bits: int) -> bool:
        return corpus.check_item(item, full.with_mask(bits)).accepted

    candidate_bits = corpus._bits_of(candidate)
    assert verifies(candidate_bits)
    calls = 0
    current = candidate_bits
    if seed_targets is not None:
        seeds = {corpus.index_of(name) for name in seed_targets if name in corpus}
        restricted = candidate_bits & sum(1 << pos for pos in seeds)
        if restricted != candidate_bits:
            calls += 1
            if verifies(restricted):
                current = restricted
    for kind in KIND_MINIMIZATION_ORDER:
        kind_bits = current & kinds[kind]
        others = current & ~kind_bits

        def still_ok(trial: int, others=others) -> bool:
            nonlocal calls
            calls += 1
            return verifies(others | trial)

        current = others | shrink_per_trial(bit_positions(kind_bits), kind_bits, still_ok)
    dropped = candidate_bits & ~current
    return current, calls, {kind: (dropped & kinds[kind]).bit_count() for kind in ItemKind}


class NaiveEnv:
    """Reference model of ``Environment``: one name tuple per kind, every
    operation a scan of those tuples."""

    def __init__(self, lists: dict[ItemKind, tuple[str, ...]]):
        self.lists = {kind: tuple(lists.get(kind, ())) for kind in ItemKind}

    def names(self, kind: ItemKind) -> tuple[str, ...]:
        return self.lists[kind]

    def all_names(self) -> tuple[str, ...]:
        return tuple(name for kind in ItemKind for name in self.lists[kind])

    def contains(self, kind: ItemKind, name: str) -> bool:
        return name in self.lists[kind]

    def size(self) -> int:
        return sum(len(names) for names in self.lists.values())

    def restrict(self, keep) -> "NaiveEnv":
        return NaiveEnv({k: tuple(n for n in names if n in keep) for k, names in self.lists.items()})

    def replace_kind(self, kind: ItemKind, names) -> "NaiveEnv":
        return NaiveEnv({**self.lists, kind: tuple(names)})

    def is_subenv_of(self, other: "NaiveEnv") -> bool:
        return all(set(self.lists[k]) <= set(other.lists[k]) for k in ItemKind)

    def build(self) -> Environment:
        """The same lists as an environment built by name."""
        return Environment(**{KIND_FIELDS[k]: names for k, names in self.lists.items()})


def naive_check(corpus: Corpus, item: Item, env: NaiveEnv) -> tuple[RejectReason | None, list[str]]:
    """The checker's rules, scanning name lists: the first failing check and
    the names resolved, in resolution order.  Reservations and hints are
    tried in corpus order, whatever order ``env`` lists them in."""
    symbol_kinds = (ItemKind.DEFINITION, ItemKind.THEOREM)
    resolved: list[str] = []

    def note(name: str) -> None:
        if name not in resolved:
            resolved.append(name)

    def resolves(name: str) -> bool:
        target = corpus.get(name)
        return target is not None and target.kind in symbol_kinds and env.contains(target.kind, name)

    for ref in item.statement_symbols + item.body_symbols:
        target = corpus.get(ref)
        if target is not None and target.kind is ItemKind.NOTATION:
            if not env.contains(ItemKind.NOTATION, ref):
                return RejectReason.MISSING_NOTATION, resolved
        elif not resolves(ref):
            return RejectReason.UNRESOLVED_SYMBOL, resolved
        note(ref)
    for ref in item.by_refs:
        if not resolves(ref):
            return RejectReason.BAD_JUSTIFICATION, resolved
        note(ref)
    reservations = sorted(env.names(ItemKind.RESERVATION), key=corpus.index_of)
    for var in item.free_vars:
        covering = [r for r in reservations if var in corpus.item(r).reserved_vars]
        typed = [r for r in covering if resolves(corpus.item(r).statement_symbols[0])]
        if not typed:
            reason = RejectReason.UNRESOLVED_SYMBOL if covering else RejectReason.MISSING_RESERVATION
            return reason, resolved
        note(typed[0])
        note(corpus.item(typed[0]).statement_symbols[0])
    if item.by_auto:
        stmt = set(item.statement_symbols)
        hints = sorted(env.names(ItemKind.HINT), key=corpus.index_of)
        applicable = [h for h in hints if stmt & set(corpus.item(h).statement_symbols)]
        if not applicable:
            return RejectReason.NO_APPLICABLE_HINT, resolved
        for h in applicable:
            note(h)
    return None, resolved


def reachable_pairs_bruteforce(nodes, edges) -> set[tuple[str, str]]:
    """All (src, dst) pairs connected by a directed path, via repeated DFS."""
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for src, dst in edges:
        adj[src].append(dst)
    pairs: set[tuple[str, str]] = set()
    for start in nodes:
        stack = list(adj[start])
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            pairs.add((start, cur))
            stack.extend(adj[cur])
    return pairs


def topological_order_by_rounds(edges) -> list[str]:
    """Node order of ``build_graph_from_edges``, by rounds: each round takes
    every remaining node whose dependencies are all placed, sorted by name.
    Quadratic or worse on deep graphs; raises ``ValueError`` on a cycle."""
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
            raise ValueError("dependency cycle")
        order.extend(ready)
        placed.update(ready)
        remaining.difference_update(ready)
    return order


def tally_training_counts(corpus: Corpus, deps_by_item: dict, upto: int):
    """Recount naive Bayes statistics the slow, obvious way."""
    prior: Counter = Counter()
    cooc: Counter = Counter()
    vocab: set[str] = set()
    for item in corpus.items[:upto]:
        deps = deps_by_item.get(item.name, ())
        if not deps:
            continue
        features = Counter(item.statement_symbols)
        for premise in deps:
            prior[premise] += 1
        for feature, count in features.items():
            vocab.add(feature)
            for premise in deps:
                cooc[(feature, premise)] += count
    return dict(prior), dict(cooc), vocab


def rank_by_full_sort(
    model: BayesModel, conjecture: str, features: Counter, candidates, corpus: Corpus,
    alpha: float = 1.0, weight: float = 1.0,
) -> RankedPremises:
    """Score every candidate, then sort by score, ties by earlier corpus order."""
    scored = [
        (score_premise(model, name, features, alpha, weight), corpus.index_of(name), name)
        for name in candidates
    ]
    scored.sort(key=lambda entry: (-entry[0], entry[1]))
    return RankedPremises(
        conjecture=conjecture,
        ranking=tuple((name, score) for score, _, name in scored),
    )


def evaluate_chrono_by_full_sort(
    corpus: Corpus, edges, k_values, alpha: float = 1.0, weight: float = 1.0,
    explicit_only: bool = False, baseline_seed: int | None = None,
) -> dict:
    """``evaluate_chrono`` with every theorem ranked by ``rank_by_full_sort``."""
    deps_by_item = dependency_map(edges, explicit_only=explicit_only)
    ks = sorted(set(int(k) for k in k_values))
    recall_sums = {k: 0.0 for k in ks}
    baseline_sums = {k: 0.0 for k in ks} if baseline_seed is not None else None
    rng = random.Random(baseline_seed) if baseline_seed is not None else None
    rank_positions: list[int] = []
    evaluated = 0

    model = BayesModel()
    names: list[str] = []
    for item in corpus.items:
        true_deps = set(deps_by_item.get(item.name, ()))
        if item.kind is ItemKind.THEOREM and true_deps:
            ranked = rank_by_full_sort(
                model, item.name, features_of(item).counts(), names, corpus, alpha, weight
            ).names()
            position = {name: pos for pos, name in enumerate(ranked, start=1)}
            for k in ks:
                top = set(ranked[:k])
                recall_sums[k] += len(top & true_deps) / len(true_deps)
            rank_positions.extend(position[name] for name in true_deps)
            if rng is not None:
                shuffled = list(names)
                rng.shuffle(shuffled)
                for k in ks:
                    top = set(shuffled[:k])
                    baseline_sums[k] += len(top & true_deps) / len(true_deps)
            evaluated += 1
        model.update(features_of(item).counts(), deps_by_item.get(item.name, ()))
        names.append(item.name)

    result = {
        "evaluated": evaluated,
        "recall_at_k": {k: (recall_sums[k] / evaluated if evaluated else 0.0) for k in ks},
        "mean_rank": (sum(rank_positions) / len(rank_positions)) if rank_positions else 0.0,
    }
    if baseline_sums is not None:
        result["baseline_recall_at_k"] = {
            k: (baseline_sums[k] / evaluated if evaluated else 0.0) for k in ks
        }
        result["baseline_seed"] = baseline_seed
    return result


def export_problems_by_full_sort(
    corpus: Corpus, edges, k: int, out_dir, alpha: float = 1.0, weight: float = 1.0,
    explicit_only: bool = False,
) -> list[Path]:
    """``export_problems`` with every theorem ranked by ``rank_by_full_sort``."""
    deps_by_item = dependency_map(edges, explicit_only=explicit_only)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    model = BayesModel()
    names: list[str] = []
    for item in corpus.items:
        if item.kind is ItemKind.THEOREM:
            ranked = rank_by_full_sort(
                model, item.name, features_of(item).counts(), names, corpus, alpha, weight
            ).names()
            lines = [f"conjecture {item.name}"]
            lines.extend(
                f"premise {name} {corpus.item(name).kind.value}" for name in ranked[:k]
            )
            path = out_dir / f"{item.name}.prb"
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            written.append(path)
        model.update(features_of(item).counts(), deps_by_item.get(item.name, ()))
        names.append(item.name)
    return written


def read_edges_by_line(path: str | Path, method: str = "any") -> list[DepEdge]:
    """``read_edges_jsonl`` with one ``json.loads`` and two enum lookups per
    record: flags ORed per (from, to) pair, one edge per pair in first-seen
    order, and ``ParseError`` naming the line of a malformed record.  Every
    record is checked before the method filter, whatever ``method`` is."""
    if method not in ("any", "trace", "min"):
        raise ValueError(f"unknown method filter: {method!r}")
    flags: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            src, dst = rec["from"], rec["to"]
            if not (isinstance(src, str) and isinstance(dst, str)):
                raise TypeError("'from' and 'to' must be strings")
            explicit = Visibility(rec["vis"]) is Visibility.EXPLICIT
            transparent = Opacity(rec["opacity"]) is Opacity.TRANSPARENT
            if rec["method"] not in ("trace", "min"):
                raise ValueError(f"unknown method {rec['method']!r}")
        except (KeyError, TypeError, ValueError) as err:
            raise ParseError(f"malformed edge record ({err!r})", str(path), lineno) from None
        if method == "any" or rec["method"] == method:
            flags[src, dst] = flags.get((src, dst), 0) | explicit | transparent << 1
    vis = (Visibility.IMPLICIT, Visibility.EXPLICIT)
    opacity = (Opacity.OPAQUE, Opacity.TRANSPARENT)
    return [DepEdge(*pair, vis[bits & 1], opacity[bits >> 1]) for pair, bits in flags.items()]


def read_edges_as_list(path: str | Path, method: str = "any") -> list[DepEdge]:
    """``read_edges_jsonl`` as it was before its records became a view: the
    same block reader and fold, then a list of one ``DepEdge`` per pair, in
    first-seen order."""
    if method not in ("any", "trace", "min"):
        raise ValueError(f"unknown method filter: {method!r}")
    flags: dict[tuple[str, str], int] = {}
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
            bits, rec_method = _TAILS[tail]
            if method == "any" or rec_method == method:
                flags[src, dst] = flags.get((src, dst), 0) | bits
    vis = (Visibility.IMPLICIT, Visibility.EXPLICIT)
    opacity = (Opacity.OPAQUE, Opacity.TRANSPARENT)
    return [DepEdge(*pair, vis[bits & 1], opacity[bits >> 1]) for pair, bits in flags.items()]


def reverse_reach_by_bits(g: DepGraph) -> list[int]:
    """``DepGraph.reverse_reach`` with the rows transposed by walking every
    row's bits instead of reading the edge positions."""
    users = [0] * len(g.nodes)
    for i, row in enumerate(g.deps):
        for j in bit_positions(row):
            users[j] |= 1 << i
    return _closure(users, reversed(range(len(g.nodes))))


def file_rows_by_bits(g: DepGraph) -> tuple[tuple[int, ...], ...]:
    """The ``deps``, ``transparent`` and ``explicit`` rows of ``g``'s file
    projection by walking every merged row's bits: per file, the OR of its
    items' rows, its own items masked out, each other item's bit mapped to
    its file's bit."""
    file_names = [g.files[name] for name in g.nodes]
    file_index = {file: f for f, file in enumerate(dict.fromkeys(file_names))}
    file_of = [file_index[file] for file in file_names]
    own = [0] * len(file_index)
    for i, f in enumerate(file_of):
        own[f] |= 1 << i

    def project(rows) -> tuple[int, ...]:
        merged = [0] * len(own)
        for f, row in zip(file_of, rows):
            merged[f] |= row
        out = []
        for f, bits in enumerate(merged):
            file_bits = 0
            for j in bit_positions(bits & ~own[f]):
                file_bits |= 1 << file_of[j]
            out.append(file_bits)
        return tuple(out)

    return project(g.deps), project(g.transparent), project(g.explicit)


class DescentParser:
    """The recursive-descent parser that ``corpus._parse_file`` flattens:
    a method call per token.  Each ``parse_*`` method returns the fields its
    item kind sets; ``parse_items`` builds the items and lists the line of
    each item's name token (None for an anonymous theorem)."""

    def __init__(self, tokens: list[str], lines: list[int], source_file: str, tag: str):
        self.tokens = tokens
        self.lines = lines
        self.pos = 0
        self.source_file = source_file
        self.tag = tag

    def error(self, message: str) -> ParseError:
        lines = self.lines
        line = lines[min(self.pos, len(lines) - 1)] if lines else 1
        return ParseError(message, self.source_file, line)

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        if self.pos >= len(self.tokens):
            raise self.error("unexpected end of file")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        got = self.take()
        if got != text:
            self.pos -= 1
            raise self.error(f"expected {text!r}, found {got!r}")

    def take_name(self, what: str = "identifier") -> str:
        tok = self.take()
        if tok in _NOT_NAMES:
            self.pos -= 1
            raise self.error(f"expected {what}, found {tok!r}")
        if tok.startswith(FRESH_PREFIX) and fresh_label_index(tok, self.tag) is None:
            self.pos -= 1
            raise self.error(
                f"identifier {tok!r} uses the reserved {FRESH_PREFIX!r} label namespace"
            )
        return tok

    def at_name(self) -> bool:
        tok = self.peek()
        return tok is not None and tok not in _NOT_NAMES

    def take_opacity(self) -> Opacity | None:
        if self.peek() in ("opaque", "transparent"):
            return Opacity(self.take())
        return None

    def parse_items(self) -> list[Item]:
        parsed: list[tuple[dict, int | None]] = []  # fields and block id per item
        blocks = 0
        while self.peek() is not None:
            if self.peek() == "defblock":
                parsed += ((fields, blocks) for fields in self.parse_defblock())
                blocks += 1
            else:
                parsed.append((self.parse_item(), None))
        self.name_lines = [fields.pop("name_line") for fields, _ in parsed]
        return [
            Item(**fields, source_file=self.source_file, index_in_file=index, block_id=block_id)
            for index, (fields, block_id) in enumerate(parsed)
        ]

    def parse_defblock(self) -> list[dict]:
        self.expect("defblock")
        self.expect("{")
        members: list[dict] = []
        while self.peek() != "}":
            if self.peek() != "def":
                raise self.error("defblock may only contain definitions")
            members.append(self.parse_def())
        if not members:
            raise self.error("empty defblock")
        self.expect("}")
        return members

    def parse_item(self) -> dict:
        tok = self.peek()
        if tok == "def":
            return self.parse_def()
        if tok in ("thm", "then"):
            return self.parse_thm()
        if tok == "notation":
            return self.parse_notation()
        if tok == "hint":
            return self.parse_hint()
        if tok == "reserve":
            return self.parse_reserve()
        raise self.error(f"expected an item keyword, found {tok!r}")

    def parse_def(self) -> dict:
        self.expect("def")
        opacity = self.take_opacity() or Opacity.TRANSPARENT
        name = self.take_name("definition name")
        name_line = self.lines[self.pos - 1]
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
        return dict(
            name=name,
            name_line=name_line,
            kind=ItemKind.DEFINITION,
            statement_symbols=_dedup(stmt),
            body_symbols=_dedup(body),
            opacity=opacity,
        )

    def parse_thm(self) -> dict:
        linked = False
        if self.peek() == "then":
            self.take()
            linked = True
            if self.peek() != "thm":
                raise self.error("'then' may only prefix a theorem")
        self.expect("thm")
        opacity = self.take_opacity() or Opacity.OPAQUE
        anonymous = not self.at_name()
        name = "" if anonymous else self.take_name("theorem name")
        name_line = None if anonymous else self.lines[self.pos - 1]
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
        return dict(
            name=name,
            name_line=name_line,
            kind=ItemKind.THEOREM,
            statement_symbols=_dedup(stmt),
            free_vars=_dedup(free_vars),
            by_refs=by_refs,
            by_auto=by_auto,
            opacity=opacity,
            anonymous=anonymous,
            linked=linked,
        )

    def parse_notation(self) -> dict:
        self.expect("notation")
        name = self.take_name("notation name")
        name_line = self.lines[self.pos - 1]
        self.expect("for")
        target = self.take_name("notation target")
        self.expect(";")
        return dict(
            name=name, name_line=name_line, kind=ItemKind.NOTATION, statement_symbols=(target,)
        )

    def parse_hint(self) -> dict:
        self.expect("hint")
        name = self.take_name("hint name")
        name_line = self.lines[self.pos - 1]
        self.expect("uses")
        syms = [self.take_name("symbol in hint")]
        while self.at_name():
            syms.append(self.take_name())
        self.expect(";")
        return dict(
            name=name, name_line=name_line, kind=ItemKind.HINT, statement_symbols=_dedup(syms)
        )

    def parse_reserve(self) -> dict:
        self.expect("reserve")
        names = [self.take_name("reserved variable")]
        name_line = self.lines[self.pos - 1]
        while self.peek() == ",":
            self.take()
            names.append(self.take_name("reserved variable"))
        self.expect(":")
        type_sym = self.take_name("reservation type symbol")
        vars_ = _dedup(names)
        if len(vars_) != len(names):
            raise self.error("repeated variable in reservation")
        self.expect(";")
        return dict(
            name=vars_[0],
            name_line=name_line,
            kind=ItemKind.RESERVATION,
            statement_symbols=(type_sym,),
            reserved_vars=vars_,
        )


def _dedup(names) -> tuple[str, ...]:
    return tuple(dict.fromkeys(names))


def fresh_label_index(name: str, tag: str) -> int | None:
    """The counter of a fresh label ``__n<digits>_<tag>``, by regex."""
    match = re.fullmatch(rf"__n(\d+)_{re.escape(tag)}", name)
    return int(match.group(1)) if match else None


def parse_by_descent(text: str, source_file: str, tag: str) -> list[Item]:
    """``corpus._parse_file`` by ``DescentParser``: anonymous theorems get
    the fresh labels the file does not use, in item order, and the first
    name declared twice raises ``DuplicateNameError`` at its second line."""
    parser = DescentParser(*_tokenize(text, source_file), source_file, tag)
    items = parser.parse_items()
    used = {fresh_label_index(item.name, tag) for item in items} - {None}
    counter = 0
    named: list[Item] = []
    for item in items:
        if item.anonymous:
            while counter in used:
                counter += 1
            used.add(counter)
            item = replace(item, name=f"{FRESH_PREFIX}{counter}_{tag}")
        named.append(item)
    seen: set[str] = set()
    for item, line in zip(named, parser.name_lines):
        if item.name in seen:
            raise DuplicateNameError(item.name, source_file, source_file, line=line)
        seen.add(item.name)
    return named


def mixed_by_rescan(items: int, rng: random.Random) -> list[str]:
    """The ``mixed`` family as first written: per item it copies the name
    lists it draws from and tests every hint for an applicable one, so it
    takes time quadratic in ``items``."""
    lines: list[str] = []
    defs: list[str] = []
    thms: list[str] = []
    notations: list[str] = []
    hints: list[tuple[str, list[str]]] = []
    reserved: list[str] = []

    def statement_pool() -> list[str]:
        return defs + thms + notations

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
            if statement_pool() and rng.random() < 0.6:
                refs = rng.sample(statement_pool(), k=min(len(statement_pool()), rng.randint(1, 2)))
                type_part = f" : {' '.join(refs)}"
            body_part = "lit"
            if defs and rng.random() < 0.4:
                body_part = rng.choice(defs)
            lines.append(f"def {opac}{name}{type_part} := {body_part};")
            defs.append(name)
        elif kind == "thm":
            name = f"t{i}"
            opac = "transparent " if rng.random() < 0.3 else ""
            uses = rng.sample(statement_pool(), k=min(len(statement_pool()), rng.randint(1, 3)))
            clause = " ".join(f"uses {sym}" for sym in uses)
            if reserved and rng.random() < 0.3:
                clause += f" var {rng.choice(reserved)}"
            just = ""
            applicable = [h for h, syms in hints if set(syms) & set(uses)]
            roll = rng.random()
            if applicable and roll < 0.35:
                just = " by auto"
            elif (defs or thms) and roll < 0.75:
                refs = rng.sample(defs + thms, k=min(len(defs + thms), rng.randint(1, 2)))
                just = f" by {' '.join(refs)}"
            lines.append(f"thm {opac}{name} : {clause}{just};")
            thms.append(name)
        elif kind == "notation":
            name = f"n{i}"
            target = rng.choice(defs + thms)
            lines.append(f"notation {name} for {target};")
            notations.append(name)
        elif kind == "hint":
            name = f"h{i}"
            syms = rng.sample(defs + thms, k=min(len(defs + thms), rng.randint(1, 2)))
            lines.append(f"hint {name} uses {' '.join(syms)};")
            hints.append((name, syms))
        else:  # reserve
            var = f"v{i}"
            lines.append(f"reserve {var} : {rng.choice(defs)};")
            reserved.append(var)
    return lines


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
    """
    if not g.nodes:
        raise DepkitError("speedup needs a graph with at least one item")
    if samples <= 0:
        raise ValueError("samples must be positive")
    n = len(g.nodes)
    if samples == n:
        picks = range(n)
    else:
        rng = random.Random(rng_seed)
        picks = [rng.randrange(n) for _ in range(samples)]

    _require_item_graph(g)
    reverse = g.reverse_counts()
    file_of, own, dependents = g._file_scopes()
    file_scope = [(o | d).bit_count() for o, d in zip(own, dependents)]
    item_costs = [1 + reverse[i] for i in picks]
    file_costs = [file_scope[file_of[i]] for i in picks]
    item_total, file_total = sum(item_costs), sum(file_costs)
    item_mean = item_total / len(picks)
    file_mean = file_total / len(picks)
    return {
        "samples": len(picks),
        "exhaustive": samples == len(g.nodes),
        "seed": rng_seed,
        "item_mean": item_mean,
        "file_mean": file_mean,
        "ratio": file_mean / item_mean if item_mean else 0.0,
        "item_median": float(median(item_costs)),
        "file_median": float(median(file_costs)),
        "item_total": item_total,
        "file_total": file_total,
    }


def trace_edges_by_check(corpus: Corpus, micros=None) -> list[DepEdge]:
    """Concatenated traces of every item under its candidate environment:
    ``check_item``'s trace of each, one ``DepEdge`` per resolved
    dependency."""
    edges: list[DepEdge] = []
    for micro in decompose(corpus) if micros is None else micros:
        outcome = corpus.check_item(micro.item, micro.candidate_env, trace_requested=True)
        if not outcome.accepted:
            raise NotVerifiableError(
                micro.item.name, outcome.reason.value if outcome.reason else "rejected"
            )
        edges.extend(outcome.trace)
    return edges


def dep_edges(corpus: Corpus, item: Item, positions) -> tuple[DepEdge, ...]:
    """One edge from ``item`` to the item at each of ``positions``, in
    the order given: explicit when the target occurs literally in the
    item's source, with the target's opacity."""
    literal = item.literal_names()
    items, src = corpus.items, item.name
    explicit, implicit = Visibility.EXPLICIT, Visibility.IMPLICIT
    edges = []
    for pos in positions:
        target = items[pos]
        vis = explicit if target.name in literal else implicit
        edges.append(DepEdge(src, target.name, vis, target.opacity))
    return tuple(edges)


def min_edges_by_dep_edges(corpus: Corpus, results: list[MinimizationResult]) -> list[DepEdge]:
    """One edge per surviving environment entry, ordered by corpus
    position, each built by ``dep_edges``."""
    edges: list[DepEdge] = []
    for result in results:
        item = corpus.item(result.item_name)
        edges.extend(dep_edges(corpus, item, bit_positions(corpus._bits_of(result.minimal_env))))
    return edges


def compare_by_masks(corpus: Corpus, trace_edges, minimization) -> dict:
    """``compare_methods``'s report for inputs that fit the corpus, from one
    corpus mask per item and method: the set differences are mask
    operations whose positions come out in corpus order."""
    items = corpus.items
    traced = dict.fromkeys((item.name for item in items), 0)
    for edge in trace_edges:
        traced[edge.src] |= 1 << corpus.index_of(edge.dst)
    minimal = {result.item_name: corpus._bits_of(result.minimal_env) for result in minimization}
    per_item = {}
    for item in items:
        t, m = traced[item.name], minimal[item.name]
        per_item[item.name] = {
            key: [items[pos].name for pos in bit_positions(bits)]
            for key, bits in (("trace_only", t & ~m), ("min_only", m & ~t), ("common", t & m))
        }
    totals = {
        key: sum(len(entry[key]) for entry in per_item.values())
        for key in ("trace_only", "min_only", "common")
    }
    return {"per_item": per_item, "totals": totals}

