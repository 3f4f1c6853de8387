"""The ``depkit`` command line: normalize, extract, analyze, simulate, learn.

Exit codes: 0 on success, 1 on domain errors (unverifiable items, corpus
mismatches, unknown names, ...), 2 on usage errors.  Diagnostics go to
stderr; data goes to files or stdout.  Identical inputs and flags produce
byte-identical outputs.  ``--jobs`` is accepted but everything runs in one
thread: the checker and the planner are pure Python holding the interpreter
lock, and thread pools measured slower than serial runs.  Flag combinations
that cannot work (``extract --events`` without a trace, ``--compare``
without both methods, ``stats --kinds`` without ``--corpus`` or at file
granularity, ``--granularity file`` without ``--corpus``, ``normalize``
into a directory inside its input) exit 1 before any input is read.
Every command that reads deps loads the corpus and the records through
one loader, corpus first, so a bad corpus is reported before bad deps.  A
deps record that does not fit the corpus (an unknown name, a target that
is not earlier than its source) is reported at ``PATH:LINE:`` of the
pair's first record, found by reading the file again, and an item that
``extract`` finds does not verify at ``PATH:LINE:`` of its declaration,
found by tokenizing its source file again.
``simulate`` re-checks each planned item under its full preceding
environment.  Numeric flags cost time, never memory beyond the inputs':
``speedup --samples`` draws one pick per sample into per-node tallies, so
any positive count is accepted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import gen as gen_mod
from .corpus import item_line, parse_corpus, render_corpus
from .errors import DepkitError, NotVerifiableError
from .extract import (
    compare_json,
    compare_methods,
    event_lines,
    extract_corpus,
    read_edges_jsonl,
    record_line,
    write_edges_jsonl,
)
from .graph import (
    Granularity,
    build_graph,
    build_graph_from_edges,
    cumulative_csv,
    kind_table,
    stats,
    stats_json,
    to_dot,
)
from .learn import NonFiniteScoreError, evaluate_chrono, export_problems
from .normalize import normalize_corpus
from .rebuild import ChangeKind, ChangeSet, execute, plan, speedup_report


def _load(args, corpus_dir: str | None, granularity: Granularity | None = None):
    """The corpus at ``corpus_dir`` (None without one) and the ``--deps``
    records read under ``--method``, or, given a granularity, the graph
    built from them in place of the records.

    Every command that reads deps loads here, the corpus first.
    """
    if corpus_dir is None and granularity is Granularity.FILE:
        raise DepkitError("file granularity needs --corpus (edge records carry no file map)")
    corpus = None if corpus_dir is None else parse_corpus(corpus_dir)
    edges = read_edges_jsonl(args.deps, method=args.method)
    if granularity is None:
        return corpus, edges
    if corpus is None:
        return corpus, build_graph_from_edges(edges)
    return corpus, build_graph(corpus, edges, granularity)


def _located(args, err: Exception) -> str:
    """``err``'s message, after ``PATH:LINE: `` of the ``--deps`` record
    it names (``DepkitError.pair``), if it names one."""
    pair, deps = getattr(err, "pair", None), getattr(args, "deps", None)
    line = None if pair is None or deps is None else record_line(deps, pair, args.method)
    return str(err) if line is None else f"{deps}:{line}: {err}"


def _cmd_normalize(args) -> int:
    out_dir = Path(args.out_dir)
    if Path(args.in_dir).resolve() in out_dir.resolve().parents:
        # parse_corpus walks IN's subdirectories, so every later read of IN
        # would take the normalized copies for more items of its own.
        raise DepkitError(
            f"output directory {args.out_dir} is inside input directory {args.in_dir}"
        )
    corpus = parse_corpus(args.in_dir)
    normalized, reports = normalize_corpus(corpus)
    gen_mod.write_corpus(render_corpus(normalized), out_dir)
    report = {rel: rep.as_dict() for rel, rep in sorted(reports.items())}
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


def _cmd_extract(args) -> int:
    if args.events and args.mode == "minimize":
        raise DepkitError("--events requires --mode trace or both")
    if args.compare and args.mode != "both":
        raise DepkitError("--compare requires --mode both")
    corpus = parse_corpus(args.dir)
    try:
        result = extract_corpus(corpus, mode=args.mode, jobs=args.jobs)
    except NotVerifiableError as err:
        item = corpus.item(err.item_name)
        line = item_line(args.dir, item)
        path = os.path.join(args.dir, item.source_file)
        raise NotVerifiableError(err.item_name, err.reason, path, line) from None
    write_edges_jsonl(args.output, result)
    if args.events:
        lines = event_lines(corpus, result.trace_edges)
        Path(args.events).write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8"
        )
    if args.compare:
        report = compare_methods(corpus, result.trace_edges, result.minimization)
        Path(args.compare).write_text(compare_json(report), encoding="utf-8")
    return 0


def _cmd_stats(args) -> int:
    granularity = Granularity(args.granularity)
    if args.kinds and args.corpus is None:
        raise DepkitError("--kinds requires --corpus")
    if args.kinds and granularity is Granularity.FILE:
        raise DepkitError("--kinds requires --granularity item")
    _, g = _load(args, args.corpus, granularity)
    s = stats(g)
    if args.json == "-":
        sys.stdout.write(stats_json(s))
    elif args.json:
        Path(args.json).write_text(stats_json(s), encoding="utf-8")
        sys.stdout.write(s.table() + "\n")
    else:
        sys.stdout.write(stats_json(s))
        sys.stdout.write(s.table() + "\n")
    if args.kinds:
        sys.stdout.write(json.dumps(kind_table(g), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_export(args) -> int:
    _, g = _load(args, args.corpus, Granularity(args.granularity))
    Path(args.dot).write_text(to_dot(g), encoding="utf-8")
    return 0


def _cmd_cumulative(args) -> int:
    _, g = _load(args, args.corpus, Granularity(args.granularity))
    Path(args.csv).write_text(cumulative_csv(g), encoding="utf-8")
    return 0


def _parse_changes(specs: list[str]) -> ChangeSet:
    changes = []
    for spec in specs:
        name, _, suffix = spec.partition(":")
        if suffix not in ("", "body", "stmt"):
            raise DepkitError(f"change must be NAME[:body|:stmt], got {spec!r}")
        kind = ChangeKind.BODY_ONLY if suffix == "body" else ChangeKind.STATEMENT_OR_TYPE
        changes.append((name, kind))
    return ChangeSet(changes=tuple(changes))


def _cmd_simulate(args) -> int:
    corpus, g = _load(args, args.dir, Granularity.ITEM)
    changes = _parse_changes(args.change)
    rebuild_plan = plan(
        g, changes, granularity=Granularity(args.granularity), honor_opacity=args.opacity
    )
    report = execute(rebuild_plan, corpus)
    out = {
        "changed": list(rebuild_plan.changed),
        "granularity": rebuild_plan.granularity.value,
        "to_recheck": list(rebuild_plan.to_recheck),
        "skipped_opaque": sorted(rebuild_plan.skipped_opaque),
        "cost": rebuild_plan.cost,
        "execution": report.as_dict(),
    }
    sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_speedup(args) -> int:
    _, g = _load(args, args.dir, Granularity.ITEM)
    report = speedup_report(g, samples=args.samples, rng_seed=args.seed)
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _ranking(args) -> dict:
    """The ranker options that ``learn eval`` and ``learn export`` share."""
    return {"alpha": args.alpha, "weight": args.weight, "explicit_only": args.explicit_only}


def _cmd_learn_eval(args) -> int:
    corpus, edges = _load(args, args.dir)
    result = evaluate_chrono(corpus, edges, args.k, baseline_seed=args.seed, **_ranking(args))
    for key in ("recall_at_k", "baseline_recall_at_k"):
        if key in result:
            result[key] = {str(k): v for k, v in result[key].items()}
    sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_learn_export(args) -> int:
    corpus, edges = _load(args, args.dir)
    export_problems(corpus, edges, args.k, args.output, **_ranking(args))
    return 0


def _cmd_gen(args) -> int:
    files = gen_mod.generate_corpus(
        items=args.items, seed=args.seed, family=args.family, per_file=args.per_file
    )
    gen_mod.write_corpus(files, args.output)
    return 0


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_finite_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _cutoffs(text: str) -> list[int]:
    """Comma-separated positive integers, as in ``--k 1,10,50``; at least one."""
    cutoffs = [_positive_int(part) for part in text.split(",") if part]
    if not cutoffs:
        raise argparse.ArgumentTypeError(f"expected at least one cutoff, got {text!r}")
    return cutoffs


def _add_method(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method",
        choices=("any", "trace", "min"),
        default="any",
        help="which extraction method's edges to read (default: merged)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depkit",
        description="dependency extraction and analysis for micro-article corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="rewrite sources into normal form")
    p.add_argument("in_dir")
    p.add_argument("out_dir")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("extract", help="extract per-item dependencies")
    p.add_argument("dir")
    p.add_argument("-o", "--output", required=True, help="edge records (JSON lines)")
    p.add_argument("--mode", choices=("trace", "minimize", "both"), default="both")
    p.add_argument(
        "--jobs", type=_positive_int, default=1, help="accepted; runs serially either way"
    )
    p.add_argument("--events", help="also write the per-item progress message stream")
    p.add_argument("--compare", help="also write the trace/minimize comparison report")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("stats", help="dependency graph statistics")
    p.add_argument("deps")
    p.add_argument("--granularity", choices=("item", "file"), default="item")
    p.add_argument("--corpus", help="corpus directory (node kinds, files, isolated items)")
    p.add_argument("--json", help="write JSON to this path ('-' for stdout)")
    p.add_argument("--kinds", action="store_true", help="also print per-kind edge counts")
    _add_method(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("export", help="write the graph in DOT format")
    p.add_argument("deps")
    p.add_argument("--dot", required=True)
    p.add_argument("--granularity", choices=("item", "file"), default="item")
    p.add_argument("--corpus")
    _add_method(p)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("cumulative", help="cumulative reverse-dependency distribution")
    p.add_argument("deps")
    p.add_argument("--csv", required=True)
    p.add_argument("--granularity", choices=("item", "file"), default="item")
    p.add_argument("--corpus")
    _add_method(p)
    p.set_defaults(func=_cmd_cumulative)

    p = sub.add_parser("simulate", help="plan and run re-verification after edits")
    p.add_argument("dir")
    p.add_argument("--deps", required=True)
    p.add_argument(
        "--change",
        action="append",
        required=True,
        metavar="NAME[:body|:stmt]",
        help="edited item (repeatable); default flavor is stmt",
    )
    p.add_argument("--granularity", choices=("item", "file"), default="item")
    p.add_argument("--opacity", action="store_true", help="honor opacity pruning")
    _add_method(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("speedup", help="item-based vs file-based recheck cost")
    p.add_argument("dir")
    p.add_argument("--deps", required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument(
        "--jobs", type=_positive_int, default=1, help="accepted; runs serially either way"
    )
    _add_method(p)
    p.set_defaults(func=_cmd_speedup)

    p = sub.add_parser("learn", help="premise relevance learning")
    learn_sub = p.add_subparsers(dest="learn_command", required=True)

    q = learn_sub.add_parser("eval", help="chronological recall evaluation")
    q.add_argument("dir")
    q.add_argument("--deps", required=True)
    q.add_argument("--k", type=_cutoffs, default="1,10,50", help="comma-separated cutoffs")
    q.add_argument("--seed", type=int, default=42, help="random baseline seed")
    q.add_argument("--alpha", type=_positive_finite_float, default=1.0)
    q.add_argument("--weight", type=_finite_float, default=1.0)
    q.add_argument("--explicit-only", action="store_true")
    _add_method(q)
    q.set_defaults(func=_cmd_learn_eval)

    q = learn_sub.add_parser("export", help="write pruned problem files")
    q.add_argument("dir")
    q.add_argument("--deps", required=True)
    q.add_argument("--k", type=_positive_int, default=10)
    q.add_argument("-o", "--output", required=True)
    q.add_argument("--alpha", type=_positive_finite_float, default=1.0)
    q.add_argument("--weight", type=_finite_float, default=1.0)
    q.add_argument("--explicit-only", action="store_true")
    _add_method(q)
    q.set_defaults(func=_cmd_learn_export)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--items", type=_nonnegative_int, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--family", choices=gen_mod.FAMILIES, default="mixed")
    p.add_argument("--per-file", type=_positive_int, default=10)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteScoreError as err:
        parser.error(f"argument --alpha/--weight: {err}")
    except (DepkitError, OSError) as err:
        print(f"depkit: error: {_located(args, err)}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
