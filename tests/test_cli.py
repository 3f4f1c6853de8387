"""Command line wiring: exit codes, artifacts, determinism across --jobs."""

from __future__ import annotations

import json
import os

import pytest

from depkit.cli import build_parser, main
from depkit.corpus import ItemKind, parse_corpus

from conftest import FIXTURES


def run(args: list[str], capsys) -> tuple[int, str, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--items", "3"])  # no -o
    assert exc.value.code == 2


def test_extract_both_writes_method_tagged_edges(tmp_path, capsys):
    deps = tmp_path / "d.jsonl"
    code, _, _ = run(
        ["extract", "--mode", "both", str(FIXTURES / "redundant_hint"), "-o", str(deps)],
        capsys,
    )
    assert code == 0
    records = [json.loads(line) for line in deps.read_text().splitlines()]
    methods = {rec["method"] for rec in records}
    assert methods == {"trace", "min"}
    trace_pairs = {(r["from"], r["to"]) for r in records if r["method"] == "trace"}
    min_pairs = {(r["from"], r["to"]) for r in records if r["method"] == "min"}
    assert ("t", "h2") in trace_pairs and ("t", "h2") not in min_pairs


def test_extract_events_stream(tmp_path, capsys):
    deps = tmp_path / "d.jsonl"
    events = tmp_path / "events.txt"
    code, _, _ = run(
        [
            "extract", "--mode", "trace", str(FIXTURES / "redundant_hint"),
            "-o", str(deps), "--events", str(events),
        ],
        capsys,
    )
    assert code == 0
    lines = events.read_text().splitlines()
    assert lines[0] == "dependencies: (empty list)"
    assert lines[-1] == "dependencies: f h1 h2"


def test_domain_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "x.art").write_text("thm t : uses nothing;\n")
    deps = tmp_path / "d.jsonl"
    code, _, err = run(["extract", str(bad), "-o", str(deps)], capsys)
    assert code == 1
    assert "depkit: error:" in err


def test_paths_with_one_file_tag_get_distinct_fresh_labels(tmp_path, capsys):
    """``a-b.art`` and ``a_b.art`` both have the file tag ``a_b``: the later
    path's anonymous theorems are labeled with ``a_b__2``, and such a label
    survives normalization and a second extraction."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a-b.art").write_text("def d := lit;\nthm : uses d;\n")
    (corpus_dir / "a_b.art").write_text("thm : uses d;\nthen thm t : uses d;\n")
    deps = tmp_path / "d.jsonl"
    code, _, err = run(["extract", str(corpus_dir), "-o", str(deps)], capsys)
    assert code == 0, err
    sources = [json.loads(line)["from"] for line in deps.read_text().splitlines()]
    assert list(dict.fromkeys(sources)) == ["__n0_a_b", "__n0_a_b__2", "t"]
    out = tmp_path / "normalized"
    assert run(["normalize", str(corpus_dir), str(out)], capsys)[0] == 0
    assert (out / "a_b.art").read_text().splitlines()[0] == "thm __n0_a_b__2 : uses d;"
    code, _, err = run(["extract", str(out), "-o", str(tmp_path / "again.jsonl")], capsys)
    assert code == 0, err


def test_normalize_writes_sources_and_report(tmp_path, capsys):
    out = tmp_path / "out"
    code, _, _ = run(
        ["normalize", str(FIXTURES / "normalize_input"), str(out)], capsys
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["reserves.art"]["reservations_split"] == 1
    expected = (FIXTURES / "normalize_expected" / "links.art").read_text()
    assert (out / "links.art").read_text() == expected


def test_stats_table_and_json(tmp_path, capsys):
    deps = tmp_path / "d.jsonl"
    run(["extract", str(FIXTURES / "redundant_hint"), "-o", str(deps)], capsys)
    code, out, _ = run(
        ["stats", str(deps), "--corpus", str(FIXTURES / "redundant_hint"), "--json", "-"],
        capsys,
    )
    assert code == 0
    parsed = json.loads(out)
    assert parsed["items"] == 5
    code, out, _ = run(
        ["stats", str(deps), "--corpus", str(FIXTURES / "redundant_hint")], capsys
    )
    # default output carries both forms: the JSON block then the table
    assert out.splitlines()[0] == "{"
    assert any(line.startswith("Items") for line in out.splitlines())


def test_stats_file_granularity_requires_corpus(tmp_path, capsys):
    deps = tmp_path / "d.jsonl"
    run(["extract", str(FIXTURES / "redundant_hint"), "-o", str(deps)], capsys)
    code, _, err = run(["stats", str(deps), "--granularity", "file"], capsys)
    assert code == 1
    assert "corpus" in err


@pytest.mark.parametrize(
    "command,output", [("stats", "--json"), ("export", "--dot"), ("cumulative", "--csv")]
)
def test_file_granularity_without_corpus_exits_one_before_reading_deps(
    tmp_path, capsys, command, output
):
    missing = tmp_path / "nowhere.jsonl"
    out_path = tmp_path / "out"
    argv = [command, str(missing), "--granularity", "file", output, str(out_path)]
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err == (
        "depkit: error: file granularity needs --corpus (edge records carry no file map)\n"
    )
    assert not out_path.exists()


def test_export_rejects_a_name_dot_cannot_quote(tmp_path, capsys):
    deps = tmp_path / "d.jsonl"
    records = [
        {"from": 'b"x', "to": "a", "vis": "explicit", "opacity": "transparent", "method": "trace"},
        {"from": "c", "to": "a", "vis": "explicit", "opacity": "transparent", "method": "trace"},
    ]
    deps.write_text("".join(json.dumps(record) + "\n" for record in records))
    dot = tmp_path / "g.dot"
    code, out, err = run(["export", str(deps), "--dot", str(dot)], capsys)
    assert code == 1 and out == ""
    assert err == "depkit: error: item name 'b\"x' cannot be written to DOT\n"
    assert not dot.exists()
    # a name ending in a backslash cannot be written either
    records[0]["from"] = "b\\"
    deps.write_text("".join(json.dumps(record) + "\n" for record in records))
    assert run(["export", str(deps), "--dot", str(dot)], capsys)[0] == 1
    assert not dot.exists()
    # identifier names are written as before
    records[0]["from"] = "b"
    deps.write_text("".join(json.dumps(record) + "\n" for record in records))
    assert run(["export", str(deps), "--dot", str(dot)], capsys)[0] == 0
    assert '  "b" -> "a" [style=solid];' in dot.read_text().splitlines()


def test_export_and_cumulative(tmp_path, capsys):
    deps = tmp_path / "d.jsonl"
    run(["extract", str(FIXTURES / "five_files"), "-o", str(deps), "--mode", "trace"], capsys)
    dot = tmp_path / "g.dot"
    csv_path = tmp_path / "c.csv"
    assert run(
        ["export", str(deps), "--dot", str(dot), "--corpus", str(FIXTURES / "five_files")],
        capsys,
    )[0] == 0
    assert dot.read_text().startswith("digraph deps {")
    assert run(
        ["cumulative", str(deps), "--csv", str(csv_path), "--corpus", str(FIXTURES / "five_files")],
        capsys,
    )[0] == 0
    assert csv_path.read_text().splitlines()[0] == "threshold,item_count"


def test_simulate_reports_plan_and_execution(tmp_path, capsys):
    deps = tmp_path / "d.jsonl"
    run(["extract", str(FIXTURES / "opaque_chain"), "-o", str(deps)], capsys)
    code, out, _ = run(
        [
            "simulate", str(FIXTURES / "opaque_chain"), "--deps", str(deps),
            "--change", "a:body", "--opacity",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["to_recheck"] == ["a"]
    assert report["skipped_opaque"] == ["b", "c"]
    assert report["execution"]["failed"] == []


def test_speedup_json(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(["gen", "--items", "40", "--seed", "2", "-o", str(corpus_dir)], capsys)
    deps = tmp_path / "d.jsonl"
    run(["extract", str(corpus_dir), "-o", str(deps), "--mode", "trace"], capsys)
    code, out, _ = run(
        ["speedup", str(corpus_dir), "--deps", str(deps), "--samples", "25", "--seed", "3"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == 25
    assert report["ratio"] >= 1.0


def test_learn_eval_and_export(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(
        ["gen", "--items", "80", "--seed", "4", "--family", "symbols", "-o", str(corpus_dir)],
        capsys,
    )
    deps = tmp_path / "d.jsonl"
    run(["extract", str(corpus_dir), "-o", str(deps), "--mode", "trace"], capsys)
    code, out, _ = run(
        ["learn", "eval", str(corpus_dir), "--deps", str(deps), "--k", "1,10", "--seed", "5"],
        capsys,
    )
    assert code == 0
    metrics = json.loads(out)
    assert set(metrics["recall_at_k"]) == {"1", "10"}
    problems = tmp_path / "problems"
    code, _, _ = run(
        ["learn", "export", str(corpus_dir), "--deps", str(deps), "--k", "5",
         "-o", str(problems)],
        capsys,
    )
    assert code == 0
    assert sorted(problems.iterdir())


def test_gen_writes_requested_corpus(tmp_path, capsys):
    out = tmp_path / "c"
    code, _, _ = run(
        ["gen", "--items", "12", "--seed", "0", "--family", "chain", "--per-file", "5",
         "-o", str(out)],
        capsys,
    )
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "art0000.art", "art0001.art", "art0002.art",
    ]


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--kinds"], "--kinds requires --corpus"),
        (["--kinds", "--granularity", "file", "--corpus", "C"],
         "--kinds requires --granularity item"),
    ],
)
def test_stats_kinds_needs_an_item_graph_with_a_corpus(tmp_path, capsys, flags, message):
    """Rejected before any input is read: first on real inputs, then on
    paths that do not exist (``C`` stands for the corpus path)."""
    deps = tmp_path / "d.jsonl"
    corpus = str(FIXTURES / "redundant_hint")
    run(["extract", corpus, "-o", str(deps)], capsys)
    for deps_path, corpus_path in ((deps, corpus), (tmp_path / "no.jsonl", str(tmp_path / "no"))):
        argv = [corpus_path if flag == "C" else flag for flag in flags]
        code, out, err = run(["stats", str(deps_path), *argv], capsys)
        assert code == 1 and out == ""
        assert err == f"depkit: error: {message}\n"


def test_missing_corpus_directory_exits_one(tmp_path, capsys):
    deps = tmp_path / "d.jsonl"
    code, _, err = run(["extract", str(tmp_path / "nowhere"), "-o", str(deps)], capsys)
    assert code == 1
    assert "not found" in err


def test_events_without_trace_mode_exits_one(tmp_path, capsys):
    deps = tmp_path / "d.jsonl"
    code, _, err = run(
        ["extract", "--mode", "minimize", str(FIXTURES / "redundant_hint"),
         "-o", str(deps), "--events", str(tmp_path / "e.txt")],
        capsys,
    )
    assert code == 1
    assert "--events" in err
    assert not deps.exists()
    code, _, err = run(
        ["extract", "--mode", "trace", str(FIXTURES / "redundant_hint"),
         "-o", str(deps), "--compare", str(tmp_path / "c.json")],
        capsys,
    )
    assert code == 1
    assert "--compare" in err
    assert not deps.exists()


def test_pipeline_is_deterministic_across_processes(tmp_path):
    """Fresh interpreters with different hash seeds emit identical bytes."""
    import os
    import subprocess
    import sys as _sys
    from pathlib import Path

    import depkit

    # The children import the same depkit as this process.
    src = str(Path(depkit.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for hash_seed in ("0", "4242"):
        base = tmp_path / f"seed{hash_seed}"
        base.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)

        def cli(*argv):
            proc = subprocess.run(
                [_sys.executable, "-m", "depkit", *argv],
                capture_output=True, env=env, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        corpus_dir = base / "corpus"
        deps = base / "deps.jsonl"
        cli("gen", "--items", "45", "--seed", "9", "-o", str(corpus_dir))
        cli("extract", "--mode", "both", str(corpus_dir), "-o", str(deps))
        stdout = cli("stats", str(deps), "--corpus", str(corpus_dir), "--kinds")
        stdout += cli(
            "learn", "eval", str(corpus_dir), "--deps", str(deps), "--k", "1,5"
        )
        outputs.append((deps.read_bytes(), stdout))
    assert outputs[0] == outputs[1]


def test_jobs_produce_byte_identical_artifacts(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(["gen", "--items", "60", "--seed", "11", "-o", str(corpus_dir)], capsys)
    outputs = {}
    for jobs in ("1", "8"):
        deps = tmp_path / f"deps{jobs}.jsonl"
        events = tmp_path / f"events{jobs}.txt"
        code, _, _ = run(
            [
                "extract", "--mode", "both", "--jobs", jobs, str(corpus_dir),
                "-o", str(deps), "--events", str(events),
            ],
            capsys,
        )
        assert code == 0
        outputs[jobs] = (deps.read_bytes(), events.read_bytes())
    assert outputs["1"] == outputs["8"]


@pytest.mark.parametrize("jobs", ["0", "-3", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "corpus", "-o", "d.jsonl"],
        ["speedup", "corpus", "--deps", "d.jsonl", "--samples", "3"],
    ],
)
def test_nonpositive_jobs_exits_two(capsys, argv, jobs):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_nonpositive_samples_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["speedup", "corpus", "--deps", "d.jsonl", "--samples", "-1"])
    assert exc.value.code == 2


def test_negative_gen_items_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--items", "-1", "-o", str(tmp_path / "c")])
    assert exc.value.code == 2
    assert "--items" in capsys.readouterr().err


def test_zero_gen_per_file_exits_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--items", "3", "--per-file", "0", "-o", str(tmp_path / "c")])
    assert exc.value.code == 2
    assert "--per-file" in capsys.readouterr().err


def test_gen_refuses_to_keep_an_earlier_larger_corpus(tmp_path, capsys):
    """The second run would leave six files of the first in place; it exits 1
    naming the first of them and writes nothing, and regenerating the first
    corpus in place still works."""
    out = tmp_path / "c"
    assert run(["gen", "--items", "100", "--seed", "1", "-o", str(out)], capsys)[0] == 0
    code, _, err = run(["gen", "--items", "40", "--seed", "1", "-o", str(out)], capsys)
    assert code == 1
    assert "art0004.art" in err
    assert len(list(out.iterdir())) == 10
    assert run(["gen", "--items", "100", "--seed", "1", "-o", str(out)], capsys)[0] == 0


def _sources(directory) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.glob("*.art")}


def test_normalize_refuses_to_keep_an_earlier_larger_corpus(tmp_path, capsys):
    """Normalizing a 40-item corpus over the normalized 100-item one would
    leave six of its files in place, which ``extract`` then reads as part of
    the new corpus; it exits 1 naming the first of them and writes nothing.
    Normalizing the first corpus again, or its output in place, still works."""
    big, small, out = tmp_path / "big", tmp_path / "small", tmp_path / "n"
    assert run(["gen", "--items", "100", "--seed", "1", "-o", str(big)], capsys)[0] == 0
    assert run(["gen", "--items", "40", "--seed", "2", "-o", str(small)], capsys)[0] == 0
    assert run(["normalize", str(big), str(out)], capsys)[0] == 0
    before = _sources(out), (out / "report.json").read_bytes()
    code, _, err = run(["normalize", str(small), str(out)], capsys)
    assert code == 1
    assert "art0004.art" in err
    assert (_sources(out), (out / "report.json").read_bytes()) == before
    assert run(["normalize", str(big), str(out)], capsys)[0] == 0
    assert run(["normalize", str(out), str(out)], capsys)[0] == 0
    assert _sources(out) == before[0]
    code, _, err = run(["extract", str(out), "-o", str(tmp_path / "d.jsonl")], capsys)
    assert code == 0, err


def test_normalize_in_place_refuses_a_source_file_with_no_items(tmp_path, capsys):
    """A file that holds no items renders to no output file, so normalizing
    its directory in place would keep it beside the output: the run exits 1
    naming it and writes nothing."""
    corpus_dir = tmp_path / "c"
    corpus_dir.mkdir()
    (corpus_dir / "a.art").write_text("def d := lit;\nreserve x, y : d;\n")
    (corpus_dir / "notes.art").write_text("# nothing declared here\n")
    before = _sources(corpus_dir)
    code, _, err = run(["normalize", str(corpus_dir), str(corpus_dir)], capsys)
    assert code == 1
    assert "notes.art" in err
    assert _sources(corpus_dir) == before
    assert not (corpus_dir / "report.json").exists()


def test_normalize_refuses_an_output_inside_its_input(tmp_path, capsys):
    """An output directory inside the input would put the normalized copies
    where every later read of the input finds them: the run exits 1 naming
    both directories before it writes anything, and the input still reads."""
    corpus_dir = tmp_path / "c"
    assert run(["gen", "--items", "20", "--seed", "1", "-o", str(corpus_dir)], capsys)[0] == 0
    before = sorted(path.relative_to(corpus_dir) for path in corpus_dir.rglob("*"))
    for out in (corpus_dir / "n", corpus_dir / "a" / ".." / "n" / "deep"):
        code, _, err = run(["normalize", str(corpus_dir), str(out)], capsys)
        assert code == 1
        assert str(corpus_dir) in err and str(out) in err
    assert sorted(path.relative_to(corpus_dir) for path in corpus_dir.rglob("*")) == before
    code, _, err = run(["extract", str(corpus_dir), "-o", str(tmp_path / "d.jsonl")], capsys)
    assert code == 0, err


def test_normalize_writes_nested_sources(tmp_path, capsys):
    corpus_dir = tmp_path / "c"
    (corpus_dir / "sub" / "deep").mkdir(parents=True)
    (corpus_dir / "a.art").write_text("def d := lit;\n")
    (corpus_dir / "sub" / "deep" / "b.art").write_text("reserve x, y : d;\nthm t : var y;\n")
    out = tmp_path / "n"
    assert run(["normalize", str(corpus_dir), str(out)], capsys)[0] == 0
    assert (out / "sub" / "deep" / "b.art").read_text() == (
        "reserve x : d;\nreserve y : d;\nthm t : var y;\n"
    )
    assert run(["normalize", str(out), str(out)], capsys)[0] == 0


def test_learn_export_refuses_to_keep_an_earlier_larger_export(tmp_path, capsys):
    """Exporting a 40-item corpus's problems over the 100-item one's would
    leave problems of theorems the new corpus lacks; it exits 1 naming the
    first of them and writes nothing.  Exporting the first again works."""
    problems = tmp_path / "P"
    exports = []
    for items, seed in ((100, 1), (40, 2)):
        corpus_dir, deps = tmp_path / f"c{items}", tmp_path / f"d{items}.jsonl"
        assert run(["gen", "--items", str(items), "--seed", str(seed), "-o", str(corpus_dir)],
                   capsys)[0] == 0
        assert run(["extract", str(corpus_dir), "-o", str(deps)], capsys)[0] == 0
        exports.append(
            ["learn", "export", str(corpus_dir), "--deps", str(deps), "-o", str(problems)]
        )
    assert run(exports[0], capsys)[0] == 0
    before = {path.name: path.read_bytes() for path in problems.iterdir()}
    code, _, err = run(exports[1], capsys)
    assert code == 1
    theorems = {f"{item.name}.prb" for item in parse_corpus(tmp_path / "c40")
                if item.kind is ItemKind.THEOREM}
    assert f"{problems / min(set(before) - theorems)}: problem file" in err
    assert {path.name: path.read_bytes() for path in problems.iterdir()} == before
    assert run(exports[0], capsys)[0] == 0


def test_zero_gen_items_writes_an_empty_corpus(tmp_path, capsys):
    code, _, _ = run(["gen", "--items", "0", "-o", str(tmp_path / "c")], capsys)
    assert code == 0
    assert not list((tmp_path / "c").glob("*.art"))


def test_speedup_on_empty_corpus_exits_one_with_one_line(tmp_path, capsys):
    run(["gen", "--items", "0", "-o", str(tmp_path / "c0")], capsys)
    deps = tmp_path / "empty.jsonl"
    deps.write_text("")
    code, out, err = run(
        ["speedup", str(tmp_path / "c0"), "--deps", str(deps), "--samples", "3"], capsys
    )
    assert code == 1
    assert out == ""
    assert err == "depkit: error: speedup needs a graph with at least one item\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["learn", "eval", "corpus", "--deps", "d.jsonl", "--k", "1,x"],
        ["learn", "export", "corpus", "--deps", "d.jsonl", "--k", "-1", "-o", "out"],
    ],
)
def test_bad_cutoff_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("cutoffs", ["", ",", ",,"])
def test_cutoffs_that_name_no_cutoff_exit_two(tmp_path, capsys, cutoffs):
    """A ``--k`` with no cutoff in it would print empty recall maps; it is a
    usage error naming ``--k``, also when the corpus and deps are valid."""
    corpus_dir, deps = tmp_path / "corpus", tmp_path / "d.jsonl"
    run(["gen", "--items", "20", "--seed", "1", "-o", str(corpus_dir)], capsys)
    run(["extract", str(corpus_dir), "-o", str(deps), "--mode", "trace"], capsys)
    with pytest.raises(SystemExit) as exc:
        main(["learn", "eval", str(corpus_dir), "--deps", str(deps), "--k", cutoffs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --k: expected at least one cutoff" in captured.err


@pytest.mark.parametrize("command", ["eval", "export"])
@pytest.mark.parametrize(
    "option",
    ["--alpha=0", "--alpha=-1", "--alpha=nan", "--alpha=inf", "--alpha=x",
     "--weight=nan", "--weight=inf", "--weight=-inf"],
)
def test_alpha_or_weight_that_give_no_order_exit_two(capsys, command, option):
    argv = ["learn", command, "corpus", "--deps", "d.jsonl", option]
    if command == "export":
        argv += ["-o", "out"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert option.split("=")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "export"])
@pytest.mark.parametrize("weight", ["1e308", "-1e308"])
def test_weight_whose_scores_overflow_exits_two(tmp_path, capsys, command, weight):
    corpus, deps = tmp_path / "corpus", tmp_path / "d.jsonl"
    run(["gen", "--items", "40", "--seed", "1", "--family", "symbols", "-o", str(corpus)], capsys)
    run(["extract", str(corpus), "-o", str(deps)], capsys)
    argv = ["learn", command, str(corpus), "--deps", str(deps), f"--weight={weight}"]
    if command == "export":
        argv += ["-o", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--weight" in capsys.readouterr().err


def _deps_lines(tmp_path, capsys) -> tuple:
    deps = tmp_path / "d.jsonl"
    run(["extract", str(FIXTURES / "redundant_hint"), "-o", str(deps)], capsys)
    return deps, deps.read_text().splitlines()


def test_truncated_deps_line_exits_one_with_position(tmp_path, capsys):
    deps, lines = _deps_lines(tmp_path, capsys)
    deps.write_text("\n".join(lines[:2] + [lines[2][:20]]) + "\n")
    code, _, err = run(
        ["stats", str(deps), "--corpus", str(FIXTURES / "redundant_hint")], capsys
    )
    assert code == 1
    assert f"{deps}:3:" in err


def test_deps_record_without_vis_exits_one_with_position(tmp_path, capsys):
    deps, lines = _deps_lines(tmp_path, capsys)
    record = json.loads(lines[1])
    del record["vis"]
    lines[1] = json.dumps(record)
    deps.write_text("\n".join(lines) + "\n")
    code, _, err = run(
        ["speedup", str(FIXTURES / "redundant_hint"), "--deps", str(deps), "--samples", "2"],
        capsys,
    )
    assert code == 1
    assert f"{deps}:2:" in err and "vis" in err


@pytest.mark.parametrize("end", [{"from": ["t"]}, {"from": 1}, {"to": None}])
def test_deps_record_with_non_string_end_exits_one_with_position(tmp_path, capsys, end):
    deps, lines = _deps_lines(tmp_path, capsys)
    lines[1] = json.dumps({**json.loads(lines[1]), **end})
    deps.write_text("\n".join(lines) + "\n")
    code, out, err = run(["stats", str(deps)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"depkit: error: {deps}:2: malformed edge record") and err.count("\n") == 1


# Every command that reads deps, as its argv; DEPS, OUT and CORPUS are
# placeholders, filled in per test.
_DEPS_READERS = {
    "stats": ["stats", "DEPS"],
    "export": ["export", "DEPS", "--dot", "OUT", "--corpus", "CORPUS"],
    "cumulative": ["cumulative", "DEPS", "--csv", "OUT"],
    "simulate": ["simulate", "CORPUS", "--deps", "DEPS", "--change", "t"],
    "speedup": ["speedup", "CORPUS", "--deps", "DEPS", "--samples", "2"],
    "learn-eval": ["learn", "eval", "CORPUS", "--deps", "DEPS"],
    "learn-export": ["learn", "export", "CORPUS", "--deps", "DEPS", "-o", "OUT"],
}


@pytest.mark.parametrize(
    "method,command",
    [
        pytest.param(method, command, id=method if command == "stats" else f"{method}-{command}")
        for command in _DEPS_READERS
        for method in ["any", "trace", "min"]
    ],
)
@pytest.mark.parametrize(
    "record",
    [
        {"from": "t", "to": "d", "vis": "explicit", "opacity": "transparent"},
        {"from": "t", "to": "d", "vis": "explicit", "opacity": "transparent", "method": "bogus"},
        {"from": "t", "to": "d", "vis": "loud", "opacity": "transparent", "method": "min"},
    ],
)
def test_deps_record_malformed_under_any_method_exits_one_with_position(
    tmp_path, capsys, record, method, command
):
    """Every deps-reading command loads through one reader, so each reports
    the record's ``path:line`` and exits 1."""
    deps, lines = _deps_lines(tmp_path, capsys)
    lines[1] = json.dumps(record)
    deps.write_text("\n".join(lines) + "\n")
    fill = {
        "DEPS": str(deps), "OUT": str(tmp_path / "out"), "CORPUS": str(FIXTURES / "redundant_hint")
    }
    argv = [fill.get(arg, arg) for arg in _DEPS_READERS[command]]
    code, out, err = run(argv + ["--method", method], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"depkit: error: {deps}:2: malformed edge record") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command,line,end,name",
    [
        ("eval", 2, "to", "ghost"),  # unknown target
        ("eval", 2, "to", "t"),  # a target that is not earlier than its source
        ("export", 0, "from", "ghost"),  # unknown source
        ("export", 2, "to", "ghost"),
    ],
)
def test_learn_rejects_deps_that_do_not_match_the_corpus(
    tmp_path, capsys, command, line, end, name
):
    deps, lines = _deps_lines(tmp_path, capsys)
    lines[line] = json.dumps({**json.loads(lines[line]), end: name})
    deps.write_text("\n".join(lines) + "\n")
    problems = tmp_path / "problems"
    argv = ["learn", command, str(FIXTURES / "redundant_hint"), "--deps", str(deps)]
    code, out, err = run(argv + (["-o", str(problems)] if command == "export" else []), capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"depkit: error: {deps}:{line + 1}: dependencies do not match the corpus")
    assert name in err
    assert not problems.exists()


@pytest.mark.parametrize("command", [["learn", "eval"], ["learn", "export"], ["stats"]])
def test_the_first_of_two_bad_records_is_the_one_reported(tmp_path, capsys, command):
    """Learn commands name the first bad record in file order, as ``stats``
    does, not the first in their dependency map's order."""
    deps, lines = _deps_lines(tmp_path, capsys)
    record = json.loads(lines[0])
    lines.insert(3, json.dumps({**record, "from": "t", "to": "ghost"}))
    lines.append(json.dumps({**record, "from": "h1", "to": "ghost2"}))
    deps.write_text("\n".join(lines) + "\n")
    corpus = str(FIXTURES / "redundant_hint")
    if command == ["stats"]:
        argv = ["stats", str(deps), "--corpus", corpus]
    else:
        argv = command + [corpus, "--deps", str(deps)]
        argv += ["-o", str(tmp_path / "problems")] if command[1] == "export" else []
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"depkit: error: {deps}:4: ")
    assert "ghost" in err


@pytest.mark.parametrize("mode", ["both", "trace", "minimize"])
def test_extract_names_the_line_of_an_item_that_does_not_verify(tmp_path, capsys, mode):
    corpus_dir = tmp_path / "c"
    corpus_dir.mkdir()
    (corpus_dir / "x.art").write_text("def d := lit;\nthm a : uses d by d;\n\nthm h : uses zz;\n")
    out_path = tmp_path / "out"
    code, out, err = run(["extract", str(corpus_dir), "-o", str(out_path), "--mode", mode], capsys)
    assert code == 1 and out == ""
    assert err == (
        f"depkit: error: {corpus_dir / 'x.art'}:4: item 'h' does not verify under its "
        "full environment (UnresolvedSymbol)\n"
    )
    assert not out_path.exists()


def test_non_utf8_source_exits_one_with_path(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "ok.art").write_text("def a := lit;\n")
    (corpus_dir / "latin1.art").write_bytes("def a2 := lit;\n# caf\u00e9\n".encode("latin-1"))
    code, _, err = run(["extract", str(corpus_dir), "-o", str(tmp_path / "d.jsonl")], capsys)
    assert code == 1
    assert "latin1.art:2:" in err


def test_duplicate_name_in_one_file_exits_one_with_its_line(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "a.art").write_text("def f := lit;\n\ndef f := lit;")
    deps = tmp_path / "d.jsonl"
    code, out, err = run(["extract", str(corpus_dir), "-o", str(deps)], capsys)
    assert code == 1 and out == ""
    assert err == (
        "depkit: error: a.art:3: duplicate item name 'f' (first in a.art, again in a.art)\n"
    )
    assert not deps.exists()


@pytest.mark.parametrize("entry", ["dangling-symlink", "fifo"])
def test_an_art_entry_that_is_not_a_file_exits_one_naming_it(tmp_path, capsys, entry):
    """It used to be skipped, and ``extract`` wrote the other files' records."""
    corpus_dir = tmp_path / "c"
    argv = ["gen", "--items", "20", "--seed", "1", "--family", "chain", "-o", str(corpus_dir)]
    assert run(argv, capsys)[0] == 0
    bad = corpus_dir / "zz.art"
    if entry == "fifo":
        os.mkfifo(bad)
    else:
        bad.symlink_to("missing.art")
    code, out, err = run(["extract", str(corpus_dir), "-o", str(tmp_path / "d.jsonl")], capsys)
    assert code == 1 and out == ""
    assert err == f"depkit: error: {bad}: source entry is not a readable file\n"
    assert not (tmp_path / "d.jsonl").exists()


def test_learn_export_k_beyond_any_index_exits_zero_with_every_candidate(tmp_path, capsys):
    """A cutoff above ``sys.maxsize`` ranks every earlier item, as a cutoff
    above the corpus size does; it used to end in an ``islice`` traceback."""
    deps, _ = _deps_lines(tmp_path, capsys)
    argv = ["learn", "export", str(FIXTURES / "redundant_hint"), "--deps", str(deps)]
    assert run(argv + ["--k", "99999999999999999999", "-o", str(tmp_path / "huge")], capsys)[0] == 0
    assert run(argv + ["--k", "1000", "-o", str(tmp_path / "all")], capsys)[0] == 0
    huge = {path.name: path.read_bytes() for path in (tmp_path / "huge").iterdir()}
    assert huge and huge == {path.name: path.read_bytes() for path in (tmp_path / "all").iterdir()}


def test_a_huge_sample_count_is_not_a_usage_error():
    """``speedup --samples`` has no upper bound: memory follows the graph and
    time the count (see ``rebuild.speedup_report``), so the parser accepts
    any positive integer.  Only the parse is run here."""
    args = build_parser().parse_args(
        ["speedup", "c", "--deps", "d.jsonl", "--samples", "99999999999999999999"]
    )
    assert args.samples == 99999999999999999999


# Each deps-reading command with a corpus, as argv with placeholders.
_CORPUS_DEPS_READERS = {
    "stats": ["stats", "DEPS", "--corpus", "CORPUS"],
    "stats-file": ["stats", "DEPS", "--corpus", "CORPUS", "--granularity", "file"],
    "export": ["export", "DEPS", "--dot", "OUT", "--corpus", "CORPUS"],
    "cumulative": ["cumulative", "DEPS", "--csv", "OUT", "--corpus", "CORPUS"],
    "simulate": ["simulate", "CORPUS", "--deps", "DEPS", "--change", "t"],
    "speedup": ["speedup", "CORPUS", "--deps", "DEPS", "--samples", "2"],
    "learn-eval": ["learn", "eval", "CORPUS", "--deps", "DEPS"],
    "learn-export": ["learn", "export", "CORPUS", "--deps", "DEPS", "-o", "OUT"],
}


@pytest.mark.parametrize("command", sorted(_CORPUS_DEPS_READERS))
@pytest.mark.parametrize(
    "pair",
    [("zz", "f"), ("t", "zz"), ("f", "t"), ("t", "t")],
    ids=["unknown-from", "unknown-to", "forward", "self"],
)
@pytest.mark.parametrize("method,line", [("any", 4), ("trace", 11)])
def test_deps_record_that_does_not_fit_the_corpus_names_its_line(
    tmp_path, capsys, command, pair, method, line
):
    """A well-formed record whose pair does not fit the corpus (an unknown
    name, or a target not earlier than its source) is reported at the line
    of the pair's first record that the ``--method`` filter reads, and the
    command exits 1 without writing output."""
    deps, lines = _deps_lines(tmp_path, capsys)
    src, dst = pair
    record = {"from": src, "to": dst, "vis": "explicit", "opacity": "transparent"}
    lines.insert(3, json.dumps({**record, "method": "min"}))
    lines.append(json.dumps({**record, "method": "trace"}))
    assert len(lines) == 11
    deps.write_text("\n".join(lines) + "\n")
    out_path = tmp_path / "out"
    fill = {"DEPS": str(deps), "OUT": str(out_path), "CORPUS": str(FIXTURES / "redundant_hint")}
    argv = [fill.get(arg, arg) for arg in _CORPUS_DEPS_READERS[command]]
    code, out, err = run(argv + ["--method", method], capsys)
    assert code == 1 and out == "" and not out_path.exists()
    assert err.startswith(f"depkit: error: {deps}:{line}: ") and err.count("\n") == 1
