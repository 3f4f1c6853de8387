"""Smoke run of the benchmark on a 60-item corpus.

Every metric BENCHMARK.json names is emitted with its unit, the
workload-specific metrics appear on the detail line, and every output
check passes.  Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DETAILS = {
    "extract": {"extract_s": "s", "minimize_s": "s"},
    "rebuild": {"graph_s": "s", "simulate_ms": "ms", "plans_per_s": "1/s"},
    "learn": {"learn_eval_s": "s", "learn_export_s": "s"},
}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "0", "--trace", str(trace), "--items", "60"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_checks_pass(workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        *_, detail_line, result_line = proc.stdout.strip().splitlines()
        detail, result = json.loads(detail_line), json.loads(result_line)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[section]
        }
        assert {n: m["unit"] for n, m in detail["details"].items()} == {
            **DETAILS[workload], "fail_ratio": "ratio", "raw_wall_s": "s", "raw_setup_s": "s"
        }
        assert detail["details"]["fail_ratio"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "extract", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
