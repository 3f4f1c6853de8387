"""depkit benchmark: one closed-loop workload per run, outputs checked.

    python3 perfbench/run.py --workload {extract,rebuild,learn} --seed N \\
        --seconds S --trace {0,1} [--items N]

Run from the repository root.  Set-up (``make_inputs.py``) runs SETUP_RUNS
times, each in a child process; ``setup_s`` is their median.  The measured
process then repeats the workload's iteration until ``--seconds`` have
passed (at least once) with one caller and ``jobs=2``.  Reported times are
scaled to the reference machine speed by speed probes (see
``workloads.Clock``); the unscaled ones are on the detail line.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``wall_s`` (median
iteration time), ``peak_rss_mb`` (this process; set-up never runs here).
``--trace 1`` alternates an untraced and a traced iteration and prints the
per-layer metrics (medians over traced iterations, unscaled) plus
``trace.overhead_s`` = traced minus untraced median unscaled wall time; the
spans of the last traced iteration go to
``.perfbench-work/trace-<workload>-<seed>.json.gz``.

Either way the line before the result carries the workload-specific
metrics (``extract_s``, ``simulate_ms``, ...), ``fail_ratio``, the unscaled
``raw_wall_s`` and ``raw_setup_s``, and the sha256 of every artifact.  Artifacts are compared against
``reference.json`` when it records the seed at the gated item count.
``--items`` overrides the corpus size for scaling tables; only the default
is gated.  The last line is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 150


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_setup(workload: str, work: Path, items: int, seed: int) -> dict[str, float]:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "make_inputs.py"), workload, str(work), str(items), str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_digests(workload: str, items: int, seed: int) -> dict[str, str]:
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    if items != reference["items"]:
        return {}
    return reference["digests"].get(workload, {}).get(str(seed), {})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=("extract", "rebuild", "learn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None, help="corpus size (default 3000, gated)")
    args = parser.parse_args(argv)

    if not (SRC / "depkit" / "__init__.py").is_file():
        return fail(f"no depkit sources under {SRC.relative_to(ROOT)}/; run from a checkout")
    sys.path.insert(0, str(SRC))
    import depkit

    if Path(depkit.__file__).resolve().parent != (SRC / "depkit").resolve():
        return fail(f"imported depkit from {depkit.__file__}, not from this checkout")
    import tracing
    import workloads

    items = workloads.ITEMS if args.items is None else args.items
    runner = workloads.RUNNERS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    checks = workloads.Checks()
    expected = expected_digests(args.workload, items, args.seed)
    seen_digests: dict[str, str] = {}

    def iterate(tracer=None) -> workloads.Clock:
        gc.collect()  # every iteration starts from the same heap, not mid-way to a full collection
        clock = workloads.Clock(tracer)
        digests = runner(work, args.seed, clock, checks)
        for name, digest in digests.items():
            first = seen_digests.setdefault(name, digest)
            checks.expect(first == digest, f"{name} differs between iterations")
            if name in expected:
                checks.expect(expected[name] == digest, f"{name} differs from reference.json")
        return clock

    try:
        try:
            setups = [run_setup(args.workload, work, items, args.seed) for _ in range(SETUP_RUNS)]
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
            return fail(str(err))
        if args.workload != "extract":
            seen_digests["deps.jsonl"] = workloads.file_digest(work / "deps.jsonl")
            if "deps.jsonl" in expected:
                checks.expect(
                    expected["deps.jsonl"] == seen_digests["deps.jsonl"],
                    "deps.jsonl differs from reference.json",
                )

        clocks: list = []
        traced: list = []
        start = time.perf_counter()
        try:
            while True:
                clocks.append(iterate())
                if args.trace:
                    tracer = tracing.Tracer()
                    tracer.install()
                    try:
                        clock = iterate(tracer)
                    finally:
                        tracer.uninstall()
                    traced.append((clock.wall(scaled=False), tracing.layer_metrics(tracer.spans), tracer))
                if time.perf_counter() - start >= args.seconds:
                    break
        except Exception:  # the program under test failed: report, do not crash
            traceback.print_exc()
            checks.count(1, 1, "iteration raised an exception")

        digests = dict(seen_digests)
        if args.trace:
            metrics = {}
            if traced:
                traced[-1][2].dump(WORK / f"trace-{args.workload}-{args.seed}.json.gz")
                metrics = {key: median(m[key] for _, m, _ in traced) for key in traced[0][1]}
                metrics["trace.overhead_s"] = median(w for w, _, _ in traced) - median(
                    c.wall(scaled=False) for c in clocks
                )
        else:
            metrics = {
                "setup_s": median(s["setup_s"] for s in setups),
                "wall_s": median(c.wall() for c in clocks) if clocks else 0.0,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        detail = workloads.details(args.workload, clocks) if clocks else {}
        detail["raw_setup_s"] = median(s["raw_setup_s"] for s in setups)
        if clocks:
            detail["raw_wall_s"] = median(c.wall(scaled=False) for c in clocks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail_out = {key: {"value": value, "unit": workloads.unit_of(key)} for key, value in detail.items()}
    detail_out["fail_ratio"] = {"value": checks.failed / max(checks.attempted, 1), "unit": "ratio"}
    print(
        f"{args.workload} seed={args.seed} items={items}: {len(clocks)} iterations, "
        f"setup runs {SETUP_RUNS}, trace={args.trace}; iteration wall_s "
        + " ".join(f"{c.wall():.3f}" for c in clocks)
        + " (unscaled " + " ".join(f"{c.wall(scaled=False):.3f}" for c in clocks) + ")"
    )
    for message in checks.messages:
        print(f"check failed: {message}")
    print(json.dumps({"workload": args.workload, "details": detail_out, "digests": digests}))
    correct = checks.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(checks.attempted, 1),
                "failed": checks.failed,
                "metrics": {k: {"value": v, "unit": workloads.unit_of(k)} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
