"""Record the sha256 of every artifact, per workload and seed, in reference.json.

    python3 perfbench/record_digests.py SEED [SEED ...]

Run from the repository root, and only when an output is meant to change.
For each seed and workload it makes the inputs at the gated item count and
runs one untimed iteration; it records nothing if an output check fails.
"""

import json
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


def digests_for(workload: str, seed: int) -> dict[str, str]:
    work = ROOT / ".perfbench-work" / f"record-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workloads.make_inputs(workload, work, workloads.ITEMS, seed)
        checks = workloads.Checks()
        digests = workloads.RUNNERS[workload](work, seed, workloads.Clock(), checks)
        if workload != "extract":
            digests["deps.jsonl"] = workloads.file_digest(work / "deps.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if checks.failed:
        raise SystemExit(f"{workload} seed {seed}: checks failed: {checks.messages}")
    return dict(sorted(digests.items()))


def main(seeds: list[int]) -> int:
    path = BENCH / "reference.json"
    for seed in seeds:
        for workload in workloads.RUNNERS:
            digests = digests_for(workload, seed)
            reference = json.loads(path.read_text(encoding="utf-8"))
            reference["digests"].setdefault(workload, {})[str(seed)] = digests
            path.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")
            print(f"{workload} seed {seed}: {digests}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main([int(arg) for arg in sys.argv[1:]]))
