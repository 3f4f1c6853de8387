"""Set-up of one benchmark run, in a process of its own so that its memory
never counts toward the measured process's peak RSS.

    python3 perfbench/make_inputs.py WORKLOAD WORK_DIR ITEMS SEED

Prints ``{"setup_s": ..., "raw_setup_s": ...}``: the time to generate and
write the corpus and, for ``rebuild`` and ``learn``, to extract and write its
``deps.jsonl``; ``setup_s`` is scaled by speed probes as stages are.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


def main(argv: list[str]) -> int:
    workload, work, items, seed = argv[0], Path(argv[1]), int(argv[2]), int(argv[3])
    before = workloads.speed_probe()
    start = time.perf_counter()
    workloads.make_inputs(workload, work, items, seed)
    took = time.perf_counter() - start
    scaled = took * workloads.speed_factor(before, workloads.speed_probe())
    print(json.dumps({"setup_s": scaled, "raw_setup_s": took}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
