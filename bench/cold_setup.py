"""One set-up of a workload in a fresh interpreter, for run.py's `setup_s`.

    python3 bench/cold_setup.py jump-search 1

Times `import satedge` (and `satedge.cli`) and the workload's seeded input
generation, runs the reference kernel before and during them, and prints
`[raw seconds, scale]` as JSON.  Before the clock starts, only this file's
own imports (importlib, json, pathlib) and the kernel's (random, signal,
statistics) are loaded, so every other module satedge imports is loaded
inside the timed region.  The benchmark's workload module is imported between the two
timed parts.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

from reference import Sampler, reference, scale

SRC = Path(__file__).resolve().parent.parent / "src"
PROBES = 5


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(SRC))
    probes = [reference() for _ in range(PROBES)]
    sampler = Sampler()
    with sampler:
        t0 = time.perf_counter()
        se = importlib.import_module("satedge")
        importlib.import_module("satedge.cli")
        t1 = time.perf_counter()
    from workloads import WORKLOADS

    with sampler:
        t2 = time.perf_counter()
        WORKLOADS[workload].setup(se, seed)
        t3 = time.perf_counter()
    raw = t1 - t0 + t3 - t2 - sampler.spent
    print(json.dumps([raw, scale(probes + sampler.samples)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
