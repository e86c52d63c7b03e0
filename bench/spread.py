"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workload blowup-hosts --seeds 1-10 --seconds 40

For every end-to-end metric, and for the unscaled figures of each run's
provenance line (`unscaled.*`), it prints the median over the seeds, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", default="40")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        unscaled = json.loads(lines[0])["provenance"]["unscaled"]
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result", file=sys.stderr)
            return 1
        row = {name: m["value"] for name, m in result["metrics"].items()}
        row.update((f"unscaled.{name}", value) for name, value in unscaled.items())
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values.setdefault(name, []).append(value)

    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) < 2:
            q1 = q3 = med
        else:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
