"""Run one workload once per seed and report each metric's spread.

    python3 bench/spread.py --workload heavy-leaf --seeds 1 10 --seconds 10

Run from the repository root. For each metric it prints the median over the
runs and the distance between the first and third quartiles as a share of
the median, as ``statistics.quantiles(values, n=4)`` gives them, beside the
metric's bound in BENCHMARK.json. The benchmark is steady when every spread
but that of ``setup_s`` is well inside its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=900)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} requests failed")
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)

    print(f"\n{'metric':28s} {'median':>12s} {'spread':>8s} bound")
    for key, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{key:28s} {median:12.6g} {spread:8.4f} {bounds.get(key)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
