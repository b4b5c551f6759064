"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cli [--seeds 1-10] [--seconds 20]

Runs the benchmark once per seed, one run at a time, and prints for each
end_to_end metric its median and the distance between its first and third
quartile as a share of the median, next to a third of the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from summary import spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    first, last = (int(s) for s in args.seeds.split("-"))
    values: dict[str, list[float]] = {m["name"]: [] for m in declared["end_to_end"]}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v:.4f}" for k, v in row.items()), flush=True)
        for name, value in row.items():
            values[name].append(value)
    for m in declared["end_to_end"]:
        vals = values[m["name"]]
        print(f"{args.workload} {m['name']}: median {statistics.median(vals):.4f} "
              f"spread {spread(vals):.4f} (a third of the bound: {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
