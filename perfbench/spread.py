"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S] [WORKLOAD ...]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
for each workload, one run at a time, and prints for every end-to-end metric
the median of the runs and the distance between the first and third
quartile as a share of the median, beside a third of the metric's bound.
Results are also appended to perfbench/.work/spread.jsonl.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    log = BENCH / ".work" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    ok = True
    for name in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": seed, **result}) + "\n")
            ok &= result["correct"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(
                f"{name:<9} {metric['name']:<12} median {med:10.4f}  "
                f"spread {(q3 - q1) / med:6.3f}  (bound/3 {metric['bound'] / 3:.3f})",
                flush=True,
            )
    print("all runs correct" if ok else "SOME RUNS INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
