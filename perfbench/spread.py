#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's median,
quartiles and spread (quartile distance over median).

    python3 perfbench/spread.py --workload serve --seeds 1-10

Reads `run_seconds` from BENCHMARK.json and runs the end-to-end metrics
(`--trace 0`); prints a markdown table.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values, shares = {}, []
    for seed in range(first, last + 1):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        print(f"seed {seed}: {json.dumps(result)}", file=sys.stderr)
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs failed their checks")
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{args.workload}, seeds {args.seeds}, failed shares {sorted(set(shares))}")
    print("| metric | median | q1 | q3 | spread |")
    print("| --- | --- | --- | --- | --- |")
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} |")


if __name__ == "__main__":
    main()
