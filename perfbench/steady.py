#!/usr/bin/env python3
"""Steadiness check: run each workload N times and print the spread.

    python3 perfbench/steady.py [--workload <name> ...] [--runs 10]
                                [--seconds S] [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed .. first-seed + runs - 1)
and prints, per end-to-end metric, the median, the quartiles (Python's
statistics.quantiles(n=4)), the spread (q3 - q1) / median, and min/max.
Beside them it prints the same figures for the in-process calibration loops,
so machine drift can be told apart from the program's own variation. The
bounds in BENCHMARK.json are set from these figures (see README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (same directory)


def spread_row(name, values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    rel = (q3 - q1) / med if med else 0.0
    return (f"  {name:<22} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
            f" spread {rel:6.3f}  min {min(values):<12.6g}"
            f" max {max(values):.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {}
    bench = HERE.parent / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text())
        for m in spec["end_to_end"]:
            bounds[m["name"]] = m["bound"]
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
    if args.seconds is None:
        args.seconds = 20.0

    status = 0
    for workload in args.workload or run.WORKLOADS:
        results, alu, mix, failed = [], [], [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})", file=sys.stderr)
                status = 1
                continue
            prov = json.loads(lines[-2].split(" ", 1)[1])
            res = json.loads(lines[-1])
            results.append(res)
            alu.extend(prov["calibration_alu_s"])
            mix.extend(prov["calibration_mix_s"])
            failed.append(res["failed"] / res["attempted"])
            if not res["correct"]:
                status = 1
        if not results:
            continue
        print(f"{workload}: {len(results)} runs of {args.seconds:g} s, "
              f"failed share {sorted(set(failed))}")
        for name in results[0]["metrics"]:
            row = spread_row(name, [r["metrics"][name]["value"]
                                    for r in results])
            bound = bounds.get(name)
            print(row + (f"  bound {bound}" if bound is not None else ""))
        print(spread_row("calibration_alu_s", alu))
        print(spread_row("calibration_mix_s", mix))
    return status


if __name__ == "__main__":
    sys.exit(main())
