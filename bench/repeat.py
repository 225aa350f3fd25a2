#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py --runs 10 [--workload NAME ...] [--trace 0|1 ...] [--out FILE]

Each run is ``run.py --workload W --seed S --trace T`` in its own process,
with seeds first-seed..first-seed+runs-1.  For every workload and metric
it prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread, the interquartile distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  ``--out`` writes
all of it as JSON, under ``end_to_end`` (trace 0) and ``per_layer``
(trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 900


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
            "values": values}


def measure(name: str, trace: int, args, bench: dict) -> dict:
    values: dict[str, list[float]] = {}
    walls, failed = [], 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=TIMEOUT_S, check=False)
        walls.append(time.perf_counter() - start)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name} seed {seed}: exit code {proc.returncode}")
            failed += 1
            continue
        result = json.loads(lines[-1])
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            values.setdefault(metric, []).append(m["value"])
    return {"metrics": {metric: summarize(v) for metric, v in values.items() if len(v) >= 2},
            "run_wall_s": summarize(walls), "failed_ops": failed}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), action="append")
    parser.add_argument("--out")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "runs": args.runs,
              "first_seed": args.first_seed}
    ok = True
    for trace in args.trace or [0]:
        section = report.setdefault("per_layer" if trace else "end_to_end", {})
        for name in names:
            section[name] = measure(name, trace, args, bench)
            ok = ok and section[name]["failed_ops"] == 0
            print(f"{name} trace {trace}: runs {args.runs}, median run wall "
                  f"{section[name]['run_wall_s']['median']:.1f} s, "
                  f"failed ops {section[name]['failed_ops']}")
            for metric, s in section[name]["metrics"].items():
                bound = bounds.get(metric) if not trace else None
                spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
                print(f"  {metric:38s} median {s['median']:12.6g} spread {spread:>7s}"
                      + (f"  bound {bound}" if bound is not None else ""))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
