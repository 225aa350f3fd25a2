#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy sizes.

    python3 bench/selftest.py

For every workload it runs ``run.py --toy`` untraced and traced, each in
its own process, and checks that:

- the result line has exactly the contract's keys and no failed op;
- every end-to-end metric of BENCHMARK.json is emitted, with its unit, as
  a finite nonzero number, and likewise every per-layer metric when traced;
- every boundary the workload exercises (``layers`` in workloads.json)
  has nonzero ``calls`` in the traced run, every ``idle`` one has 0, and
  isolet-cli makes exactly 0 ``regen.*`` calls.

It also checks that a directory holding only BENCHMARK.json and bench/
makes the benchmark exit nonzero without a result line.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
TIMEOUT_S = 300


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run(args: list[str], cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable] + args, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=TIMEOUT_S,
                          check=False)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(errors: list[str], label: str, code: int, lines: list[str],
                 declared: list[dict]) -> None:
    if code != 0 or not lines:
        errors.append(f"{label}: exit code {code}, {len(lines)} stdout lines")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}")
    units = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(units):
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(result['metrics']) ^ set(units))}")
    for name, metric in result["metrics"].items():
        if metric.get("unit") != units.get(name):
            errors.append(f"{label}: {name} has unit {metric.get('unit')!r}")
        if not isinstance(metric.get("value"), (int, float)) or not math.isfinite(metric["value"]):
            errors.append(f"{label}: {name} value {metric.get('value')!r} is not finite")


def check_boundaries(errors: list[str], name: str, spec: dict, totals: dict) -> None:
    for boundary in spec["layers"]:
        if totals.get(f"{boundary}.calls", 0) <= 0:
            errors.append(f"{name}: traced run made no {boundary} call")
    for boundary in spec["idle"]:
        if totals.get(f"{boundary}.calls", 0) != 0:
            errors.append(f"{name}: traced run called idle boundary {boundary}")
    if spec["kind"] == "cli":
        regen = {k: v for k, v in totals.items()
                 if (k.startswith("regen.") and k.endswith(".calls")) or k == "regen.selected_dims"}
        if any(regen.values()):
            errors.append(f"{name}: regen was called on the static CLI path: {regen}")


def check_bare_directory(errors: list[str]) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT_DIR)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(["bench/run.py", "--workload", "overlap-dyn128", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare)
        if code == 0 or any(line.startswith("{") for line in lines):
            errors.append(f"bare directory: exit code {code}, stdout {lines[-1:]}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    errors: list[str] = []
    for entry in bench["workloads"]:
        name = entry["name"]
        common = [RUN, "--workload", name, "--seed", "0", "--seconds", "0", "--toy"]
        code, lines = run(common + ["--trace", "0"])
        check_result(errors, f"{name} trace 0", code, lines, bench["end_to_end"])
        if code == 0 and lines:
            zero = [k for k, m in json.loads(lines[-1])["metrics"].items() if m["value"] == 0]
            if zero:
                errors.append(f"{name}: end-to-end metrics read 0: {zero}")
        code, lines = run(common + ["--trace", "1"])
        check_result(errors, f"{name} trace 1", code, lines, bench["per_layer"])
        record = load_json(os.path.join(OUT_DIR, f"{name}-seed0-trace1.json"))
        check_boundaries(errors, name, workloads[name], record["detail"].get("totals", {}))
    check_bare_directory(errors)
    for error in errors:
        print("FAIL", error)
    print("selftest:", "ok" if not errors else f"{len(errors)} failures")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
