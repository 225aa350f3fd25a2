#!/usr/bin/env python3
"""Benchmark of hdclass on seeded, ISOLET-shaped synthetic workloads.

Run from the repository root:

    python3 bench/run.py
        every workload, each in its own process, untraced and then traced;
        prints every metric with its unit and exits nonzero on a failure
    python3 bench/run.py --workload overlap-dyn128 --seed 3 --seconds 40 --trace 0
        one workload in this process

With ``--workload`` the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  ``failed / attempted`` is the failed-ops
ratio.  An op is one train() call, one test-split evaluation or one CLI
command; it fails on an exception, a nonzero exit code or a failed output
check, and any failure makes the exit code nonzero.  Every sample,
provenance and, when traced, the spans go to ``.bench_out/``.

Workload parameters, the reason for each workload and its map from layer
to end-to-end metric are in ``bench/workloads.json``.  Inputs come from
``--seed`` only: a run covers the data instances ``n * seed + j`` for
``j < n``, with ``n`` the workload's ``instances``, and each instance is
the workload's definition with that seed.  The package is imported from
``src/`` beside this directory; without it the run exits nonzero and
prints no result.

Load model: one process per run, closed loop, one caller, no threads
beyond the numpy/BLAS defaults.  Wall-time scaling across cores is not
measured.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

from spans import Tracer, instrumented

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SRC_DIR = os.path.join(ROOT, "src")

# End-to-end runs wrap only train(), once per call, to time it inside
# ``hdclass train`` as well as when called directly.
PROBE = {"learner.train"}
# Set-up repeats until this budget is spent, at least MIN_SETUPS times
# (and once per instance) and at most MAX_SETUPS times.
MIN_SETUPS = 3
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 100
CHILD_TIMEOUT_S = 900

cli = dio = learner = metrics = serialize = None


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_package() -> None:
    """Import hdclass from this checkout's src/, never from elsewhere."""
    global cli, dio, learner, metrics, serialize
    sys.path.insert(0, SRC_DIR)
    import hdclass
    from hdclass import cli, learner, metrics, serialize
    from hdclass import data as dio

    where = os.path.dirname(os.path.abspath(hdclass.__file__))
    if where != os.path.join(SRC_DIR, "hdclass"):
        raise ImportError(f"hdclass was imported from {where}, not from {SRC_DIR}")


class CheckFailed(Exception):
    """An output of the program did not pass its check."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ops:
    """Attempted and failed ops of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, fn):
        """Run one op; on failure record it and return None."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # the run reports the failure and stops
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{label}: {exc!r}")
            return None


def make_splits(data: dict, seed: int):
    ds = dio.synth_blobs(data["n_features"], data["k_classes"], data["per_class"],
                         data["separation"], seed)
    order = np.random.default_rng(seed + 1000).permutation(ds.n_samples)
    ds = dio.Dataset(ds.features[order], ds.labels[order], ds.names, ds.meta)
    return dio.split(ds, data["fractions"], stratified=True, seed=seed)


class Workload:
    """Set-up and one timed sequence of ops per data instance.

    An instance is one seed: the data, the split and the training seed
    all derive from it.  Subclasses define ``prepare`` and ``run_ops``.
    """

    def __init__(self, spec: dict, work: str, ops: Ops, tracer: Tracer):
        self.spec, self.work = spec, work
        self.ops, self.tracer = ops, tracer
        self.section = ""
        self.inputs: dict[int, object] = {}
        self.accuracy: dict[int, float] = {}

    def setup(self, seed: int) -> None:
        self.inputs[seed] = self.prepare(seed)

    def timed(self, fn):
        """Seconds taken by ``fn()`` and its result, recorded under the section."""
        with self.tracer.recording(self.section):
            start = time.perf_counter()
            result = fn()
            return time.perf_counter() - start, result

    def check_accuracy(self, seed: int, accuracy: float) -> None:
        floor = self.spec["accuracy_floor"]
        check(accuracy >= floor, f"test accuracy {accuracy} below the floor {floor}")
        first = self.accuracy.setdefault(seed, accuracy)
        check(accuracy == first, f"test accuracy {accuracy} differs from an earlier "
                                 f"repeat's {first} on the same inputs")

    def sequence(self, seed: int, section: str) -> dict | None:
        """Run the timed ops once on one instance; None when an op failed.

        Returns the metrics of this sequence plus ``steps_s``, the seconds
        of each op, which only the run record keeps.
        """
        self.section = section
        times = self.run_ops(seed)
        if times is None:
            return None
        totals = self.tracer.section_totals(section)
        if "learner.train.wall_s" not in totals:
            self.ops.failures.append("train() was not observed; its timing probe is stale")
            return None
        return {
            "train_s": times["train"],
            "sequence_s": sum(times.values()),
            "train_samples_per_s": (totals["learner.train.sample_iterations"]
                                    / totals["learner.train.wall_s"]),
            "test_accuracy": self.accuracy[seed],
            "steps_s": times,
        }


class LibraryWorkload(Workload):
    """train() on in-memory splits, then top-1 accuracy on the test split."""

    def prepare(self, seed: int):
        train, valid, test = make_splits(self.spec["data"], seed)
        norm = dio.fit_normalizer(train)
        return [dio.apply_normalizer(norm, d) for d in (train, valid, test)]

    def run_ops(self, seed: int) -> dict | None:
        train_set, valid_set, test_set = self.inputs[seed]
        config = learner.TrainConfig(seed=seed, **self.spec["train"])

        def train_op():
            seconds, (encoder, model, report) = self.timed(
                lambda: learner.train(config, train_set, valid_set))
            check(report.iterations == config.max_iters,
                  f"train() ran {report.iterations} of {config.max_iters} iterations")
            return seconds, encoder, model

        trained = self.ops.run("train()", train_op)
        if trained is None:
            return None
        train_s, encoder, model = trained

        def evaluate_op():
            seconds, accuracy = self.timed(lambda: metrics.top_k_accuracy(
                model, encoder.encode_batch(test_set.features), test_set.labels, 1))
            self.check_accuracy(seed, accuracy)
            return seconds

        evaluate_s = self.ops.run("test evaluation", evaluate_op)
        if evaluate_s is None:
            return None
        return {"train": train_s, "evaluate": evaluate_s}


class CliWorkload(Workload):
    """``hdclass train``, ``eval``, ``noise`` and ``roc`` on CSV files."""

    def prepare(self, seed: int) -> dict:
        train, valid, test = make_splits(self.spec["data"], seed)
        both = dio.Dataset(np.vstack([train.features, valid.features]),
                           np.concatenate([train.labels, valid.labels]), train.names)
        folder = os.path.join(self.work, f"seed{seed}")
        os.makedirs(folder, exist_ok=True)
        files = {"train_csv": os.path.join(folder, "train.csv"),
                 "test_csv": os.path.join(folder, "test.csv")}
        dio.save_csv(files["train_csv"], both)
        dio.save_csv(files["test_csv"], test)
        return files

    def run_ops(self, seed: int) -> dict | None:
        out = tempfile.mkdtemp(prefix="seq-", dir=self.work)
        fields = dict(self.spec["params"], seed=seed, out=out, **self.inputs[seed])
        times = {}
        try:
            for template in self.spec["commands"]:
                argv = [part.format(**fields) for part in template]
                seconds = self.ops.run(f"hdclass {argv[0]}",
                                       lambda: self.command(seed, argv, out))
                if seconds is None:
                    return None
                times[argv[0]] = seconds
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return times

    def command(self, seed: int, argv: list[str], out: str) -> float:
        seconds, code = self.timed(lambda: cli.main(argv))
        check(code == 0, f"hdclass {argv[0]} exited with {code}")
        getattr(self, f"check_{argv[0]}")(seed, out)
        return seconds

    def check_train(self, seed: int, out: str) -> None:
        with open(os.path.join(out, "train", "report.jsonl"), encoding="utf-8") as fh:
            iterations = [json.loads(line)["iteration"] for line in fh if line.strip()]
        wanted = list(range(1, int(self.spec["params"]["max_iters"]) + 1))
        check(iterations == wanted, f"train ran iterations {iterations}, wanted {wanted}")

    def check_eval(self, seed: int, out: str) -> None:
        reported = load_json(os.path.join(out, "eval", "eval.json"))["accuracy"]
        encoder, model = serialize.load_model(os.path.join(out, "train", "model.json"))
        norm = dio.NormalizationSpec.from_dict(
            load_json(os.path.join(out, "train", "norm.json")))
        test = dio.apply_normalizer(norm, dio.load_csv(self.inputs[seed]["test_csv"]))
        recomputed = metrics.top_k_accuracy(
            model, encoder.encode_batch(test.features), test.labels, 1)
        check(reported == recomputed,
              f"eval.json accuracy {reported} != library recomputation {recomputed}")
        self.check_accuracy(seed, reported)

    def check_noise(self, seed: int, out: str) -> None:
        noise = next(c for c in self.spec["commands"] if c[0] == "noise")
        bits = noise[noise.index("--bits") + 1].split(",")
        rates = [float(r) for r in noise[noise.index("--rates") + 1].split(",")]
        with open(os.path.join(out, "noise", "noise.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        check(len(rows) == len(bits) * len(rates),
              f"noise.csv has {len(rows)} cells, wanted {len(bits) * len(rates)}")
        clean = [float(r["mean_loss"]) for r in rows if float(r["rate"]) == 0.0]
        check(len(clean) == len(bits) * rates.count(0.0) and not any(clean),
              f"mean_loss at rate 0 is {clean}, wanted 0")

    def check_roc(self, seed: int, out: str) -> None:
        auc = load_json(os.path.join(out, "roc", "roc.json"))["auc"]
        check(0.0 <= auc <= 1.0, f"roc auc {auc} outside [0, 1]")


KINDS = {"library": LibraryWorkload, "cli": CliWorkload}


def instance_seeds(spec: dict, seed: int) -> list[int]:
    """The data instances of a run: disjoint across runs with distinct seeds.

    A run covers several instances so that one seed's data geometry does
    not set its numbers alone.
    """
    count = spec["instances"]
    return [count * seed + j for j in range(count)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: medians over repeated set-ups and sequences.

    Sequences cycle through the instances until ``seconds`` have passed
    and every instance ran once.  Each metric is the median across
    instances of the instance's median, so no instance weighs more.
    """
    seeds = instance_seeds(workload.spec, seed)
    setups = []
    while len(setups) < max(MIN_SETUPS, len(seeds)) or (
            sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS):
        start = time.perf_counter()
        workload.setup(seeds[len(setups) % len(seeds)])
        setups.append(time.perf_counter() - start)
    samples: dict[int, list[dict]] = {s: [] for s in seeds}
    runs = 0
    start = time.perf_counter()
    with instrumented(workload.tracer, only=PROBE):
        while True:
            instance = seeds[runs % len(seeds)]
            runs += 1
            sample = workload.sequence(instance, f"seq{runs}")
            if sample is None:
                break
            samples[instance].append(sample)
            if runs >= len(seeds) and time.perf_counter() - start >= seconds:
                break
    values = {"setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb()}
    done = [s for s in samples.values() if s]
    if done:
        values.update({key: statistics.median(statistics.median(x[key] for x in s)
                                              for s in done)
                       for key in done[0][0] if key != "steps_s"})
    return values, {"instances": seeds, "setup_s": setups,
                    "sequences": {str(k): v for k, v in samples.items()}}


def run_traced(workload: Workload, seed: int, seconds: float,
               names: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics of the first instance: one traced set-up plus the
    median traced sequence.

    Untraced and traced sequences alternate so that their ratio, the
    tracing overhead, is measured under the same conditions.
    """
    tracer = workload.tracer
    instance = instance_seeds(workload.spec, seed)[0]
    with instrumented(tracer), tracer.recording("setup"):
        workload.setup(instance)
    plain, traced, sections = [], [], []
    start = time.perf_counter()
    while True:
        n = len(traced) + 1
        with instrumented(tracer, only=PROBE):
            untraced_sample = workload.sequence(instance, f"plain{n}")
        if untraced_sample is None:
            break
        with instrumented(tracer):
            traced_sample = workload.sequence(instance, f"seq{n}")
        if traced_sample is None:
            break
        plain.append(untraced_sample["sequence_s"])
        traced.append(traced_sample["sequence_s"])
        sections.append(f"seq{n}")
        if time.perf_counter() - start >= seconds:
            break
    if not traced:
        return {}, {}
    setup = tracer.section_totals("setup")
    per_sequence = [tracer.section_totals(s) for s in sections]
    totals = {key: setup.get(key, 0.0) + statistics.median(t.get(key, 0.0) for t in per_sequence)
              for key in set(setup).union(*per_sequence)}
    nominal = totals.get("regen.nominal_dims", 0.0)
    totals["regen.selected_over_nominal"] = (
        totals.get("regen.selected_dims", 0.0) / nominal if nominal else 0.0)
    totals["trace_overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    values = {name: totals.get(name, 0.0) for name in names}
    return values, {"totals": totals, "untraced_s": plain, "traced_s": traced}


def blas_info() -> dict:
    info = {"threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = int(fn())
                return info
    return info


def git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int, traced: bool) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "traced": traced,
        "load_model": "one process, closed loop, one caller, numpy/BLAS default threads",
        "core_scaling": "not measured",
    }


def workload_spec(name: str, toy: bool) -> dict:
    spec = load_json(os.path.join(HERE, "workloads.json"))["workloads"][name]
    return {**spec, **spec["toy"]} if toy else spec


def run_one(args, bench: dict) -> int:
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import hdclass from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    spec = workload_spec(args.workload, args.toy)
    trace = bool(args.trace)
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    run_id = f"{args.workload}:seed{args.seed}:trace{args.trace}:pid{os.getpid()}"
    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    ops, tracer = Ops(), Tracer(run_id)
    try:
        workload = KINDS[spec["kind"]](spec, work, ops, tracer)
        if trace:
            values, detail = run_traced(workload, args.seed, args.seconds, list(units))
        else:
            values, detail = run_untraced(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {"provenance": provenance(args.seed, trace), "workload": args.workload,
              "toy": args.toy, "attempted": ops.attempted, "failures": ops.failures,
              "values": values, "detail": detail}
    print(json.dumps(record["provenance"]), file=sys.stderr)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s, sort_keys=True) + "\n" for s in tracer.spans)

    # A metric can be missing only after a failed op, which is counted.
    metrics_out = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items() if name in values}
    for name, m in metrics_out.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    failed, attempted = len(ops.failures), max(ops.attempted, 1)
    print(f"{args.workload} failed_ops_ratio = {failed}/{attempted}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0 if failed == 0 else 1


def run_all(args, bench: dict) -> int:
    """Every workload in its own process, untraced then traced."""
    print(json.dumps(provenance(args.seed, False)))
    ok = True
    summary = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--toy"] if args.toy else [])
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            summary[f"{name}:trace{trace}"] = result
            if result is None:
                print(f"{name} trace={trace}: exited {proc.returncode} without a result")
                ok = False
                continue
            ok = ok and result["correct"] and proc.returncode == 0
            for metric, m in result["metrics"].items():
                print(f"{name:15s} {metric:38s} {m['value']:14.6g} {m['unit']}")
            if not trace:
                print(f"{name:15s} {'failed_ops_ratio':38s} "
                      f"{result['failed'] / result['attempted']:14.6g} "
                      f"({result['failed']} of {result['attempted']} ops)")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"summary-seed{args.seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return 0 if ok else 1


def main(argv=None) -> int:
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload in this process (default: all, each in its own)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes from workloads.json, for the harness self-test")
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds < 0:
        parser.error("--seconds must be a nonnegative number")
    return run_one(args, bench) if args.workload else run_all(args, bench)


if __name__ == "__main__":
    sys.exit(main())
