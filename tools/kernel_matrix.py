#!/usr/bin/env python3
"""Rerun the artifact digest and an ISOLET-shaped command sequence under
each OpenBLAS kernel this CPU can run and under 1 and 2 BLAS threads, and
print which artifacts differ from the default run.

    python3 tools/kernel_matrix.py OUT_DIR

Every run is a set of child processes with one environment override:
``OPENBLAS_CORETYPE`` set to each kernel whose instruction set the CPU
reports in ``/proc/cpuinfo``, or ``OPENBLAS_NUM_THREADS`` set to 1 or 2.
The default run inherits neither variable; this process never sets them.
A run digests ``tools/artifact_digest.py``'s small commands and one
ISOLET-shaped ``synth``/``train --mode static --dim 500``/``eval``/``noise``
sequence.  The ISOLET shape is there because the digest's small shapes do
not show that the bytes of a large matrix product depend on the thread
count.

Model bytes (``model.json``) and the regeneration dump
(``regen_dump.csv``) may differ between runs; every other file is
decision-level and must not.  The exit status is 1 when a decision-level
file differs or a child fails.  The script uses the standard library and
the hdclass package of this checkout's ``src/``.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DIGEST = os.path.join(ROOT, "tools", "artifact_digest.py")
sys.path.insert(0, os.path.dirname(DIGEST))

from artifact_digest import digests  # noqa: E402

# (OPENBLAS_CORETYPE, /proc/cpuinfo flags it needs), newest first.
KERNELS = [
    ("SapphireRapids", {"amx_bf16", "avx512_fp16", "avx512_bf16"}),
    ("Cooperlake", {"avx512_bf16"}),
    ("SkylakeX", {"avx512f", "avx512bw", "avx512dq", "avx512vl", "avx512cd"}),
    ("Haswell", {"avx2", "fma"}),
    ("Sandybridge", {"avx"}),
    ("Nehalem", {"sse4_2"}),
    ("Core2", {"ssse3"}),
    ("Prescott", {"pni"}),
]
BLAS_VARIABLES = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")
# Files whose bytes follow the floating-point rounding of the run.
ROUNDING_LEVEL = ("model.json", "regen_dump.csv")


def isolet_commands(out: str) -> list[list[str]]:
    """The ISOLET-shaped sequence (n=617, k=26, D=500); paths lie under ``out``."""
    blobs = os.path.join(out, "synth", "blobs.csv")
    scored = ["--model", os.path.join(out, "train", "model.json"), "--data", blobs,
              "--norm", os.path.join(out, "train", "norm.json")]
    return [
        ["synth", "--features", "617", "--classes", "26", "--per-class", "240",
         "--separation", "25.0", "--seed", "0", "--out", os.path.join(out, "synth")],
        ["train", "--data", blobs, "--mode", "static", "--dim", "500", "--max-iters", "5",
         "--patience", "5", "--min-delta", "0", "--fractions", "0.7,0.1,0.2",
         "--shuffle", "--seed", "0", "--out", os.path.join(out, "train")],
        ["eval", *scored, "--topk", "1,2,5", "--out", os.path.join(out, "eval")],
        ["noise", *scored, "--bits", "1,2,4,8", "--rates", "0,1,5,10,20", "--trials", "5",
         "--seed", "2", "--out", os.path.join(out, "noise")],
    ]


def runnable_kernels() -> list[str]:
    """The kernels whose instruction sets the CPU reports; none off Linux."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            line = next((line for line in fh if line.startswith("flags")), "")
    except OSError:
        return []
    flags = set(line.partition(":")[2].split())
    return [name for name, needs in KERNELS if needs <= flags]


def runtime_kernel() -> str:
    """The kernel and thread count OpenBLAS chose in this process."""
    import numpy as np

    np.ones((2, 2)) @ np.ones((2, 2))
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                core = getattr(lib, f"{prefix}get_corename{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if core is not None and threads is not None:
                    core.restype, core.argtypes = ctypes.c_char_p, []
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    return f"{core().decode()}, {threads()} threads"
    return "unknown"


def child_env(override: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(override)
    return env


def child(argv: list[str], override: dict) -> str:
    """The stdout of ``python argv`` run with ``override`` in its environment."""
    done = subprocess.run([sys.executable, *argv], env=child_env(override),
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with {done.returncode}:\n"
                           f"{done.stderr}")
    return done.stdout


def child_kernel(override: dict) -> str:
    return child(["-c", f"import sys; sys.path.insert(0, {os.path.dirname(DIGEST)!r}); "
                        "from kernel_matrix import runtime_kernel; print(runtime_kernel())"],
                 override).strip()


def run_once(out: str, override: dict) -> dict[str, str]:
    """``{path: sha256}`` of every artifact of one run."""
    files = {}
    for line in child([DIGEST, os.path.join(out, "digest")], override).splitlines():
        digest, path = line.split("  ", 1)
        files[f"digest/{path}"] = digest
    isolet = os.path.join(out, "isolet")
    for argv in isolet_commands(isolet):
        child(["-m", "hdclass.cli", *argv], override)
    for line in digests(isolet):
        digest, path = line.split("  ", 1)
        files[f"isolet/{path}"] = digest
    return files


def main(out: str) -> int:
    if os.path.exists(out) and os.listdir(out):
        print(f"{out} is not empty", file=sys.stderr)
        return 1
    try:
        runs = [("default", {}, child_kernel({}))]
        # A core type the library was not built for runs another kernel;
        # only the first request of each kernel is run.
        for name in runnable_kernels():
            override = {"OPENBLAS_CORETYPE": name}
            kernel = child_kernel(override)
            same = [label for label, _, k in runs if k == kernel]
            if same:
                print(f"coretype={name} runs {kernel}, as {same[0]} does: skipped")
            else:
                runs.append((f"coretype={name}", override, kernel))
        for n in (1, 2):
            override = {"OPENBLAS_NUM_THREADS": str(n)}
            runs.append((f"threads={n}", override, child_kernel(override)))
        results = {label: (kernel, run_once(os.path.join(out, label), override))
                   for label, override, kernel in runs}
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    kernel, default = results.pop("default")
    print(f"default ({kernel}): {len(default)} files")
    bad = set()
    for label, (kernel, files) in results.items():
        differ = sorted(p for p in default.keys() | files.keys()
                        if default.get(p) != files.get(p))
        bad.update(p for p in differ if os.path.basename(p) not in ROUNDING_LEVEL)
        print(f"{label} ({kernel}): {len(differ)} differ" + "".join(
            f"\n    {p}" for p in differ))
    if bad:
        print("decision-level files differ: " + ", ".join(sorted(bad)))
        return 1
    print(f"decision-level files identical across all {len(results) + 1} runs")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python3 tools/kernel_matrix.py OUT_DIR", file=sys.stderr)
        sys.exit(1)
    sys.exit(main(sys.argv[1]))
