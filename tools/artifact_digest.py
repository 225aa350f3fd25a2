#!/usr/bin/env python3
"""Run a fixed sequence of hdclass commands and print a digest of each
primary artifact it writes.

    python3 tools/artifact_digest.py OUT_DIR

Each output line is ``sha256  path``, the path relative to ``OUT_DIR``,
sorted by path.  A ``config.txt`` echo is digested with each occurrence of
``OUT_DIR`` replaced by the token ``<OUT>``, so that two runs in different
directories compare equal.  A refactor that must keep every artifact
byte-identical diffs this output between two checkouts.  The script uses
the standard library and the hdclass package of this checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hdclass.cli import EXIT_OK, main  # noqa: E402


def commands(out: str) -> list[list[str]]:
    """The command list; every path lies under ``out``."""
    blobs = os.path.join(out, "synth", "blobs.csv")
    blobs4 = os.path.join(out, "synth4", "blobs.csv")
    model = os.path.join(out, "train", "model.json")
    model64 = os.path.join(out, "train64", "model.json")
    norm = os.path.join(out, "train", "norm.json")
    valid = os.path.join(out, "synth_valid", "blobs.csv")
    overlap = os.path.join(out, "synth_overlap", "blobs.csv")
    scored = ["--model", model, "--data", blobs, "--norm", norm]
    sweep = ["--alphas", "1.0,2.0", "--betas", "1.0", "--thetas", "0.25,0.5",
             "--dim", "16", "--max-iters", "8", "--patience", "8", "--seed", "0",
             "--shuffle"]
    return [
        # The criterion-10 sequence.
        ["synth", "--features", "6", "--classes", "3", "--per-class", "40",
         "--separation", "3.0", "--seed", "1", "--out", os.path.join(out, "synth")],
        ["train", "--data", blobs, "--dim", "32", "--max-iters", "3", "--seed", "0",
         "--fractions", "0.7,0.3,0.0", "--out", os.path.join(out, "train")],
        ["eval", *scored, "--out", os.path.join(out, "eval")],
        ["roc", *scored, "--class-id", "0", "--out", os.path.join(out, "roc")],
        ["noise", *scored, "--bits", "1,8", "--rates", "0,10", "--trials", "3",
         "--seed", "2", "--out", os.path.join(out, "noise")],
        ["sweep-weights", "--data", blobs, "--alphas", "1.0,2.0", "--betas", "1.0",
         "--thetas", "0.5", "--dim", "32", "--max-iters", "2", "--seed", "0",
         "--out", os.path.join(out, "sweep")],
        # A dynamic run that regenerates, with its selection dump.
        ["synth", "--features", "8", "--classes", "4", "--per-class", "60",
         "--separation", "2.0", "--seed", "3", "--out", os.path.join(out, "synth4")],
        ["train", "--data", blobs4, "--dim", "64", "--max-iters", "6",
         "--regen-rate", "40", "--seed", "0", "--shuffle", "--dump-regen",
         "--out", os.path.join(out, "train_dynamic")],
        ["eval", *scored, "--topk", "1,2,3", "--out", os.path.join(out, "eval_topk")],
        *[["roc", *scored, "--class-id", str(c), "--score", score,
           "--out", os.path.join(out, f"roc_{score}_{c}")]
          for c in range(3) for score in ("margin", "raw")],
        ["noise", *scored, "--bits", "1,2,4,8", "--rates", "0,0.1,5,20",
         "--trials", "3", "--seed", "2", "--out", os.path.join(out, "noise_grid")],
        # Two dimensionalities trained on the same rows, so one split and norm.
        ["train", "--data", blobs, "--dim", "64", "--max-iters", "3", "--seed", "0",
         "--fractions", "0.7,0.3,0.0", "--out", os.path.join(out, "train64")],
        ["noise", *scored, "--model", model64, "--bits", "1,8", "--rates", "0,10",
         "--trials", "3", "--seed", "2", "--out", os.path.join(out, "noise_dims")],
        ["sweep-weights", "--data", blobs4, *sweep, "--mode", "static",
         "--out", os.path.join(out, "sweep_static")],
        ["sweep-weights", "--data", blobs4, *sweep, "--mode", "dynamic",
         "--regen-rate", "40", "--out", os.path.join(out, "sweep_dynamic")],
        # A validation file instead of a split, and a sweep's own test share.
        ["synth", "--features", "6", "--classes", "3", "--per-class", "20",
         "--separation", "3.0", "--seed", "5", "--out", os.path.join(out, "synth_valid")],
        ["train", "--data", blobs, "--valid", valid, "--dim", "32", "--max-iters", "3",
         "--seed", "0", "--out", os.path.join(out, "train_valid")],
        ["sweep-weights", "--data", blobs4, *sweep, "--mode", "static",
         "--fractions", "0.5,0.25,0.25", "--out", os.path.join(out, "sweep_fractions")],
        # overlap-dyn128's shape: overlapping classes, so a quarter of the
        # epoch's rows update the model.
        ["synth", "--features", "6", "--classes", "4", "--per-class", "200",
         "--separation", "2.0731", "--seed", "4", "--out", os.path.join(out, "synth_overlap")],
        ["train", "--data", overlap, "--dim", "128", "--max-iters", "20", "--patience", "20",
         "--regen-rate", "40", "--seed", "0", "--shuffle",
         "--out", os.path.join(out, "train_overlap")],
    ]


def digests(out: str) -> list[str]:
    lines = []
    for folder, _, files in os.walk(out):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                content = fh.read()
            if name == "config.txt":
                content = content.replace(os.fsencode(out), b"<OUT>")
            digest = hashlib.sha256(content).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, out)}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def run(out: str) -> int:
    os.makedirs(out, exist_ok=True)
    if os.listdir(out):
        print(f"{out} is not empty", file=sys.stderr)
        return 1
    for argv in commands(out):
        code = main(argv)
        if code != EXIT_OK:
            print(f"hdclass {' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: python3 tools/artifact_digest.py OUT_DIR", file=sys.stderr)
        sys.exit(1)
    sys.exit(run(sys.argv[1]))
