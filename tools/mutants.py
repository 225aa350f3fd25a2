#!/usr/bin/env python3
"""Apply each of a fixed list of hand-written mutants of ``src/hdclass/``
to a copy of this checkout and report whether the tier-1 tests kill it.

    python3 tools/mutants.py [NAME ...]

A mutant is one string replacement in one source file; its old text must
occur exactly once there, or the script stops before running anything.
For each mutant (all of them, or the NAMEs given) the checkout is copied
to a temporary directory without ``.git`` and caches, the patch is
applied, and ``python -m pytest -q -x`` runs there with that copy's
``src/`` first on ``PYTHONPATH``.  Each mutant prints one line: KILLED
with the first failing test, or SURVIVED.  The exit status is 1 when a
mutant survives, and 2 when a NAME is unknown or a patch does not apply
exactly once.  Only the standard library is used; a mutant that
survives runs the whole of tier-1 (about a minute on 2 CPUs).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str


LEARNER, REGEN, CORE = "src/hdclass/learner.py", "src/hdclass/regen.py", "src/hdclass/core.py"
DATA, ROBUSTNESS, CLI = "src/hdclass/data.py", "src/hdclass/robustness.py", "src/hdclass/cli.py"

MUTANTS = [
    Mutant("no-column-zeroing", LEARNER,
           "model.classes[:, idx] = 0.0", "model.classes[:, idx] *= 1.0"),
    Mutant("stale-beyond-patience", LEARNER,
           "stopping = stale >= config.patience", "stopping = stale > config.patience"),
    Mutant("strict-min-delta", LEARNER,
           "if valid_acc >= best_valid + config.min_delta:",
           "if valid_acc > best_valid + config.min_delta:"),
    Mutant("latest-snapshot-on-ties", LEARNER,
           "if valid_acc > snapshot_acc:", "if valid_acc >= snapshot_acc:"),
    Mutant("final-iteration-regenerates", LEARNER,
           "if config.mode == DYNAMIC and not stopping:", "if config.mode == DYNAMIC:"),
    Mutant("phases-before-base", CORE,
           "        self.base[idx] = self._rng.standard_normal((idx.size, self.n_features))\n"
           "        self.phase[idx] = self._rng.uniform(0.0, TWO_PI, size=idx.size)\n",
           "        self.phase[idx] = self._rng.uniform(0.0, TWO_PI, size=idx.size)\n"
           "        self.base[idx] = self._rng.standard_normal((idx.size, self.n_features))\n"),
    Mutant("ranking-ties-to-highest", CORE,
           'return np.argsort(-scores, axis=-1, kind="stable")[..., :k]',
           'return (scores.shape[-1] - 1 - np.argsort(\n'
           '        -scores[..., ::-1], axis=-1, kind="stable"))[..., :k]'),
    Mutant("nominal-count-ceiling", REGEN,
           "return Fraction(regen_rate) * dim // 100",
           "return -(-Fraction(regen_rate) * dim // 100)"),
    Mutant("partial-incorrect-swapped", LEARNER,
           "partial, incorrect = top2 == y, top2 != y",
           "partial, incorrect = top2 != y, top2 == y"),
    Mutant("partial-row-sign", REGEN,
           "return alpha * np.abs(h - c_true) - beta * np.abs(h - c_top1)",
           "return alpha * np.abs(h - c_true) + beta * np.abs(h - c_top1)"),
    Mutant("incorrect-row-sign", REGEN,
           "partial_row(h, c_true, c_top1, alpha, beta) - theta * np.abs(h - c_top2)",
           "partial_row(h, c_true, c_top1, alpha, beta) + theta * np.abs(h - c_top2)"),
    Mutant("every-range-skips-a-byte-order-mark", DATA,
           'encoding="utf-8-sig" if start == 0 else "utf-8"', 'encoding="utf-8-sig"'),
    Mutant("range-labels-not-remapped", DATA,
           "ids[lo:hi] = remap[table[:, label_idx].astype(np.intp)]",
           "ids[lo:hi] = table[:, label_idx].astype(np.intp)"),
    Mutant("trial-seed-entropy-order", ROBUSTNESS,
           "entropy=(seed, cell_idx, t)", "entropy=(seed, t, cell_idx)"),
    Mutant("precision-ordering-flipped", CLI,
           "by_key[(dims[-1], bits[0], rate)] < by_key[(dims[-1], bits[-1], rate)]",
           "by_key[(dims[-1], bits[0], rate)] > by_key[(dims[-1], bits[-1], rate)]"),
]


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file in this checkout."""
    with open(os.path.join(ROOT, mutant.path), encoding="utf-8") as fh:
        return fh.read().count(mutant.old)


def apply(mutant: Mutant, root: str) -> None:
    path = os.path.join(root, mutant.path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str | None:
    """The first test that fails under ``mutant``; None when tier-1 passes."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", ".hypothesis", ".pytest_cache", "__pycache__", ".bench_out"))
        apply(mutant, tree)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [os.path.join(tree, "src"), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"pytest exit status {proc.returncode}"


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(by_name)}",
              file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or MUTANTS
    for mutant in chosen:
        count = occurrences(mutant)
        if count != 1:
            print(f"{mutant.name}: its text occurs {count} times in {mutant.path}",
                  file=sys.stderr)
            return 2
    survivors = 0
    for mutant in chosen:
        killer = run(mutant)
        survivors += killer is None
        print(f"{mutant.name}: " + ("SURVIVED" if killer is None else f"KILLED by {killer}"),
              flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
