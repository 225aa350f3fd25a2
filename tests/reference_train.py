"""Reference oracle for a whole ``learner.train()`` run.

A literal loop written from the docstrings of ``train()``,
``adaptive_fit_epoch``, ``_build_distance_rows`` and ``regen``: it scores,
updates and triages one sample at a time, takes each side's top-R% with a
Python sort (ties to the lowest index) and intersects the two as Python
sets, and draws and redraws the encoder's rows from its own generator.
Only the encode kernel is shared: the columns a regeneration redrew are
re-encoded with ``Encoder.encode_batch(X, dims)``, the cache rule
``train()`` documents.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from hdclass.core import TWO_PI, Encoder
from hdclass.learner import DYNAMIC, ETA, STREAM_ENCODER, STREAM_SHUFFLE
from hdclass.regen import UndesiredSet


@dataclass
class ReferenceRun:
    classes: np.ndarray
    base: np.ndarray
    phase: np.ndarray
    rng_state: dict
    jsonl: str
    snapshot_iteration: int
    converged: bool
    # One entry per iteration; None in static mode and on the final one.
    selections: list = field(default_factory=list)


def cosines(classes: np.ndarray, h: np.ndarray) -> list[float]:
    """Cosine of ``h`` against each prototype; a zero norm scores 0."""
    dots = (classes @ h).tolist()
    h_norm = math.sqrt(h.dot(h))
    out = []
    for c, dot in zip(classes, dots):
        denom = h_norm * math.sqrt(c.dot(c))
        out.append(dot / denom if denom != 0.0 else 0.0)
    return out


def best_two(scores: list[float]) -> tuple[int, int]:
    """The two highest-scoring classes, ties to the lowest index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return order[0], order[1]


def unit(v: np.ndarray) -> np.ndarray:
    """``v`` over its norm; a zero vector stays as it is."""
    return v / (math.sqrt(v.dot(v)) or 1.0)


def accuracy(classes: np.ndarray, encoded: np.ndarray, labels) -> float:
    hits = sum(best_two(cosines(classes, h))[0] == y for h, y in zip(encoded, labels))
    return hits / len(labels)


def column_sum(rows: list[np.ndarray], dim: int) -> np.ndarray:
    """Sum of the unit-normalized rows, added one row at a time."""
    total = np.zeros(dim)
    for row in rows:
        total = total + unit(row)
    return total


def top(values: np.ndarray, count: int) -> set[int]:
    return set(sorted(range(values.size), key=lambda d: (-values[d], d))[:count])


def reference_train(config, X_train, y_train, X_valid, y_valid) -> ReferenceRun:
    X_train, X_valid = np.asarray(X_train, float), np.asarray(X_valid, float)
    y_train, y_valid = [int(y) for y in y_train], [int(y) for y in y_valid]
    m, n = X_train.shape
    k, dim = max(y_train) + 1, config.dim

    # Encoder.create: base rows ~ N(0, 1), then phases ~ U[0, 2*pi).
    seed = int(np.random.SeedSequence(entropy=(config.seed, STREAM_ENCODER))
               .generate_state(1)[0])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    base = rng.standard_normal((dim, n))
    phase = rng.uniform(0.0, TWO_PI, size=dim)
    encoder = Encoder(base, phase, rng, input_scale=1.0 / np.sqrt(n))
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(config.seed, STREAM_SHUFFLE)))

    encoded = encoder.encode_batch(X_train)
    valid_encoded = encoder.encode_batch(X_valid)
    classes = np.zeros((k, dim))
    nominal = math.floor(Fraction(dim) * Fraction(config.regen_rate) / 100)
    records, selections = [], []
    best, stale, effective = -math.inf, 0, dim
    snapshot_acc, snapshot = -math.inf, None
    snapshot_iteration = 0
    for it in range(1, config.max_iters + 1):
        # One adaptive pass: a miss pulls its true prototype closer and
        # pushes the winning wrong one away.
        order = shuffle_rng.permutation(m).tolist() if config.shuffle else range(m)
        for j in order:
            h, true = encoded[j], y_train[j]
            scores = cosines(classes, h)
            pred = best_two(scores)[0]
            if pred != true:
                classes[pred] -= ETA * (1.0 - scores[pred]) * h
                classes[true] += ETA * (1.0 - scores[true]) * h

        train_acc = accuracy(classes, encoded, y_train)
        valid_acc = accuracy(classes, valid_encoded, y_valid)
        if valid_acc > snapshot_acc:  # the earliest iteration wins a tie
            snapshot_acc, snapshot_iteration = valid_acc, it
            snapshot = (classes.copy(), encoder.base.copy(), encoder.phase.copy())
        # Stale: validation accuracy improved by less than min_delta.
        if valid_acc >= best + config.min_delta:
            best, stale = valid_acc, 0
        else:
            stale += 1
        stopping = stale >= config.patience or it == config.max_iters

        selection, regenerated = None, 0
        if config.mode == DYNAMIC and not stopping:
            selection = select(classes, encoded, y_train, config, nominal)
            idx = sorted(selection.dims)
            if idx:
                encoder.base[idx] = rng.standard_normal((len(idx), n))
                encoder.phase[idx] = rng.uniform(0.0, TWO_PI, size=len(idx))
                encoded[:, idx] = encoder.encode_batch(X_train, idx)
                valid_encoded[:, idx] = encoder.encode_batch(X_valid, idx)
                classes[:, idx] = 0.0
                regenerated = len(idx)
                effective += regenerated
        selections.append(selection)
        records.append({"effective_dim": effective, "iteration": it,
                        "regenerated": regenerated, "train_accuracy": train_acc,
                        "valid_accuracy": valid_acc})
        if stopping:
            break

    classes, base, phase = snapshot
    return ReferenceRun(
        classes, base, phase, rng.bit_generator.state,
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
        snapshot_iteration, stale >= config.patience, selections)


def select(classes, encoded, labels, config, nominal) -> UndesiredSet:
    """Triage each sample by where its true class ranks, build its distance
    row on unit vectors, and intersect the two sides' top-``nominal`` sets."""
    prototypes = [unit(c) for c in classes]
    partial, incorrect = [], []
    for h, true in zip(encoded, labels):
        top1, top2 = best_two(cosines(classes, h))
        if top1 == true:
            continue
        u, c_true, c_top1 = unit(h), prototypes[true], prototypes[top1]
        row = config.alpha * np.abs(u - c_true) - config.beta * np.abs(u - c_top1)
        if top2 == true:
            partial.append(row)
        else:
            incorrect.append(row - config.theta * np.abs(u - prototypes[top2]))
    dim = classes.shape[1]
    m_agg, n_agg = column_sum(partial, dim), column_sum(incorrect, dim)
    dims = set()
    if partial and incorrect:
        dims = top(m_agg, nominal) & top(n_agg, nominal)
    return UndesiredSet(dims, nominal, m_agg, n_agg)
