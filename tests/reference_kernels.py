"""Reference oracles for kernels only tests call, and for the noise sweep.

``encode_one`` encodes one feature vector as a batch of one, which numpy
sends to its matrix-vector kernel, so it is bitwise the per-row formula
``cos(base @ (s * f) + phase) * sin(base @ (s * f))``.
``reference_encode_batch`` is the one-product batch encode that
``encode_batch``'s row blocks replaced.  ``reference_top_k`` ranks one
sample's classes from a 1-row ``similarity_matrix`` call, the per-sample
scoring of the adaptive rule.  ``reference_synth_features`` is
``synth_blobs``'s feature matrix by the mean gather that its in-place
block addition replaced.  ``hamming_distance``
counts the bits two quantized memories of one layout differ in.
``reference_noise_sweep`` is the per-trial sweep that ``noise_sweep``'s
stacked, certified chunks replaced: every trial dequantizes its flipped
memory and is scored alone by ``similarity_matrix``.
``reference_partial_row`` and ``reference_incorrect_row`` are the one-line
distance-row formulas that ``regen``'s in-place terms replaced.
"""

from __future__ import annotations

import numpy as np

from hdclass import metrics
from hdclass.core import ClassModel, Encoder, ranking, similarity_matrix
from hdclass.robustness import (
    QuantizedModel,
    SweepCell,
    dequantize,
    flip_bits,
    flip_count,
    quantize,
)


def encode_one(encoder: Encoder, features) -> np.ndarray:
    """The length-D hypervector of one feature vector."""
    return encoder.encode_batch(np.asarray(features, dtype=np.float64)[None, :])[0]


def reference_encode_batch(encoder: Encoder, batch, dims=None) -> np.ndarray:
    """``cos(P + phase) * sin(P)`` of the single product
    ``P = (input_scale * X) @ base[dims].T``."""
    idx = slice(None) if dims is None else np.asarray(dims, dtype=np.intp)
    proj = (encoder.input_scale * np.asarray(batch, dtype=np.float64)) @ encoder.base[idx].T
    return np.cos(proj + encoder.phase[idx]) * np.sin(proj)


def reference_top_k(model: ClassModel, h, k: int) -> list[int]:
    """One sample's k best class indices by descending similarity, ties by
    ascending index."""
    if not 1 <= k <= model.n_classes:
        raise ValueError(f"k must be in [1, {model.n_classes}], got {k}")
    return ranking(similarity_matrix(model, np.asarray(h, dtype=np.float64)[None, :])[0],
                   k).tolist()


def reference_partial_row(h, c_true, c_top1, alpha: float, beta: float) -> np.ndarray:
    """``alpha * |h - c_true| - beta * |h - c_top1|``, left to right."""
    h = np.asarray(h, dtype=np.float64)
    return alpha * np.abs(h - c_true) - beta * np.abs(h - c_top1)


def reference_incorrect_row(h, c_true, c_top1, c_top2, alpha: float, beta: float,
                            theta: float) -> np.ndarray:
    """The partial row less ``theta * |h - c_top2|``."""
    h = np.asarray(h, dtype=np.float64)
    return reference_partial_row(h, c_true, c_top1, alpha, beta) - theta * np.abs(h - c_top2)


def reference_synth_features(n_features: int, k_classes: int, per_class: int,
                             separation: float, seed: int) -> np.ndarray:
    """The features of ``synth_blobs(n_features, k_classes, per_class,
    separation, seed)``: each row's class mean, gathered, plus its draw."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    means = rng.standard_normal((k_classes, n_features))
    labels = np.repeat(np.arange(k_classes), per_class)
    with np.errstate(over="ignore", invalid="ignore"):
        if k_classes > 1:
            dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
            min_dist = dists[np.triu_indices(k_classes, 1)].min()
            means = means * (separation / min_dist) if min_dist > 0 else means * 0.0
        else:
            means *= 0.0
        return means[labels] + rng.standard_normal((labels.size, n_features))


def hamming_distance(a: QuantizedModel, b: QuantizedModel) -> int:
    if a.bits != b.bits or a.packed.shape != b.packed.shape:
        raise ValueError(f"memories differ in layout: {a.bits}-bit {a.packed.shape} "
                         f"vs {b.bits}-bit {b.packed.shape}")
    return int(np.unpackbits(a.packed ^ b.packed).sum())


def reference_run_trial(qm: QuantizedModel, encoded: np.ndarray, labels: np.ndarray,
                        clean_accuracy: float, error_rate: float, seed: int) -> float:
    """The accuracy drop, in percentage points, of one seeded corruption."""
    corrupted = dequantize(flip_bits(qm, error_rate, seed))
    acc = metrics.accuracy(similarity_matrix(corrupted, encoded).argmax(axis=1), labels)
    return (clean_accuracy - acc) * 100.0


def reference_noise_sweep(models_by_dim: dict, grid, trials: int,
                          seed: int) -> list[SweepCell]:
    """Mean quality loss per (D, bits, rate) cell, one trial at a time."""
    grid = list(grid)
    if not grid:
        raise ValueError("empty sweep grid")
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    cells = []
    clean_cache: dict[tuple[int, int], tuple[QuantizedModel, float]] = {}
    for cell_idx, (dim, bits, rate) in enumerate(grid):
        if dim not in models_by_dim:
            raise KeyError(f"no trained model available for dimensionality {dim}")
        model, encoded, labels = models_by_dim[dim]
        key = (dim, bits)
        if key not in clean_cache:
            qm = quantize(model, bits)
            clean = metrics.accuracy(
                similarity_matrix(dequantize(qm), encoded).argmax(axis=1), labels)
            clean_cache[key] = (qm, clean)
        qm, clean = clean_cache[key]
        losses = np.zeros(trials)
        if flip_count(rate, qm.total_bits):
            for t in range(trials):
                trial_seed = int(np.random.SeedSequence(
                    entropy=(seed, cell_idx, t)).generate_state(1)[0])
                losses[t] = reference_run_trial(qm, encoded, labels, clean, rate, trial_seed)
        cells.append(SweepCell(dim, bits, rate, trials,
                               float(losses.mean()), float(losses.std())))
    return cells
