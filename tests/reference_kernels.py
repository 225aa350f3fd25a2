"""Reference oracles for kernels only tests call, and for the noise sweep.

``encode_one`` encodes one feature vector as a batch of one, which numpy
sends to its matrix-vector kernel, so it is bitwise the per-row formula
``cos(base @ (s * f) + phase) * sin(base @ (s * f))``.
``reference_encode_batch`` is the one-product batch encode that
``encode_batch``'s row blocks replaced.  ``reference_synth_features`` is
``synth_blobs``'s feature matrix by the mean gather that its in-place
block addition replaced.  ``hamming_distance``
counts the bits two quantized memories of one layout differ in.
``reference_noise_sweep`` is the per-trial sweep that ``noise_sweep``'s
stacked, certified chunks replaced: every trial dequantizes its flipped
memory and is scored alone by ``similarity_matrix``.
"""

from __future__ import annotations

import numpy as np

from hdclass import metrics
from hdclass.core import Encoder, row_norms, similarity_matrix
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
                        clean_accuracy: float, error_rate: float, seed: int,
                        norms: np.ndarray) -> float:
    """The accuracy drop, in percentage points, of one seeded corruption;
    ``norms`` is ``row_norms(encoded)``."""
    corrupted = dequantize(flip_bits(qm, error_rate, seed))
    acc = metrics.accuracy(
        similarity_matrix(corrupted, encoded, norms).argmax(axis=1), labels)
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
    # Each model's test rows are scored many times; their norms once.
    norms_by_dim = {dim: row_norms(encoded) for dim, (_, encoded, _) in models_by_dim.items()}
    for cell_idx, (dim, bits, rate) in enumerate(grid):
        if dim not in models_by_dim:
            raise KeyError(f"no trained model available for dimensionality {dim}")
        model, encoded, labels = models_by_dim[dim]
        norms = norms_by_dim[dim]
        key = (dim, bits)
        if key not in clean_cache:
            qm = quantize(model, bits)
            clean = metrics.accuracy(
                similarity_matrix(dequantize(qm), encoded, norms).argmax(axis=1), labels)
            clean_cache[key] = (qm, clean)
        qm, clean = clean_cache[key]
        losses = np.zeros(trials)
        if flip_count(rate, qm.total_bits):
            for t in range(trials):
                trial_seed = int(np.random.SeedSequence(
                    entropy=(seed, cell_idx, t)).generate_state(1)[0])
                losses[t] = reference_run_trial(qm, encoded, labels, clean, rate,
                                                trial_seed, norms)
        cells.append(SweepCell(dim, bits, rate, trials,
                               float(losses.mean()), float(losses.std())))
    return cells
