"""Hardware-noise experiment: quantize class prototypes into a packed bit
memory, flip a controlled fraction of bits, and measure accuracy loss.

Quantization is symmetric mid-rise per class: with b bits and scale
``s = max|x| / 2^(b-1)`` the representable levels are ``s * (q + 0.5)``
for ``q`` in ``[-2^(b-1), 2^(b-1) - 1]``.  1-bit mode therefore stores
just the sign.  Codes are packed MSB-first into a flat bit array so flips
can target any single bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .core import ClassModel, similarity_matrix

SUPPORTED_BITS = (1, 2, 4, 8)


@dataclass
class QuantizedModel:
    bits: int
    packed: np.ndarray          # uint8 byte array holding total_bits bits
    total_bits: int
    shape: tuple[int, int]      # (k, D)
    scales: np.ndarray          # per-class dequantization scale
    labels: list


@dataclass
class NoiseTrial:
    error_rate: float
    seed: int
    quality_loss: float         # accuracy drop in percentage points


@dataclass
class SweepCell:
    dim: int
    bits: int
    rate: float
    trials: int
    mean_loss: float
    std_loss: float


def quantize(model: ClassModel, bits: int) -> QuantizedModel:
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"unsupported precision {bits}, expected one of {SUPPORTED_BITS}")
    classes = model.classes
    k, dim = classes.shape
    half = 1 << (bits - 1)
    scales = np.max(np.abs(classes), axis=1) / half
    codes = np.zeros((k, dim), dtype=np.int64)
    nz = scales > 0
    if np.any(nz):
        q = np.floor(classes[nz] / scales[nz, None])
        codes[nz] = np.clip(q, -half, half - 1).astype(np.int64) + half
    packed = _pack_codes(codes, bits)
    return QuantizedModel(bits, packed, k * dim * bits, (k, dim),
                          scales, list(model.labels))


def dequantize(qm: QuantizedModel) -> ClassModel:
    codes = _unpack_codes(qm.packed, qm.bits, qm.shape)
    half = 1 << (qm.bits - 1)
    values = (codes - half + 0.5) * qm.scales[:, None]
    values[qm.scales == 0.0] = 0.0
    return ClassModel(values, list(qm.labels))


def flip_count(error_rate: float, total_bits: int) -> int:
    """round(rate% * total_bits): how many bits a trial at ``error_rate`` flips."""
    if not 0 <= error_rate <= 100:
        raise ValueError(f"error rate must be in [0, 100], got {error_rate}")
    return int(round(error_rate / 100.0 * total_bits))


def flip_bits(qm: QuantizedModel, error_rate: float, seed: int) -> QuantizedModel:
    """Flip exactly ``flip_count(error_rate, total_bits)`` distinct bits, seeded."""
    n_flips = flip_count(error_rate, qm.total_bits)
    bits = np.unpackbits(qm.packed)[:qm.total_bits].copy()
    if n_flips:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        positions = rng.choice(qm.total_bits, size=n_flips, replace=False)
        bits[positions] ^= 1
    return QuantizedModel(qm.bits, np.packbits(bits), qm.total_bits,
                          qm.shape, qm.scales.copy(), list(qm.labels))


def hamming_distance(a: QuantizedModel, b: QuantizedModel) -> int:
    if a.total_bits != b.total_bits:
        raise ValueError("memories differ in size")
    xa = np.unpackbits(a.packed)[:a.total_bits]
    xb = np.unpackbits(b.packed)[:b.total_bits]
    return int(np.sum(xa ^ xb))


def run_trial(qm: QuantizedModel, encoded: np.ndarray, labels: np.ndarray,
              clean_accuracy: float, error_rate: float, seed: int) -> NoiseTrial:
    corrupted = dequantize(flip_bits(qm, error_rate, seed))
    acc = metrics.accuracy(similarity_matrix(corrupted, encoded).argmax(axis=1), labels)
    return NoiseTrial(error_rate, seed, (clean_accuracy - acc) * 100.0)


def noise_sweep(models_by_dim: dict, grid, trials: int, seed: int) -> list[SweepCell]:
    """Mean quality loss per (D, bits, rate) cell.

    ``models_by_dim`` maps a dimensionality to ``(model, encoded_test,
    labels)``; ``grid`` is an iterable of (dim, bits, rate) triples.  The
    clean baseline per (dim, bits) is the accuracy of the dequantized,
    unflipped model, so a rate that flips no bit yields exactly zero loss;
    such a cell runs no trial.  Trial seeds are derived from (seed, cell
    index, trial index).
    """
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
                losses[t] = run_trial(qm, encoded, labels, clean, rate,
                                      trial_seed).quality_loss
        cells.append(SweepCell(dim, bits, rate, trials,
                               float(losses.mean()), float(losses.std())))
    return cells


def _pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    shifts = np.arange(bits - 1, -1, -1)
    bit_matrix = ((codes[..., None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.reshape(-1))


def _unpack_codes(packed: np.ndarray, bits: int, shape: tuple[int, int]) -> np.ndarray:
    # bits divides 8, so no code straddles a byte: byte j holds 8 // bits
    # codes, the first in its top bits.
    shifts = np.arange(8 - bits, -1, -bits, dtype=np.uint8)
    codes = (packed[:, None] >> shifts) & ((1 << bits) - 1)
    return codes.reshape(-1)[:shape[0] * shape[1]].reshape(shape).astype(np.int64)
