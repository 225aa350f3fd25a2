"""Hardware-noise experiment: quantize class prototypes into a byte-per-code
memory, flip a controlled fraction of its bits, and measure accuracy loss.

Quantization is symmetric mid-rise per class: with b bits and scale
``s = max|x| / 2^(b-1)`` the representable levels are ``s * (q + 0.5)``
for ``q`` in ``[-2^(b-1), 2^(b-1) - 1]``.  1-bit mode therefore stores
just the sign.  The memory is a k x D ``uint8`` array holding one b-bit
code per byte.  Its ``k * D * b`` bits are numbered as one MSB-first
stream: memory bit ``p`` is bit ``p % b``, counted from the top, of code
``p // b`` in row-major order, so flips can target any single bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .core import ClassModel, row_norms, similarity_matrix

SUPPORTED_BITS = (1, 2, 4, 8)


@dataclass
class QuantizedModel:
    bits: int
    packed: np.ndarray          # (k, D) uint8, one code per byte
    scales: np.ndarray          # per-class dequantization scale

    @property
    def total_bits(self) -> int:
        return self.packed.size * self.bits


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
    half = 1 << (bits - 1)
    scales = np.max(np.abs(classes), axis=1) / half
    codes = np.zeros(classes.shape, dtype=np.uint8)
    nz = scales > 0
    q = np.floor(classes[nz] / scales[nz, None])
    codes[nz] = np.clip(q, -half, half - 1) + half
    return QuantizedModel(bits, codes, scales)


def dequantize(qm: QuantizedModel) -> ClassModel:
    """The prototypes of the memory's codes, under the default class ids."""
    values = (qm.packed + (0.5 - (1 << (qm.bits - 1)))) * qm.scales[:, None]
    values[qm.scales == 0.0] = 0.0
    return ClassModel(values)


def flip_count(error_rate: float, total_bits: int) -> int:
    """round(rate% * total_bits): how many bits a trial at ``error_rate`` flips."""
    if not 0 <= error_rate <= 100:
        raise ValueError(f"error rate must be in [0, 100], got {error_rate}")
    return int(round(error_rate / 100.0 * total_bits))


def flip_bits(qm: QuantizedModel, error_rate: float, seed: int) -> QuantizedModel:
    """Flip exactly ``flip_count(error_rate, total_bits)`` distinct bits, seeded."""
    n_flips = flip_count(error_rate, qm.total_bits)
    packed = qm.packed.copy()
    if n_flips:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        positions = rng.choice(qm.total_bits, size=n_flips, replace=False)
        code, bit = np.divmod(positions, qm.bits)
        # A code's flipped bits are distinct, so their weights sum to its mask.
        mask = np.bincount(code, weights=1 << (qm.bits - 1 - bit), minlength=packed.size)
        packed ^= mask.astype(np.uint8).reshape(packed.shape)
    return QuantizedModel(qm.bits, packed, qm.scales.copy())


def hamming_distance(a: QuantizedModel, b: QuantizedModel) -> int:
    if a.bits != b.bits or a.packed.shape != b.packed.shape:
        raise ValueError(f"memories differ in layout: {a.bits}-bit {a.packed.shape} "
                         f"vs {b.bits}-bit {b.packed.shape}")
    return int(np.unpackbits(a.packed ^ b.packed).sum())


def run_trial(qm: QuantizedModel, encoded: np.ndarray, labels: np.ndarray,
              clean_accuracy: float, error_rate: float, seed: int,
              norms: np.ndarray | None = None) -> float:
    """The accuracy drop, in percentage points, of one seeded corruption.

    ``norms`` is ``row_norms(encoded)``, when the caller has it."""
    corrupted = dequantize(flip_bits(qm, error_rate, seed))
    acc = metrics.accuracy(
        similarity_matrix(corrupted, encoded, norms).argmax(axis=1), labels)
    return (clean_accuracy - acc) * 100.0


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
                losses[t] = run_trial(qm, encoded, labels, clean, rate, trial_seed, norms)
        cells.append(SweepCell(dim, bits, rate, trials,
                               float(losses.mean()), float(losses.std())))
    return cells
