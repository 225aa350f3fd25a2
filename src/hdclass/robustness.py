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
# A noise cell scores its trials in chunks whose stacked score matrix holds
# at most this many cells, so a sweep's memory does not grow with its trial
# count.  2^19 (4 MB of float64) ran as fast as 2^20 at the ISOLET shape.
CELLS = 1 << 19


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


def run_trial(qm: QuantizedModel, encoded: np.ndarray, labels: np.ndarray,
              clean_accuracy: float, error_rate: float, seeds, norms: np.ndarray) -> np.ndarray:
    """The accuracy drops, in percentage points, of one seeded corruption
    per seed in ``seeds``, a seed or a sequence of them; ``norms`` is
    ``row_norms(encoded)``.

    The trials' prototypes are stacked and scored against the rows in one
    product.  A trial takes its accuracy from that product when the
    certificate of :func:`_certified_gaps` decides every one of its rows.
    Any other trial, and a call with one seed, is scored alone by
    :func:`similarity_matrix`.  Either way a loss is bitwise the one that
    scoring the trial alone gives.
    """
    corrupted = [dequantize(flip_bits(qm, error_rate, seed))
                 for seed in np.atleast_1d(seeds).tolist()]
    losses = np.empty(len(corrupted))
    alone = range(len(corrupted))
    if len(corrupted) > 1 and np.all(_in_range(norms)):
        gaps, bounds, certifiable = _certified_gaps(corrupted, encoded, labels, norms)
        losses[:] = (clean_accuracy - np.count_nonzero(gaps > bounds, axis=1)
                     / len(labels)) * 100.0
        alone = np.flatnonzero(~(np.all(np.abs(gaps) > bounds, axis=1) & certifiable))
    for t in alone:
        acc = metrics.accuracy(
            similarity_matrix(corrupted[t], encoded, norms).argmax(axis=1), labels)
        losses[t] = (clean_accuracy - acc) * 100.0
    return losses


def _in_range(norms: np.ndarray) -> np.ndarray:
    """Norms in [2^-480, 2^480]: there the squares, norm products and dots
    of rows and prototypes neither overflow nor lose precision to
    underflow, which the certificate's rounding bound assumes.  Zero and
    non-finite norms are out of range."""
    return (norms >= 2.0 ** -480) & (norms <= 2.0 ** 480)


def _stacked_dots(prototypes: np.ndarray, encoded: np.ndarray) -> np.ndarray:
    """The stacked product: every prototype's dot product with every row."""
    return prototypes @ encoded.T


def _certified_gaps(corrupted: list, encoded: np.ndarray, labels: np.ndarray,
                    norms: np.ndarray) -> tuple:
    """Each row's true-class gap under each of c trials, from one stacked
    product.

    Returns the c x m gaps, their length-m bounds and a length-c flag per
    trial.  A row's gap is its true class's score, the dot product over the
    prototype norm, minus the best other class's; a row whose label names
    no class has gap -inf.  Divided by the row norm, a gap is a cosine gap.
    Each dot lies within D·eps·|h||c| of the exact one on either path, so
    the stacked and the per-trial cosines differ by at most 2·D·eps and a
    gap by 4·D·eps, plus a few roundings.  So where ``|gap| > bound``, with
    ``bound = 8·(D + 1)·eps·|h|``, scoring the trial alone decides the row
    the same way: correct exactly when the gap is positive.  Exact ties,
    zero rows and NaN gaps fail that test.  A trial whose flag is false
    holds a prototype whose norm is zero or out of range, and its gaps are
    not used.
    """
    k, dim = corrupted[0].classes.shape
    # Class j of trial t is row j*c + t, so the scores reshape to k x c x m
    # and the best other class is a maximum over k contiguous slabs.
    prototypes = np.stack([model.classes for model in corrupted], axis=1).reshape(-1, dim)
    class_norms = row_norms(prototypes)
    usable = _in_range(class_norms)
    # Out-of-range prototypes would overflow or divide by zero; their
    # trials are scored alone.
    prototypes[~usable] = 0.0
    scores = _stacked_dots(prototypes, encoded)
    scores /= np.where(usable, class_norms, 1.0)[:, None]
    scores = scores.reshape(k, len(corrupted), len(labels))
    hit = np.arange(k) == np.asarray(labels)[:, None]
    true_class, rows = hit.argmax(axis=1), np.arange(len(labels))
    true_score = scores[true_class, :, rows].T
    scores[true_class, :, rows] = -np.inf
    gaps = true_score - scores.max(axis=0)
    gaps[:, ~hit.any(axis=1)] = -np.inf
    margin = 8.0 * (dim + 1) * np.finfo(np.float64).eps
    return gaps, margin * norms, usable.reshape(k, len(corrupted)).all(axis=0)


def noise_sweep(models_by_dim: dict, grid, trials: int, seed: int) -> list[SweepCell]:
    """Mean quality loss per (D, bits, rate) cell.

    ``models_by_dim`` maps a dimensionality to ``(model, encoded_test,
    labels)``; ``grid`` is an iterable of (dim, bits, rate) triples.  The
    clean baseline per (dim, bits) is the accuracy of the dequantized,
    unflipped model, so a rate that flips no bit yields exactly zero loss;
    such a cell runs no trial.  Trial seeds are derived from (seed, cell
    index, trial index).  A cell's trials run in chunks of
    ``max(1, CELLS // (m * k))`` per :func:`run_trial` call, for m test rows
    and k classes, so a chunk's score matrix holds at most ``CELLS`` cells
    whatever the trial count.
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
            chunk = max(1, CELLS // (len(labels) * model.n_classes))
            for lo in range(0, trials, chunk):
                seeds = [int(np.random.SeedSequence(
                    entropy=(seed, cell_idx, t)).generate_state(1)[0])
                    for t in range(lo, min(lo + chunk, trials))]
                losses[lo:lo + chunk] = run_trial(qm, encoded, labels, clean, rate,
                                                  seeds, norms)
        cells.append(SweepCell(dim, bits, rate, trials,
                               float(losses.mean()), float(losses.std())))
    return cells
