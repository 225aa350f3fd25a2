"""Adaptive prototype training with learner-aware dimension regeneration.

The training and validation sets are encoded once, and a regeneration
re-encodes only the columns it redrew.  One training iteration runs a
single adaptive pass (misclassified samples pull their true prototype
closer and push the winning wrong prototype away, each scaled by how novel
the sample looks), then, in dynamic mode, triages every sample by where
its true label landed in the top-2 ranking, selects misleading encoding
dimensions and redraws them.  Static mode skips the regeneration step
entirely and matches the behaviour of conventional fixed-encoder training.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

import numpy as np

from . import regen
from .core import (ClassModel, DimensionError, Encoder, ranking, similarity_matrix,
                   similarity_scores)

DYNAMIC = "dynamic"
STATIC = "static"

# Sub-stream identifiers hashed together with the root seed; keeping them
# fixed makes every component independently reproducible.
STREAM_ENCODER = 0
STREAM_SHUFFLE = 1


@dataclass
class TrainConfig:
    """Knobs for one training run; validated eagerly at construction."""

    dim: int = 500
    eta: float = 0.05
    alpha: float = 2.0
    beta: float = 1.0
    theta: float = 0.5
    regen_rate: float = 20.0
    max_iters: int = 30
    patience: int = 5
    min_delta: float = 0.001
    mode: str = DYNAMIC
    seed: int = 0
    shuffle: bool = False
    n_formula: str = "prose"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimensionality must be >= 1, got {self.dim}")
        if self.eta <= 0:
            raise ValueError(f"learning rate must be positive, got {self.eta}")
        if min(self.alpha, self.beta, self.theta) <= 0:
            raise ValueError("alpha, beta and theta must be positive")
        if self.theta >= self.beta:
            raise ValueError(
                f"theta must be < beta, got theta={self.theta}, beta={self.beta}")
        if not 0 < self.regen_rate <= 100:
            raise ValueError(
                f"regeneration rate must be in (0, 100], got {self.regen_rate}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.min_delta < 0:
            raise ValueError(f"min_delta must be >= 0, got {self.min_delta}")
        if self.mode not in (DYNAMIC, STATIC):
            raise ValueError(f"mode must be '{DYNAMIC}' or '{STATIC}', got {self.mode!r}")
        if self.n_formula not in regen.N_FORMULAS:
            raise ValueError(f"unknown n_formula: {self.n_formula!r}")


class Outcome(enum.Enum):
    CORRECT = "correct"
    PARTIALLY_CORRECT = "partially_correct"
    INCORRECT = "incorrect"


@dataclass
class OutcomeTriage:
    """Where a sample's true label landed in the top-2 ranking."""

    outcome: Outcome
    true_label: int
    top1: int | None = None
    top2: int | None = None

    def __post_init__(self):
        if self.outcome is Outcome.PARTIALLY_CORRECT and self.top1 is None:
            raise ValueError("partially-correct triage must carry the top-1 class")
        if self.outcome is Outcome.INCORRECT and (self.top1 is None or self.top2 is None):
            raise ValueError("incorrect triage must carry both top-2 classes")


@dataclass
class IterationRecord:
    iteration: int
    train_accuracy: float
    valid_accuracy: float
    regenerated: int
    effective_dim: int
    # The iteration's selection; None in static mode and on the final one.
    selection: regen.UndesiredSet | None = None


@dataclass
class TrainReport:
    rows: list[IterationRecord] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    # The iteration whose snapshot train() returned; not in to_jsonl().
    snapshot_iteration: int = 0

    def to_jsonl(self) -> str:
        lines = []
        for r in self.rows:
            lines.append(json.dumps({
                "iteration": r.iteration,
                "train_accuracy": r.train_accuracy,
                "valid_accuracy": r.valid_accuracy,
                "regenerated": r.regenerated,
                "effective_dim": r.effective_dim,
            }, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


def _check_encoded(model: ClassModel, encoded: np.ndarray) -> np.ndarray:
    H = np.asarray(encoded, dtype=np.float64)
    if H.ndim != 2 or H.shape[1] != model.dim:
        raise DimensionError(
            f"encoded batch must be m x {model.dim}, got shape {H.shape}")
    return H


def _check_labels(model: ClassModel, labels) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= model.n_classes):
        bad = int(y[(y < 0) | (y >= model.n_classes)][0])
        raise ValueError(f"unknown class label {bad} (model has {model.n_classes} classes)")
    return y.astype(np.intp)


def predict(model: ClassModel, h) -> int:
    """Most similar class; ties resolved toward the lowest class index."""
    return int(np.argmax(similarity_scores(model, h)))


def top_k(model: ClassModel, h, k: int) -> list[int]:
    """Class indices by descending similarity, ties by ascending index."""
    if not 1 <= k <= model.n_classes:
        raise ValueError(f"k must be in [1, {model.n_classes}], got {k}")
    return ranking(similarity_scores(model, h), k).tolist()


def triage(model: ClassModel, h, true_label: int) -> OutcomeTriage:
    """Categorize a sample by the rank of its true label in the top 2."""
    if not 0 <= true_label < model.n_classes:
        raise ValueError(f"unknown class label {true_label}")
    first, second = top_k(model, h, 2)
    if true_label == first:
        return OutcomeTriage(Outcome.CORRECT, true_label)
    if true_label == second:
        return OutcomeTriage(Outcome.PARTIALLY_CORRECT, true_label, top1=first)
    return OutcomeTriage(Outcome.INCORRECT, true_label, top1=first, top2=second)


# Rows scored per matrix product in the adaptive epoch, and the margin that
# makes a batch verdict certain.  A gemm cosine and the one-row gemv cosine
# each lie within D * eps / 2 of the exact value, so they differ by at most
# D * eps (under 5e-10 for D up to 2e6): a true class that beats every
# other by the margin in the batch wins under the one-row kernel too.
_LAZY_BLOCK = 16
_LAZY_MARGIN = 1e-9


def adaptive_fit_epoch(model: ClassModel, encoded, labels, eta: float) -> ClassModel:
    """One sequential pass of the adaptive update over the given samples.

    For a sample H predicted as class i with true class j != i:

        C_i <- C_i - eta * (1 - cos(H, C_i)) * H
        C_j <- C_j + eta * (1 - cos(H, C_j)) * H

    Correctly predicted samples leave the model untouched.  The pass is
    order-dependent by design; norm caches are refreshed for the two
    touched prototypes after every update.

    Samples are scored a block at a time with one matrix product.  A
    sample whose true class still wins after ``_LAZY_MARGIN`` is taken off
    its score is correct under the one-row kernel too, and is skipped.
    Every other sample is scored on its own, in order, and after an update
    the next block starts at the following sample, so the result is
    bitwise that of scoring each sample on its own.
    """
    H = _check_encoded(model, encoded)
    y = _check_labels(model, labels)
    if H.shape[0] != y.shape[0]:
        raise ValueError(f"{H.shape[0]} samples but {y.shape[0]} labels")
    if eta <= 0:
        raise ValueError(f"learning rate must be positive, got {eta}")
    start = 0
    while start < H.shape[0]:
        stop = min(start + _LAZY_BLOCK, H.shape[0])
        block = y[start:stop]
        scores = similarity_matrix(model, H[start:stop])
        scores[np.arange(block.size), block] -= _LAZY_MARGIN
        unsure = start + np.flatnonzero(np.argmax(scores, axis=1) != block)
        start = stop
        for j in unsure:
            h = H[j]
            scores = similarity_matrix(model, H[j:j + 1])[0]
            pred = int(np.argmax(scores))
            true = int(y[j])
            if pred != true:
                model.classes[pred] -= eta * (1.0 - scores[pred]) * h
                model.classes[true] += eta * (1.0 - scores[true]) * h
                model.refresh_norms((pred, true))
                start = j + 1
                break
    return model


# The benchmark's tracer binds its ``learner.score`` span to this name, so
# the batch scoring calls of this module go through it.
_score_matrix = similarity_matrix


def _accuracy(model: ClassModel, encoded: np.ndarray, labels: np.ndarray) -> float:
    preds = np.argmax(_score_matrix(model, encoded), axis=1)
    return float(np.mean(preds == labels))


def effective_dimensionality(dim: int, regen_rate: float, iters: int) -> int:
    """Physical dimensionality plus the nominal regenerated total.

    Each iteration contributes floor(dim * rate / 100) dimensions.
    """
    if dim < 1:
        raise ValueError(f"dimensionality must be >= 1, got {dim}")
    if not 0 < regen_rate <= 100:
        raise ValueError(f"regeneration rate must be in (0, 100], got {regen_rate}")
    if iters < 0:
        raise ValueError(f"iteration count must be >= 0, got {iters}")
    return dim + int(np.floor(dim * regen_rate / 100.0)) * iters


def _build_distance_rows(model: ClassModel, encoded: np.ndarray,
                         labels: np.ndarray, cfg: TrainConfig):
    """Triage every sample and emit the M (partial) and N (incorrect) rows.

    Each side is one matrix, rows in sample order; the row formulas are
    elementwise, so every row is what a per-sample call would give.

    Rows are computed on unit-normalized hypervectors and prototypes so the
    per-dimension distance terms compare directions, not magnitudes;
    otherwise prototype growth over training swamps the signal and the
    intersection of the two sides goes empty.
    """
    top1, top2 = ranking(_score_matrix(model, encoded), 2).T
    Hn = regen.normalize_rows(encoded)
    Cn = regen.normalize_rows(model.classes)
    wrong = top1 != labels
    partial = wrong & (top2 == labels)
    incorrect = wrong & ~partial
    partial_rows = regen.partial_row(
        Hn[partial], Cn[labels[partial]], Cn[top1[partial]], cfg.alpha, cfg.beta)
    incorrect_rows = regen.incorrect_row(
        Hn[incorrect], Cn[labels[incorrect]], Cn[top1[incorrect]],
        Cn[top2[incorrect]], cfg.alpha, cfg.beta, cfg.theta,
        formula=cfg.n_formula)
    return partial_rows, incorrect_rows


def train(config: TrainConfig, train_set, valid_set):
    """Full training loop; returns ``(encoder, model, report)``.

    ``train_set`` and ``valid_set`` expose ``features`` (m x n) and
    ``labels`` (length m, dense 0-based).  Convergence: validation accuracy
    failing to improve by at least ``min_delta`` for ``patience``
    consecutive iterations.  The final iteration (whether by convergence or
    by hitting ``max_iters``) does not regenerate, so the returned model
    never carries freshly zeroed, untrained dimensions.

    Both sets are encoded once up front; after a regeneration only the
    redrawn columns are encoded again (``Encoder.encode_columns``).  So a
    column never regenerated, and every column in static mode, stays
    bitwise equal to a fresh ``encode_batch``, and a regenerated column
    equals it within rounding (the gemm and the per-row gemv kernels).

    The returned ``(encoder, model)`` pair is the snapshot with the highest
    validation accuracy seen over the whole run (earliest iteration on
    ties), not necessarily the final state: regeneration zeroes prototype
    columns, so the last iterations may sit in a transient dip.
    ``report.snapshot_iteration`` names that iteration.  The
    encoder's RNG stream is left where the run finished, so further
    regeneration continues deterministically.
    """
    X_train = np.asarray(train_set.features, dtype=np.float64)
    y_train = np.asarray(train_set.labels, dtype=np.intp)
    X_valid = np.asarray(valid_set.features, dtype=np.float64)
    y_valid = np.asarray(valid_set.labels, dtype=np.intp)
    if X_train.shape[0] == 0:
        raise ValueError("training set is empty")
    if X_valid.shape[0] == 0:
        raise ValueError("validation set is empty")
    if X_valid.ndim != 2 or X_valid.shape[1] != X_train.shape[1]:
        raise ValueError("train and validation splits disagree on feature count")
    k = int(y_train.max()) + 1
    if k < 2:
        raise ValueError("training set must contain at least 2 classes")
    if y_valid.size and y_valid.max() >= k:
        raise ValueError("validation labels outside the training label universe")

    encoder_seed = int(np.random.SeedSequence(
        entropy=(config.seed, STREAM_ENCODER)).generate_state(1)[0])
    encoder = Encoder.create(X_train.shape[1], config.dim, encoder_seed)
    # Keep projections of roughly unit-variance features within one period
    # of the cos/sin nonlinearity.
    encoder.input_scale = 1.0 / np.sqrt(X_train.shape[1])
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(config.seed, STREAM_SHUFFLE)))

    model = ClassModel.zeros(k, config.dim)
    report = TrainReport()
    effective = config.dim
    best_valid = -np.inf
    stale = 0
    # Regeneration wipes prototype columns, so validation accuracy dips
    # transiently after each redraw; keep a snapshot of the best
    # (model, encoder) pair seen and return that instead of the last state.
    snapshot_acc = -np.inf
    snapshot = None

    encoded = encoder.encode_batch(X_train)
    valid_encoded = encoder.encode_batch(X_valid)
    for it in range(1, config.max_iters + 1):
        order = np.arange(X_train.shape[0])
        if config.shuffle:
            shuffle_rng.shuffle(order)
        adaptive_fit_epoch(model, encoded[order], y_train[order], config.eta)

        train_acc = _accuracy(model, encoded, y_train)
        valid_acc = _accuracy(model, valid_encoded, y_valid)

        if valid_acc > snapshot_acc:
            snapshot_acc = valid_acc
            snapshot = (model.copy(), encoder.base.copy(), encoder.phase.copy())
            report.snapshot_iteration = it

        if valid_acc >= best_valid + config.min_delta:
            best_valid = valid_acc
            stale = 0
        else:
            stale += 1
        stopping = stale >= config.patience or it == config.max_iters

        regenerated = 0
        undesired = None
        if config.mode == DYNAMIC and not stopping:
            partial_rows, incorrect_rows = _build_distance_rows(
                model, encoded, y_train, config)
            undesired = regen.select_undesired(
                partial_rows, incorrect_rows, config.regen_rate, config.dim)
            if undesired.dims:
                idx = sorted(undesired.dims)
                encoder.regenerate(idx)
                encoded[:, idx] = encoder.encode_columns(X_train, idx)
                valid_encoded[:, idx] = encoder.encode_columns(X_valid, idx)
                # Prototype entries at regenerated dimensions were learned
                # under the old base vectors; reset them.
                model.classes[:, idx] = 0.0
                model.refresh_norms()
                regenerated = len(idx)
                effective += regenerated

        report.rows.append(IterationRecord(
            it, train_acc, valid_acc, regenerated, effective, undesired))
        if stopping:
            report.iterations = it
            report.converged = stale >= config.patience
            break

    model, encoder.base, encoder.phase = snapshot
    return encoder, model, report
