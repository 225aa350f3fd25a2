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

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import metrics, regen
from .core import (ClassModel, Encoder, check_encoded, cosine_divide, ranking,
                   row_norms, similarity_matrix)

DYNAMIC = "dynamic"
STATIC = "static"

# Sub-stream identifiers hashed together with the root seed; keeping them
# fixed makes every component independently reproducible.
STREAM_ENCODER = 0
STREAM_SHUFFLE = 1

# train()'s learning rate.  Prototypes start at zero and cosines ignore scale,
# so a rate only scales them (exactly at a power-of-two ratio); no decision moves.
ETA = 0.05


@dataclass
class TrainConfig:
    """Knobs for one training run; validated eagerly at construction."""

    dim: int = 500
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

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimensionality must be >= 1, got {self.dim}")
        if not all(w > 0 and math.isfinite(w) for w in (self.alpha, self.beta, self.theta)):
            raise ValueError("alpha, beta and theta must be positive and finite")
        if self.theta >= self.beta:
            raise ValueError(
                f"theta must be < beta, got theta={self.theta}, beta={self.beta}")
        regen.nominal_count(self.dim, self.regen_rate)  # checks the rate
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not (self.min_delta >= 0 and math.isfinite(self.min_delta)):
            raise ValueError(f"min_delta must be finite and >= 0, got {self.min_delta}")
        if self.mode not in (DYNAMIC, STATIC):
            raise ValueError(f"mode must be '{DYNAMIC}' or '{STATIC}', got {self.mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    converged: bool = False
    # The iteration whose snapshot train() returned; not in to_jsonl().
    snapshot_iteration: int = 0

    @property
    def iterations(self) -> int:
        return len(self.rows)

    def to_jsonl(self) -> str:
        """One JSON object per row: every IterationRecord field but ``selection``."""
        names = [f.name for f in fields(IterationRecord) if f.name != "selection"]
        return "".join(json.dumps({name: getattr(r, name) for name in names},
                                  sort_keys=True) + "\n" for r in self.rows)


def _check_labels(model: ClassModel, labels) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= model.n_classes):
        bad = int(y[(y < 0) | (y >= model.n_classes)][0])
        raise ValueError(f"unknown class label {bad} (model has {model.n_classes} classes)")
    return y.astype(np.intp)


# Rows the adaptive epoch scores per call.  Timed in-process on recorded
# bench epochs, one row per call against 8-row blocks: 7.3-9.3 against
# 4.6-5.0 us a row at k=26, D=500 (isolet-cli), 3.2-3.8 against 3.4-3.7 us
# at k=4, D=128 (overlap-dyn128, where a quarter of the rows update).
# Blocks of 4 to 12 rows timed within noise of 8; 16 was slower at both.
_BLOCK = 8


def adaptive_fit_epoch(model: ClassModel, encoded, labels, eta: float) -> int:
    """One sequential pass of the adaptive update over the given samples;
    the number of updates it applied, one per misclassified sample.

    For a sample H predicted as class i with true class j != i:

        C_i <- C_i - eta * (1 - cos(H, C_i)) * H
        C_j <- C_j + eta * (1 - cos(H, C_j)) * H

    Correctly predicted samples leave the model untouched.  The pass is
    order-dependent by design, and its prototypes are bitwise those of
    scoring each sample on its own with a 1-row ``similarity_matrix``.

    The samples are scored ``_BLOCK`` rows per call against the current
    prototypes.  ``np.matmul(C, H[i:j, :, None])`` runs numpy's
    matrix-vector kernel once per row, with the same matrix, strides and
    vector as the vector-matrix product ``h @ C.T`` of a 1-row
    ``similarity_matrix`` call, so every dot product is bitwise the
    one-row score.  ``cosine_divide`` turns them into cosines, as in
    ``similarity_matrix``, and each row takes ``np.argmax`` (ties to the
    lowest index, the first NaN wins).  The rows before the block's first
    miss are no-ops; the miss updates the model and the next block starts
    at the row after it, so every row is scored against the model the
    one-row loop shows it.  The prototype and sample norms come
    from ``row_norms`` once per epoch; after an update the two touched
    prototype norms are ``math.sqrt(r.dot(r))``, bitwise what ``row_norms``
    gives for that row.
    """
    H = check_encoded(model, encoded)
    y = _check_labels(model, labels)
    if H.shape[0] != y.shape[0]:
        raise ValueError(f"{H.shape[0]} samples but {y.shape[0]} labels")
    if not (eta > 0 and math.isfinite(eta)):
        raise ValueError(f"learning rate must be positive and finite, got {eta}")
    eta = float(eta)
    C = model.classes
    rows, norms = list(C), row_norms(C)
    H_cols, hn = H[:, :, None], row_norms(H)[:, None]
    want_all = y.tolist()
    i, m, updates = 0, H.shape[0], 0
    while i < m:
        scores = cosine_divide(np.matmul(C, H_cols[i:i + _BLOCK])[..., 0],
                               hn[i:i + _BLOCK], norms)
        preds, want = scores.argmax(axis=1).tolist(), want_all[i:i + _BLOCK]
        if preds == want:
            i += _BLOCK
            continue
        r = 0
        while preds[r] == want[r]:
            r += 1
        pred, true, h = preds[r], want[r], H[i + r]
        row = scores[r].tolist()
        rows[pred] -= eta * (1.0 - row[pred]) * h
        rows[true] += eta * (1.0 - row[true]) * h
        norms[pred] = math.sqrt(rows[pred].dot(rows[pred]))
        norms[true] = math.sqrt(rows[true].dot(rows[true]))
        i += r + 1
        updates += 1
    return updates


# The benchmark's tracer binds its ``learner.score`` span to this name, so
# the batch scoring calls of this module go through it.
_score_matrix = similarity_matrix


def effective_dimensionality(dim: int, regen_rate: float, iters: int) -> int:
    """Physical dimensionality plus the nominal regenerated total.

    Each iteration contributes ``regen.nominal_count(dim, rate)`` dimensions.
    """
    if dim < 1:
        raise ValueError(f"dimensionality must be >= 1, got {dim}")
    if iters < 0:
        raise ValueError(f"iteration count must be >= 0, got {iters}")
    return dim + regen.nominal_count(dim, regen_rate) * iters


def _build_distance_rows(model: ClassModel, encoded: np.ndarray, scores: np.ndarray,
                         labels: np.ndarray, cfg: TrainConfig):
    """Triage every sample and emit the M (partial) and N (incorrect) rows.

    ``scores`` is the similarity matrix of ``encoded``.  Each side is one
    matrix, rows in sample order; the row formulas are elementwise, so
    every row is what a per-sample call would give.

    Rows are computed on unit-normalized hypervectors and prototypes so the
    per-dimension distance terms compare directions, not magnitudes;
    otherwise prototype growth over training swamps the signal and the
    intersection of the two sides goes empty.
    """
    top1, top2 = ranking(scores, 2).T
    wrong = np.flatnonzero(top1 != labels)
    Cn = regen.normalize_rows(model.classes)
    y, top1, top2 = labels[wrong], top1[wrong], top2[wrong]
    partial, incorrect = top2 == y, top2 != y
    # Each side gathers and normalizes its own rows: no copy of all of them.
    partial_rows = regen.partial_row(
        regen.normalize_rows(encoded[wrong[partial]]), Cn[y[partial]],
        Cn[top1[partial]], cfg.alpha, cfg.beta)
    incorrect_rows = regen.incorrect_row(
        regen.normalize_rows(encoded[wrong[incorrect]]), Cn[y[incorrect]],
        Cn[top1[incorrect]], Cn[top2[incorrect]], cfg.alpha, cfg.beta, cfg.theta)
    return partial_rows, incorrect_rows


def check_training_sets(train_set, valid_set):
    """The class count ``train`` derives from these sets, then their features
    (float64) and labels (intp), training set first; a ValueError when it
    cannot train on them: an empty set, splits that disagree on the feature
    count, fewer than 2 training classes, or validation labels beyond them."""
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
    if y_valid.max() >= k:
        raise ValueError("validation labels outside the training label universe")
    return k, X_train, y_train, X_valid, y_valid


def train(config: TrainConfig, train_set, valid_set):
    """Full training loop; returns ``(encoder, model, report)``.

    ``train_set`` and ``valid_set`` expose ``features`` (m x n) and
    ``labels`` (length m, dense 0-based); the model's classes take the
    training set's ``names`` where it has them, else their ids.
    Convergence: validation accuracy failing to improve by at least
    ``min_delta`` for ``patience`` consecutive iterations.  The final
    iteration (whether by convergence or by hitting ``max_iters``) does not
    regenerate, so the returned model never carries freshly zeroed,
    untrained dimensions.

    Both sets are encoded once up front; after a regeneration only the
    redrawn columns are encoded again (``Encoder.encode_batch(X, dims)``).  So a
    column never regenerated, and every column in static mode, stays
    bitwise equal to a fresh ``encode_batch``, and a regenerated column
    equals it within rounding (two matrix products of different shapes).
    Each epoch reads the cached training encodings in place, or under
    ``shuffle`` a copy of them in that epoch's order.

    The returned ``(encoder, model)`` pair is the snapshot with the highest
    validation accuracy seen over the whole run (earliest iteration on
    ties), not necessarily the final state: regeneration zeroes prototype
    columns, so the last iterations may sit in a transient dip.
    ``report.snapshot_iteration`` names that iteration.  The
    encoder's RNG stream is left where the run finished, so further
    regeneration continues deterministically.
    """
    k, X_train, y_train, X_valid, y_valid = check_training_sets(train_set, valid_set)

    encoder_seed = int(np.random.SeedSequence(
        entropy=(config.seed, STREAM_ENCODER)).generate_state(1)[0])
    encoder = Encoder.create(X_train.shape[1], config.dim, encoder_seed)
    # Keep projections of roughly unit-variance features within one period
    # of the cos/sin nonlinearity.
    encoder.input_scale = 1.0 / np.sqrt(X_train.shape[1])
    shuffle_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(config.seed, STREAM_SHUFFLE)))

    names = getattr(train_set, "names", None)
    model = ClassModel(np.zeros((k, config.dim)), None if names is None else names[:k])
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
        order = shuffle_rng.permutation(X_train.shape[0]) if config.shuffle else slice(None)
        adaptive_fit_epoch(model, encoded[order], y_train[order], ETA)

        scores = _score_matrix(model, encoded)
        train_acc = metrics.accuracy(scores.argmax(axis=1), y_train)
        valid_acc = metrics.accuracy(
            _score_matrix(model, valid_encoded).argmax(axis=1), y_valid)

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
                model, encoded, scores, y_train, config)
            undesired = regen.select_undesired(
                partial_rows, incorrect_rows, config.regen_rate, config.dim)
            if undesired.dims:
                idx = sorted(undesired.dims)
                encoder.regenerate(idx)
                encoded[:, idx] = encoder.encode_batch(X_train, idx)
                valid_encoded[:, idx] = encoder.encode_batch(X_valid, idx)
                # Prototype entries at regenerated dimensions were learned
                # under the old base vectors; reset them.
                model.classes[:, idx] = 0.0
                regenerated = len(idx)
                effective += regenerated

        report.rows.append(IterationRecord(
            it, train_acc, valid_acc, regenerated, effective, undesired))
        if stopping:
            report.converged = stale >= config.patience
            break

    model, encoder.base, encoder.phase = snapshot
    return encoder, model, report
