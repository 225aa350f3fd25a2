"""Classification quality measures: accuracy, top-k, confusion matrices,
one-vs-rest sensitivity/specificity, and ROC/AUC curves."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ClassModel, ranking, similarity_matrix


def accuracy(pred, truth) -> float:
    p = np.asarray(pred)
    t = np.asarray(truth)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"prediction/truth shape mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("cannot compute accuracy of an empty set")
    return float(np.mean(p == t))


def top_k_accuracy(model: ClassModel, encoded, truth, k: int) -> float:
    """Fraction of samples whose true label appears in the top-k ranking."""
    H = np.asarray(encoded, dtype=np.float64)
    t = np.asarray(truth)
    if H.shape[0] != t.shape[0]:
        raise ValueError(f"{H.shape[0]} samples but {t.shape[0]} labels")
    if H.shape[0] == 0:
        raise ValueError("cannot compute accuracy of an empty set")
    if not 1 <= k <= model.n_classes:
        raise ValueError(f"k must be in [1, {model.n_classes}], got {k}")
    top = ranking(similarity_matrix(model, H), k)
    hits = int(np.count_nonzero((top == t[:, None]).any(axis=1)))
    return hits / H.shape[0]


def confusion_matrix(pred, truth, n_classes: int) -> np.ndarray:
    """k x k counts; rows are true classes, columns predicted classes."""
    p = np.asarray(pred, dtype=np.intp)
    t = np.asarray(truth, dtype=np.intp)
    if p.shape != t.shape:
        raise ValueError(f"prediction/truth shape mismatch: {p.shape} vs {t.shape}")
    if p.size and (p.min() < 0 or p.max() >= n_classes or t.min() < 0
                   or t.max() >= n_classes):
        raise ValueError(f"labels outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


@dataclass
class ClassRates:
    """One-vs-rest sensitivity/specificity.

    A zero denominator (class never true, or never absent) yields NaN
    rather than a silent default, so sweep aggregation can exclude it
    deliberately.
    """

    sensitivity: float
    specificity: float


def sensitivity_specificity(cm: np.ndarray, cls: int) -> ClassRates:
    cm = np.asarray(cm)
    k = cm.shape[0]
    if cm.shape != (k, k):
        raise ValueError(f"confusion matrix must be square, got {cm.shape}")
    if not 0 <= cls < k:
        raise ValueError(f"class index {cls} outside [0, {k})")
    tp = int(cm[cls, cls])
    fn = int(cm[cls].sum()) - tp
    fp = int(cm[:, cls].sum()) - tp
    tn = int(cm.sum()) - tp - fn - fp
    return ClassRates(tp / (tp + fn) if tp + fn > 0 else math.nan,
                      tn / (tn + fp) if tn + fp > 0 else math.nan)


@dataclass
class RocCurve:
    """(FPR, TPR) points sorted by FPR, anchored at (0,0) and (1,1)."""

    points: list[tuple[float, float]]
    auc: float


def roc_curve(scores, truth) -> RocCurve:
    """Threshold sweep over the distinct score values, highest first.

    ``truth`` is binary (1 = positive).  AUC is the trapezoidal integral
    of the resulting step curve.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth)
    if s.shape != t.shape or s.ndim != 1 or s.size == 0:
        raise ValueError("scores and truth must be equal-length nonempty vectors")
    pos = int(np.sum(t == 1))
    neg = int(np.sum(t == 0))
    if pos + neg != s.size:
        raise ValueError("truth must be 0/1")
    if pos == 0 or neg == 0:
        raise ValueError("ROC needs at least one positive and one negative sample")

    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    t_sorted = t[order]
    tps = np.cumsum(t_sorted == 1)
    fps = np.cumsum(t_sorted == 0)
    # keep only the last sample of each distinct score (full-threshold steps)
    distinct = np.r_[s_sorted[1:] != s_sorted[:-1], True]
    # The last threshold admits every sample, so the last point is (1, 1).
    fpr = np.r_[0.0, fps[distinct] / neg]
    tpr = np.r_[0.0, tps[distinct] / pos]
    return RocCurve(list(zip(fpr.tolist(), tpr.tolist())), float(np.trapezoid(tpr, fpr)))


def margin_scores(scores, target: int) -> np.ndarray:
    """Per-sample one-vs-rest score of an m x k score matrix: own-class
    similarity minus best other."""
    if not 0 <= target < scores.shape[1]:
        raise ValueError(f"class index {target} outside [0, {scores.shape[1]})")
    return scores[:, target] - np.delete(scores, target, axis=1).max(axis=1)
