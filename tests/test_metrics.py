"""Unit tests for classification metrics and ROC/AUC."""

import math

import numpy as np
import pytest

from hdclass import cli, learner, robustness
from hdclass.core import ClassModel, Encoder, similarity_matrix
from hdclass.data import Dataset
from hdclass.learner import TrainConfig
from hdclass.metrics import (
    accuracy,
    confusion_matrix,
    margin_scores,
    roc_curve,
    sensitivity_specificity,
    top_k_accuracy,
)

from reference_kernels import reference_top_k


def auc_by_pair_counting(scores, truth):
    """Independent AUC oracle: P(score_pos > score_neg) + 0.5 P(tie)."""
    scores = np.asarray(scores, dtype=float)
    truth = np.asarray(truth)
    pos = scores[truth == 1]
    neg = scores[truth == 0]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


class TestAccuracy:
    def test_basic(self):
        assert accuracy([0, 1, 2], [0, 1, 1]) == pytest.approx(2 / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0])


class TestTopKAccuracy:
    def test_matches_membership_brute_force(self):
        # Criterion 11: 100 random small instances against direct membership.
        rng = np.random.default_rng(42)
        for _ in range(100):
            k_classes = int(rng.integers(2, 6))
            dim = int(rng.integers(4, 12))
            m = int(rng.integers(3, 12))
            model = ClassModel(rng.normal(size=(k_classes, dim)))
            H = rng.normal(size=(m, dim))
            y = rng.integers(0, k_classes, size=m)
            k = int(rng.integers(1, k_classes + 1))
            expected = np.mean([int(y[j]) in reference_top_k(model, H[j], k)
                                for j in range(m)])
            assert top_k_accuracy(model, H, y, k) == pytest.approx(expected,
                                                                   abs=1e-12)

    @pytest.mark.parametrize("batch_top1", ["eval", "train", "noise"])
    def test_batch_top1_agrees_on_exact_ties(self, batch_top1, monkeypatch):
        # Classes 0 and 1 point the same way (C1 = 3 * C0), so every sample
        # has mathematically equal cosine to both; rounding decides the
        # winner, and every production top-1 path must decide it the same way.
        rng = np.random.default_rng(7)
        c0 = rng.normal(size=64)
        model = ClassModel(np.stack([c0, 3.0 * c0, rng.normal(size=64)]))
        H = rng.normal(size=(2000, 64))
        y = np.zeros(2000, dtype=int)

        if batch_top1 == "eval":
            acc = cli._evaluate(similarity_matrix(model, H), y)["accuracy"]
        elif batch_top1 == "train":
            # train() records the validation accuracy of the tie model on
            # the rows H themselves.
            def tie_epoch(trained, encoded, labels, eta):
                trained.classes[:] = model.classes

            monkeypatch.setattr(learner, "adaptive_fit_epoch", tie_epoch)
            monkeypatch.setattr(Encoder, "encode_batch", lambda self, X: np.array(X))
            cfg = TrainConfig(dim=64, mode="static", max_iters=1)
            _, _, report = learner.train(cfg, Dataset(H[:3], [0, 1, 2]), Dataset(H, y))
            acc = report.rows[0].valid_accuracy
        else:
            # A 1-bit memory dequantizes to +-scale/2 per class, so the tie
            # model's memory is again a C1 = 3 * C0 tie model; at rate 0 the
            # trial scores it against the top_k_accuracy baseline.
            qm = robustness.quantize(model, 1)
            model = robustness.dequantize(qm)
            assert np.array_equal(model.classes[1], 3.0 * model.classes[0])
            acc = top_k_accuracy(model, H, y, 1)
            assert robustness.run_trial(qm, H, y, acc, 0.0, [0]) == 0.0
        assert acc == top_k_accuracy(model, H, y, 1)

    def test_full_k_is_one(self):
        rng = np.random.default_rng(0)
        model = ClassModel(rng.normal(size=(3, 8)))
        H = rng.normal(size=(5, 8))
        assert top_k_accuracy(model, H, [0, 1, 2, 0, 1], 3) == 1.0


class TestConfusionMatrix:
    def test_counts(self):
        cm = confusion_matrix([0, 1, 1, 0], [0, 1, 0, 0], 2)
        assert cm.tolist() == [[2, 1], [0, 1]]

    def test_rows_are_truth(self):
        cm = confusion_matrix([1], [0], 2)
        assert cm[0, 1] == 1

    def test_label_bounds(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 2], [0, 1], 2)


class TestSensitivitySpecificity:
    def test_hand_oracle(self):
        cm = np.array([[8, 2], [1, 9]])
        rates = sensitivity_specificity(cm, 0)
        assert rates.sensitivity == pytest.approx(0.8)
        assert rates.specificity == pytest.approx(0.9)
        assert not math.isnan(rates.sensitivity) and not math.isnan(rates.specificity)

    def test_absent_class_is_undefined(self):
        cm = np.array([[0, 0], [0, 5]])
        rates = sensitivity_specificity(cm, 0)
        assert math.isnan(rates.sensitivity)
        assert not math.isnan(rates.specificity)

    def test_exhaustive_class_specificity_undefined(self):
        cm = np.array([[5, 0], [0, 0]])
        rates = sensitivity_specificity(cm, 0)
        assert not math.isnan(rates.sensitivity)
        assert math.isnan(rates.specificity)

    def test_class_bounds(self):
        with pytest.raises(ValueError):
            sensitivity_specificity(np.eye(2), 2)


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert curve.auc == pytest.approx(1.0, abs=1e-12)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)

    def test_auc_075_fixture(self):
        scores = [0.8, 0.6, 0.4, 0.2]
        truth = [1, 0, 1, 0]
        curve = roc_curve(scores, truth)
        assert curve.auc == pytest.approx(0.75, abs=1e-12)
        assert curve.auc == pytest.approx(auc_by_pair_counting(scores, truth),
                                          abs=1e-12)

    def test_constant_scores_chance(self):
        curve = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert curve.auc == pytest.approx(0.5, abs=1e-12)

    def test_matches_pair_counting_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(4, 30))
            scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=m)
            truth = rng.integers(0, 2, size=m)
            if truth.min() == truth.max():
                continue
            curve = roc_curve(scores, truth)
            assert curve.auc == pytest.approx(
                auc_by_pair_counting(scores, truth), abs=1e-12)

    def test_points_monotone_in_fpr(self):
        rng = np.random.default_rng(8)
        scores = rng.normal(size=40)
        truth = rng.integers(0, 2, size=40)
        curve = roc_curve(scores, truth)
        xs = [p[0] for p in curve.points]
        assert xs == sorted(xs)

    def test_needs_both_classes(self):
        with pytest.raises(ValueError):
            roc_curve([0.1, 0.2], [1, 1])

    def test_truth_must_be_binary(self):
        with pytest.raises(ValueError):
            roc_curve([0.1, 0.2], [1, 2])


class TestScores:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.model = ClassModel(rng.normal(size=(3, 8)))
        self.H = rng.normal(size=(6, 8))

    def test_margin_is_own_minus_best_other(self):
        sims = similarity_matrix(self.model, self.H)
        margins = margin_scores(sims, 1)
        expected = sims[:, 1] - np.maximum(sims[:, 0], sims[:, 2])
        assert np.allclose(margins, expected, atol=1e-12)

    def test_target_bounds(self):
        with pytest.raises(ValueError):
            margin_scores(similarity_matrix(self.model, self.H), 3)
