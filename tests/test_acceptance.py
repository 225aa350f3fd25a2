"""Acceptance criteria for the library, one test per criterion.

Statistical criteria run on pinned seeds; the synthetic benchmark used by
criteria 5-7 is defined in conftest (clusters whose nearest pair has a 30%
Gaussian overlap coefficient).
"""

import filecmp
import os

import numpy as np
import pytest

from hdclass.cli import EXIT_OK, main
from hdclass.core import ClassModel, Encoder, similarity_matrix
from hdclass.data import apply_normalizer, fit_normalizer, load_csv, split, synth_blobs
from hdclass.learner import (
    TrainConfig,
    adaptive_fit_epoch,
    effective_dimensionality,
    train,
)
from hdclass.metrics import (
    confusion_matrix,
    roc_curve,
    sensitivity_specificity,
    top_k_accuracy,
)
from hdclass.regen import incorrect_row, partial_row
from hdclass.robustness import noise_sweep
from conftest import make_benchmark, shuffle_dataset, eval_accuracy
from reference_kernels import reference_top_k
from test_metrics import auc_by_pair_counting


def test_criterion_1_adaptive_epoch_is_noop_when_all_correct():
    """A model that already classifies every sample correctly is untouched."""
    rng = np.random.default_rng(0)
    model = ClassModel(rng.normal(size=(4, 32)))
    # Samples aligned with their own prototype are classified correctly.
    labels = rng.integers(0, 4, size=50)
    encoded = model.classes[labels] * rng.uniform(0.5, 2.0, size=(50, 1))
    before = model.classes.copy()
    adaptive_fit_epoch(model, encoded, labels, eta=0.3)
    assert np.array_equal(model.classes, before)


def test_criterion_2_hand_trace_oracles():
    """Adaptive update and distance-row fixtures match hand arithmetic."""
    # Adaptive update: k=2, D=2, H=(1,0) labeled class 2, eta=1.
    model = ClassModel(np.array([[1.0, 0.0], [0.0, 1.0]]))
    adaptive_fit_epoch(model, np.array([[1.0, 0.0]]), [1], eta=1.0)
    assert np.max(np.abs(model.classes - [[1.0, 0.0], [1.0, 1.0]])) < 1e-12
    # Partial row: D=3 fixture.
    row = partial_row([1, 0, 0], [0, 0, 1], [1, 1, 0], 1.0, 1.0)
    assert np.max(np.abs(row - [1.0, -1.0, 1.0])) < 1e-12
    # Incorrect row: D=2 fixture at alpha=2, beta=1, theta=0.5.
    row = incorrect_row([1, 1], [0, 0], [1, 0], [0, 1], 2.0, 1.0, 0.5)
    assert np.max(np.abs(row - [1.5, 1.0])) < 1e-12


def test_criterion_3_effective_dimensionality():
    assert effective_dimensionality(500, 20, 35) == 4000


def test_criterion_4_convergence_on_separable_blobs():
    """Dynamic training reaches >= 0.95 test accuracy within 20 iterations
    on well-separated blobs (n=10, k=4, 2000 train / 500 test), 5/5 seeds."""
    for seed in range(5):
        tr, va, te = make_benchmark(seed, n_features=10, k_classes=4,
                                    per_class=750, separation=5.0,
                                    fractions=(2000 / 3000, 500 / 3000,
                                               500 / 3000))
        encoder, model, report = train(
            TrainConfig(dim=256, mode="dynamic", max_iters=20, patience=20,
                        min_delta=0.0, seed=seed), tr, va)
        assert report.iterations <= 20
        acc = eval_accuracy(encoder, model, te)
        assert acc >= 0.95, f"seed {seed}: accuracy {acc:.4f} < 0.95"


def test_criterion_5_dynamic_beats_static_at_equal_dim(benchmark_models):
    """Mean dynamic accuracy >= static at D=128, strict win in >= 3/5 seeds."""
    dyn, stat = [], []
    strict = 0
    for run in benchmark_models:
        d = eval_accuracy(run["dynamic"][0], run["dynamic"][1], run["test"])
        s = eval_accuracy(run["static128"][0], run["static128"][1], run["test"])
        dyn.append(d)
        stat.append(s)
        strict += d > s
    assert np.mean(dyn) >= np.mean(stat), (dyn, stat)
    assert strict >= 3, f"strict wins {strict}/5: dyn={dyn} stat={stat}"


def test_criterion_6_dimensionality_compression(benchmark_models):
    """Dynamic D=128 lands within 1 percentage point of static D=1024."""
    dyn = [eval_accuracy(r["dynamic"][0], r["dynamic"][1], r["test"])
           for r in benchmark_models]
    big = [eval_accuracy(r["static1024"][0], r["static1024"][1], r["test"])
           for r in benchmark_models]
    gap = np.mean(big) - np.mean(dyn)
    assert gap <= 0.01, f"gap {gap * 100:.2f}pp > 1pp (dyn={dyn}, static1024={big})"


def test_criterion_7_top2_dominates_top1(benchmark_models):
    """Top-2 accuracy >= top-1 accuracy for every trained model, exactly."""
    for run in benchmark_models:
        for key in ("dynamic", "static128", "static1024"):
            encoder, model = run[key][0], run[key][1]
            encoded = encoder.encode_batch(run["test"].features)
            top1 = top_k_accuracy(model, encoded, run["test"].labels, 1)
            top2 = top_k_accuracy(model, encoded, run["test"].labels, 2)
            assert top2 >= top1


def test_criterion_8_robustness_orderings():
    """At 10% flips: 1-bit D=4096 loses less than 8-bit D=4096, which loses
    less than 8-bit D=512; 30 trials per cell."""
    tr, va, te = make_benchmark(0, n_features=10, k_classes=4, per_class=750,
                                separation=3.0,
                                fractions=(2 / 3, 1 / 6, 1 / 6))
    models = {}
    for dim in (512, 4096):
        encoder, model, _ = train(
            TrainConfig(dim=dim, mode="static", max_iters=10, patience=10,
                        min_delta=0.0, seed=0), tr, va)
        models[dim] = (model, encoder.encode_batch(te.features), te.labels)
    cells = noise_sweep(models, [(4096, 1, 10.0), (4096, 8, 10.0),
                                 (512, 8, 10.0)], trials=30, seed=7)
    loss = {(c.dim, c.bits): c.mean_loss for c in cells}
    assert loss[(4096, 1)] < loss[(4096, 8)], loss
    assert loss[(4096, 8)] < loss[(512, 8)], loss


def test_criterion_9_alpha_increases_sensitivity():
    """Doubling alpha (beta, theta fixed) raises macro-sensitivity on an
    imbalanced set in >= 4 of 5 seeds."""
    wins = 0
    for seed in range(10, 15):
        ds = synth_blobs(8, 3, 1800, 2.0, seed)
        keep = np.concatenate([np.flatnonzero(ds.labels == c)[:n]
                               for c, n in ((0, 1800), (1, 600), (2, 300))])
        ds = shuffle_dataset(type(ds)(ds.features[keep], ds.labels[keep],
                                      ds.names, ds.meta), seed)
        tr, va, te = split(ds, (0.5, 0.2, 0.3), stratified=True, seed=seed)
        spec = fit_normalizer(tr)
        tr, va, te = (apply_normalizer(spec, d) for d in (tr, va, te))
        sens = {}
        for alpha in (1.0, 2.0):
            encoder, model, _ = train(
                TrainConfig(dim=64, mode="dynamic", alpha=alpha, beta=1.0,
                            theta=0.5, regen_rate=40.0, max_iters=40,
                            patience=40, min_delta=0.0, seed=seed), tr, va)
            preds = np.argmax(
                similarity_matrix(model, encoder.encode_batch(te.features)), axis=1)
            cm = confusion_matrix(preds, te.labels, 3)
            sens[alpha] = np.mean([sensitivity_specificity(cm, c).sensitivity
                                   for c in range(3)])
        wins += sens[2.0] >= sens[1.0]
    assert wins >= 4, f"larger alpha won only {wins}/5 seeds"


def test_criterion_10_cli_determinism(tmp_path):
    """Every CLI command re-run with identical config and seed produces
    byte-identical primary outputs."""
    def cli(*argv):
        assert main(list(argv)) == EXIT_OK

    primary = {
        "synth": ["blobs.csv"],
        "train": ["model.json", "report.jsonl"],
        "eval": ["eval.json"],
        "roc": ["roc.csv", "roc.json"],
        "noise": ["noise.csv", "summary.json"],
        "sweep": ["sweep.csv"],
    }
    roots = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        cli("synth", "--features", "6", "--classes", "3", "--per-class", "40",
            "--separation", "3.0", "--seed", "1", "--out", str(root / "synth"))
        blobs = str(root / "synth" / "blobs.csv")
        cli("train", "--data", blobs, "--dim", "32", "--max-iters", "3",
            "--seed", "0", "--fractions", "0.7,0.3,0.0",
            "--out", str(root / "train"))
        model = str(root / "train" / "model.json")
        norm = str(root / "train" / "norm.json")
        cli("eval", "--model", model, "--data", blobs, "--norm", norm,
            "--out", str(root / "eval"))
        cli("roc", "--model", model, "--data", blobs, "--norm", norm,
            "--class-id", "0", "--out", str(root / "roc"))
        cli("noise", "--model", model, "--data", blobs, "--norm", norm,
            "--bits", "1,8", "--rates", "0,10", "--trials", "3", "--seed", "2",
            "--out", str(root / "noise"))
        cli("sweep-weights", "--data", blobs, "--alphas", "1.0,2.0",
            "--betas", "1.0", "--thetas", "0.5", "--dim", "32",
            "--max-iters", "2", "--seed", "0", "--out", str(root / "sweep"))
        roots.append(root)
    for command, files in primary.items():
        for name in files:
            a = roots[0] / command / name
            b = roots[1] / command / name
            assert filecmp.cmp(a, b, shallow=False), f"{command}/{name} differs"


def test_criterion_11_metrics_oracles():
    """ROC fixtures match brute-force pair counting to 1e-12; top-k accuracy
    matches membership brute force on 100 random instances."""
    fixtures = [
        ([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]),   # AUC 1.0
        ([0.8, 0.6, 0.4, 0.2], [1, 0, 1, 0]),   # AUC 0.75
        ([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]),   # AUC 0.5
    ]
    for scores, truth in fixtures:
        curve = roc_curve(scores, truth)
        assert abs(curve.auc - auc_by_pair_counting(scores, truth)) < 1e-12
    rng = np.random.default_rng(11)
    for _ in range(100):
        k_classes = int(rng.integers(2, 6))
        model = ClassModel(rng.normal(size=(k_classes, 8)))
        H = rng.normal(size=(6, 8))
        y = rng.integers(0, k_classes, size=6)
        k = int(rng.integers(1, k_classes + 1))
        expected = np.mean([int(y[j]) in reference_top_k(model, H[j], k)
                            for j in range(6)])
        assert abs(top_k_accuracy(model, H, y, k) - expected) < 1e-12


ISOLET_DIR = os.environ.get(
    "HDCLASS_ISOLET_DIR", os.path.join(os.path.dirname(__file__), "data", "isolet"))
ISOLET_TRAIN = os.path.join(ISOLET_DIR, "isolet1+2+3+4.data")
ISOLET_TEST = os.path.join(ISOLET_DIR, "isolet5.data")


@pytest.mark.skipif(not (os.path.exists(ISOLET_TRAIN)
                         and os.path.exists(ISOLET_TEST)),
                    reason="ISOLET dataset not present "
                           "(set HDCLASS_ISOLET_DIR to enable)")
def test_conditional_isolet_compression():
    """Dynamic D=500 within 2pp of static D=4000 on ISOLET."""
    train_ds = load_csv(ISOLET_TRAIN, label_column=-1, has_header=False)
    test_ds = load_csv(ISOLET_TEST, label_column=-1, has_header=False)
    train_ds = shuffle_dataset(train_ds, 0)
    tr, va, _ = split(train_ds, (0.85, 0.15, 0.0), stratified=True, seed=0)
    spec = fit_normalizer(tr)
    tr, va, te = (apply_normalizer(spec, d) for d in (tr, va, test_ds))
    dyn_enc, dyn_model, _ = train(
        TrainConfig(dim=500, mode="dynamic", regen_rate=40.0, max_iters=40,
                    patience=40, min_delta=0.0, seed=0), tr, va)
    stat_enc, stat_model, _ = train(
        TrainConfig(dim=4000, mode="static", max_iters=20, patience=20,
                    min_delta=0.0, seed=0), tr, va)
    dyn_acc = eval_accuracy(dyn_enc, dyn_model, te)
    stat_acc = eval_accuracy(stat_enc, stat_model, te)
    assert dyn_acc >= stat_acc - 0.02, (dyn_acc, stat_acc)
