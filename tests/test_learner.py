"""Unit tests for adaptive training, triage, and the training loop."""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdclass import learner, regen
from hdclass.core import ClassModel, Encoder, similarity_matrix
from hdclass.data import Dataset
from hdclass.learner import (
    TrainConfig,
    adaptive_fit_epoch,
    effective_dimensionality,
    top_k,
    train,
    _build_distance_rows,
)
from conftest import make_benchmark, eval_accuracy, per_row_encoding
from reference_train import reference_train

# The adaptive epoch's block of rows scored per call, and row counts at and
# around its multiples.
BLOCK = learner._BLOCK
AROUND_BLOCKS = [n * BLOCK + d for n in (1, 2, 3) for d in (-1, 0, 1)]


def sequential_epoch(model, encoded, labels, eta):
    """Reference oracle: the adaptive epoch scoring every sample on its own."""
    for j in range(encoded.shape[0]):
        h = encoded[j]
        scores = similarity_matrix(model, encoded[j:j + 1])[0]
        pred = int(np.argmax(scores))
        true = int(labels[j])
        if pred == true:
            continue
        model.classes[pred] -= eta * (1.0 - scores[pred]) * h
        model.classes[true] += eta * (1.0 - scores[true]) * h
    return model


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.dim == 500
        assert cfg.theta < cfg.beta

    @pytest.mark.parametrize("kwargs", [
        {"dim": 0}, {"min_delta": float("inf")}, {"alpha": -1.0},
        {"theta": 1.0, "beta": 1.0}, {"regen_rate": 0.0}, {"regen_rate": 101.0},
        {"max_iters": 0}, {"patience": 0}, {"min_delta": -0.1}, {"mode": "other"},
        {"beta": float("inf")}, {"seed": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestAdaptiveFit:
    def test_hand_trace_oracle(self):
        # k=2, D=2, C1=(1,0), C2=(0,1), H=(1,0) labeled class 2, eta=1:
        # prediction is class 1, so C1 -= (1-1)H (unchanged) and
        # C2 += (1-0)H = (1,1).
        model = ClassModel(np.array([[1.0, 0.0], [0.0, 1.0]]))
        adaptive_fit_epoch(model, np.array([[1.0, 0.0]]), [1], eta=1.0)
        assert np.allclose(model.classes[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(model.classes[1], [1.0, 1.0], atol=1e-12)

    def test_correct_samples_are_noops(self):
        model = ClassModel(np.array([[1.0, 0.0], [0.0, 1.0]]))
        before = model.classes.copy()
        H = np.array([[0.9, 0.1], [0.2, 0.8], [1.0, 0.0]])
        adaptive_fit_epoch(model, H, [0, 1, 0], eta=0.5)
        assert np.array_equal(model.classes, before)

    def test_order_dependence(self):
        rng = np.random.default_rng(0)
        H = rng.normal(size=(20, 8))
        y = rng.integers(0, 3, size=20)
        a = ClassModel(rng.normal(size=(3, 8)))
        b = a.copy()
        adaptive_fit_epoch(a, H, y, 0.1)
        adaptive_fit_epoch(b, H[::-1], y[::-1], 0.1)
        assert not np.array_equal(a.classes, b.classes)

    def test_norms_stay_fresh(self):
        # The epoch leaves no derived state behind: the model scores bitwise
        # as a new model built from its prototypes.
        rng = np.random.default_rng(1)
        model = ClassModel(rng.normal(size=(3, 8)))
        H = rng.normal(size=(10, 8))
        adaptive_fit_epoch(model, H, rng.integers(0, 3, size=10), 0.2)
        assert np.array_equal(similarity_matrix(model, H),
                              similarity_matrix(ClassModel(model.classes.copy()), H))

    @settings(max_examples=150, deadline=None)
    @given(m=st.one_of(st.integers(0, 80), st.sampled_from(AROUND_BLOCKS)),
           k=st.integers(2, 30), dim=st.integers(1, 128),
           start=st.sampled_from(["zero", "random", "tie", "nonfinite"]),
           spread=st.sampled_from([0.3, 3.0]), eta=st.sampled_from([0.05, 1.0]),
           zero_rows=st.integers(0, 3), dup_rows=st.integers(0, 3),
           layout=st.sampled_from(["C", "reversed", "F", "columns reversed"]),
           prefix=st.sampled_from([0, 6 * BLOCK - 1, 48]), tiny_rows=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    @example(m=40, k=5, dim=32, start="random", spread=3.0, eta=0.05, zero_rows=0,
             dup_rows=0, layout="C", prefix=48, tiny_rows=0, seed=0)
    # Row counts at and around multiples of the block; the zero start
    # predicts class 0 for every row, so rows of other classes miss in runs.
    @example(m=2 * BLOCK - 1, k=3, dim=16, start="zero", spread=0.3, eta=0.05, zero_rows=0,
             dup_rows=0, layout="C", prefix=0, tiny_rows=0, seed=1)
    @example(m=2 * BLOCK, k=3, dim=16, start="zero", spread=0.3, eta=0.05, zero_rows=0,
             dup_rows=0, layout="C", prefix=0, tiny_rows=0, seed=1)
    @example(m=2 * BLOCK + 1, k=3, dim=16, start="random", spread=3.0, eta=1.0, zero_rows=0,
             dup_rows=0, layout="reversed", prefix=0, tiny_rows=0, seed=1)
    # 47 correct rows, then a miss on the last row of the sixth block;
    # later rows miss on consecutive rows.
    @example(m=20, k=4, dim=24, start="random", spread=3.0, eta=0.05, zero_rows=0,
             dup_rows=0, layout="C", prefix=6 * BLOCK - 1, tiny_rows=0, seed=2)
    # Rows whose norm underflows to 0 against nonzero dot products.
    @example(m=30, k=4, dim=24, start="random", spread=3.0, eta=0.05, zero_rows=0,
             dup_rows=0, layout="C", prefix=0, tiny_rows=3, seed=2)
    # ISOLET's shape: k=26, D=500.
    @example(m=300, k=26, dim=500, start="random", spread=3.0, eta=0.05, zero_rows=1,
             dup_rows=1, layout="C", prefix=0, tiny_rows=0, seed=3)
    def test_matches_sequential_loop(self, m, k, dim, start, spread, eta, zero_rows,
                                     dup_rows, layout, prefix, tiny_rows, seed):
        # Samples near their class centre are mostly correct; "tie" makes classes 0 and 1 point the same way
        # (C1 = 3 * C0), so rounding alone decides between them; "nonfinite"
        # puts one NaN or infinite entry into a prototype, so its class
        # scores NaN and wins as in np.argmax.  Zero rows score 0 against
        # every class; duplicated rows revisit a sample after the model
        # moved; the reversed rows and the Fortran copy give the one-row
        # product strided rows, and reversed columns a negative stride.  A
        # prefix of 48 rows labelled as the start model predicts them is
        # correct in the first epoch, a long run of no-ops before the misses,
        # and one of 6 * BLOCK - 1 puts the first drawn row on a block's last
        # row.  Tiny rows (entries near 1e-170 or subnormal 1e-310) have a
        # norm that underflows to 0, so they score 0 although their dot
        # products do not.
        rng = np.random.default_rng(seed)
        centres = rng.normal(size=(k, dim))
        y = rng.integers(0, k, size=m)
        H = centres[y] + spread * rng.normal(size=(m, dim))
        if m:
            H[rng.integers(0, m, size=zero_rows)] = 0.0
            dst, src = rng.integers(0, m, size=(2, dup_rows))
            H[dst], y[dst] = H[src], y[src]
        classes = np.zeros((k, dim)) if start == "zero" else rng.normal(size=(k, dim))
        if start == "tie":
            classes[1] = 3.0 * classes[0]
        elif start == "nonfinite":
            classes[rng.integers(k), rng.integers(dim)] = rng.choice([np.nan, np.inf])
        with np.errstate(invalid="ignore"):
            P = centres[rng.integers(0, k, size=prefix)] + rng.normal(size=(prefix, dim))
            if m and tiny_rows:
                H[rng.integers(0, m, size=tiny_rows)] *= rng.choice(
                    [1e-170, 1e-310], size=(tiny_rows, 1))
            H = np.concatenate([P, H])
            y = np.concatenate([
                similarity_matrix(ClassModel(classes), P).argmax(axis=1), y])
            if layout == "reversed":
                H, y = H[::-1], y[::-1]
            elif layout == "F":
                H = np.asfortranarray(H)
            elif layout == "columns reversed":
                H = np.ascontiguousarray(H[:, ::-1])[:, ::-1]
            fit, loop = ClassModel(classes.copy()), ClassModel(classes.copy())
            for _ in range(3):
                adaptive_fit_epoch(fit, H, y, eta)
                sequential_epoch(loop, H, y, eta)
                assert np.array_equal(fit.classes, loop.classes, equal_nan=True)

    @pytest.mark.parametrize("labels", ["class0", "mixed"])
    def test_exact_tie_model_matches_sequential_loop(self, labels):
        # The exact-tie model of the batch top-1 tie test in test_metrics.
        rng = np.random.default_rng(7)
        c0 = rng.normal(size=64)
        classes = np.stack([c0, 3.0 * c0, rng.normal(size=64)])
        H = rng.normal(size=(2000, 64))
        y = np.zeros(2000, dtype=int) if labels == "class0" else rng.integers(0, 3, 2000)
        fit, loop = ClassModel(classes.copy()), ClassModel(classes.copy())
        adaptive_fit_epoch(fit, H, y, 0.05)
        sequential_epoch(loop, H, y, 0.05)
        assert np.array_equal(fit.classes, loop.classes)

    def test_label_validation(self):
        model = ClassModel(np.eye(2))
        with pytest.raises(ValueError):
            adaptive_fit_epoch(model, np.eye(2), [0, 2], 0.1)

    def test_eta_validation(self):
        model = ClassModel(np.eye(2))
        for eta in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                adaptive_fit_epoch(model, np.eye(2), [0, 1], eta)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_eta_scales_the_prototypes_and_changes_no_decision(self, seed):
        # From zero prototypes every cosine ignores the scale, so epochs at
        # twice the rate give exactly twice the prototypes (a power-of-two
        # factor scales every product, sum and norm exactly) and the same
        # predictions.  That is why train() runs at the fixed learner.ETA.
        tr, _, _ = make_benchmark(seed)
        H = Encoder.create(tr.n_features, 128, seed).encode_batch(tr.features)
        slow, fast = ClassModel(np.zeros((4, 128))), ClassModel(np.zeros((4, 128)))
        for _ in range(3):
            adaptive_fit_epoch(slow, H, tr.labels, learner.ETA)
            adaptive_fit_epoch(fast, H, tr.labels, 2 * learner.ETA)
            assert slow.classes.any()
            assert np.array_equal(fast.classes, 2.0 * slow.classes)
            assert np.array_equal(similarity_matrix(fast, H).argmax(axis=1),
                                  similarity_matrix(slow, H).argmax(axis=1))


class TestPredictTopK:
    def test_predict_argmax(self):
        model = ClassModel(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        assert top_k(model, [0.0, 1.0], 1) == [1]

    def test_tie_breaks_to_lowest_index(self):
        model = ClassModel(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert top_k(model, [1.0, 0.0], 1) == [0]
        assert top_k(model, [1.0, 0.0], 2) == [0, 1]

    def test_top_k_ordering(self):
        model = ClassModel(np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]]))
        assert top_k(model, [1.0, 0.1], 3) == [0, 2, 1]

    def test_top_k_bounds(self):
        model = ClassModel(np.eye(2))
        with pytest.raises(ValueError):
            top_k(model, [1.0, 0.0], 0)
        with pytest.raises(ValueError):
            top_k(model, [1.0, 0.0], 3)


class TestTriage:
    """``_build_distance_rows`` on one sample of a 3-prototype model.  The
    sample [0.6, 0.8] is a unit vector ranking the classes (1, 0, 2)."""

    def setup_method(self):
        self.model = ClassModel(np.array(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        self.cfg = TrainConfig(dim=2)
        self.C = regen.normalize_rows(self.model.classes)

    def rows(self, h, label):
        H = np.array([h])
        return _build_distance_rows(self.model, H, similarity_matrix(self.model, H),
                                    np.array([label]), self.cfg)

    def test_correct(self):
        partial, incorrect = self.rows([1.0, 0.0], 0)
        assert partial.shape == incorrect.shape == (0, 2)

    def test_partially_correct(self):
        partial, incorrect = self.rows([0.6, 0.8], 0)
        assert incorrect.shape == (0, 2)
        # One partial row, with top1 = 1.
        assert np.array_equal(partial, [regen.partial_row(
            [0.6, 0.8], self.C[0], self.C[1], self.cfg.alpha, self.cfg.beta)])

    def test_incorrect(self):
        partial, incorrect = self.rows([0.6, 0.8], 2)
        assert partial.shape == (0, 2)
        # One incorrect row, with (top1, top2) = (1, 0).
        assert np.array_equal(incorrect, [regen.incorrect_row(
            [0.6, 0.8], self.C[2], self.C[1], self.C[0], self.cfg.alpha,
            self.cfg.beta, self.cfg.theta)])


class TestDistanceRows:
    @staticmethod
    def per_sample_rows(model, H, y, cfg):
        """Reference oracle: rank each sample with ``top_k`` and make one
        row-formula call per misclassified sample."""
        def unit(a):
            return np.array([r / (np.linalg.norm(r) or 1.0) for r in a])

        Hn, Cn = unit(H), unit(model.classes)
        partial, incorrect = [], []
        for j in range(H.shape[0]):
            true = int(y[j])
            top1, top2 = top_k(model, H[j], 2)
            if top2 == true:
                partial.append(regen.partial_row(
                    Hn[j], Cn[true], Cn[top1], cfg.alpha, cfg.beta))
            elif top1 != true:
                incorrect.append(regen.incorrect_row(
                    Hn[j], Cn[true], Cn[top1], Cn[top2], cfg.alpha,
                    cfg.beta, cfg.theta))
        dim = H.shape[1]
        return (np.array(partial).reshape(-1, dim),
                np.array(incorrect).reshape(-1, dim))

    @pytest.mark.parametrize("seed", range(5))
    def test_vectorized_rows_equal_per_sample_loop(self, seed):
        rng = np.random.default_rng(seed)
        k, dim, m = 5, 48, 300
        classes = rng.normal(size=(k, dim))
        classes[seed % k] = 0.0
        model = ClassModel(classes)
        H = rng.normal(size=(m, dim))
        H[:3] = 0.0
        y = rng.integers(0, k, size=m)
        cfg = TrainConfig(dim=dim)
        partial, incorrect = _build_distance_rows(
            model, H, similarity_matrix(model, H), y, cfg)
        expected_partial, expected_incorrect = self.per_sample_rows(model, H, y, cfg)
        assert len(partial) and len(incorrect)
        assert np.array_equal(partial, expected_partial)
        assert np.array_equal(incorrect, expected_incorrect)

    def test_no_misclassified_samples_give_empty_sides(self):
        model = ClassModel(np.eye(3))
        partial, incorrect = _build_distance_rows(
            model, np.eye(3), np.eye(3), np.arange(3), TrainConfig(dim=3))
        assert partial.shape == incorrect.shape == (0, 3)
        assert not regen.select_undesired(partial, incorrect, 40.0, 3).dims


class TestEffectiveDimensionality:
    def test_paper_arithmetic(self):
        assert effective_dimensionality(500, 20, 35) == 4000

    def test_floor_semantics(self):
        assert effective_dimensionality(1000, 10, 7) == 1700
        assert effective_dimensionality(128, 40.0, 3) == 128 + 51 * 3

    def test_zero_iterations(self):
        assert effective_dimensionality(500, 20, 0) == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_dimensionality(0, 20, 1)
        with pytest.raises(ValueError):
            effective_dimensionality(10, 0, 1)
        with pytest.raises(ValueError):
            effective_dimensionality(10, 20, -1)


class TestTrainLoop:
    def small_sets(self, seed=0):
        return make_benchmark(seed, n_features=5, k_classes=3, per_class=120,
                              separation=4.0)

    def test_runs_and_reports(self):
        tr, va, _ = self.small_sets()
        cfg = TrainConfig(dim=64, max_iters=5, patience=5, min_delta=0.0)
        encoder, model, report = train(cfg, tr, va)
        assert model.n_classes == 3
        assert encoder.dim == 64
        assert len(report.rows) == report.iterations == 5
        assert report.rows[0].effective_dim == 64

    def test_static_mode_never_regenerates(self):
        tr, va, _ = self.small_sets()
        cfg = TrainConfig(dim=64, mode="static", max_iters=5, patience=5,
                          min_delta=0.0)
        _, _, report = train(cfg, tr, va)
        assert all(r.regenerated == 0 for r in report.rows)

    def test_final_iteration_never_regenerates(self):
        tr, va, _ = make_benchmark(0, n_features=5, k_classes=3, per_class=120,
                                   separation=1.0)
        cfg = TrainConfig(dim=64, mode="dynamic", max_iters=6, patience=6,
                          min_delta=0.0, regen_rate=40.0)
        _, _, report = train(cfg, tr, va)
        assert report.rows[-1].regenerated == 0

    def test_effective_dim_tracks_regeneration(self):
        tr, va, _ = make_benchmark(0, n_features=5, k_classes=3, per_class=120,
                                   separation=1.0)
        cfg = TrainConfig(dim=64, mode="dynamic", max_iters=6, patience=6,
                          min_delta=0.0, regen_rate=40.0)
        _, _, report = train(cfg, tr, va)
        total = 64 + sum(r.regenerated for r in report.rows)
        assert report.rows[-1].effective_dim == total

    def test_returns_best_validation_snapshot(self):
        tr, va, _ = make_benchmark(1, n_features=5, k_classes=3, per_class=120,
                                   separation=1.5)
        cfg = TrainConfig(dim=64, mode="dynamic", max_iters=10, patience=10,
                          min_delta=0.0, regen_rate=40.0)
        encoder, model, report = train(cfg, tr, va)
        returned = eval_accuracy(encoder, model, va)
        best_recorded = max(r.valid_accuracy for r in report.rows)
        assert returned == pytest.approx(best_recorded, abs=1e-12)
        # The earliest iteration that reached the best validation accuracy.
        assert report.snapshot_iteration == next(
            r.iteration for r in report.rows if r.valid_accuracy == best_recorded)
        assert "snapshot" not in report.to_jsonl()

    def test_sets_of_plain_lists_train_as_datasets(self):
        """``train`` reads any sets with ``features`` and ``labels``, here
        Python lists, bitwise as it reads the same data in Datasets."""
        tr, va, _ = make_benchmark(0, n_features=5, k_classes=3, per_class=120,
                                   separation=1.0)
        cfg = TrainConfig(dim=64, mode="dynamic", max_iters=6, patience=6,
                          min_delta=0.0, regen_rate=40.0, shuffle=True)
        lists = [SimpleNamespace(features=d.features.tolist(), labels=d.labels.tolist())
                 for d in (tr, va)]
        datasets = [Dataset(d.features, d.labels) for d in (tr, va)]
        (e1, m1, r1), (e2, m2, r2) = train(cfg, *lists), train(cfg, *datasets)
        assert any(r.regenerated for r in r1.rows)
        assert m1.classes.tobytes() == m2.classes.tobytes() and m1.labels == m2.labels
        assert e1.base.tobytes() == e2.base.tobytes()
        assert e1.phase.tobytes() == e2.phase.tobytes()
        assert r1.to_jsonl() == r2.to_jsonl()
        assert r1.snapshot_iteration == r2.snapshot_iteration

    def test_deterministic(self):
        tr, va, _ = self.small_sets()
        cfg = TrainConfig(dim=64, max_iters=4, patience=4, min_delta=0.0)
        e1, m1, _ = train(cfg, tr, va)
        e2, m2, _ = train(cfg, tr, va)
        assert np.array_equal(e1.base, e2.base)
        assert np.array_equal(m1.classes, m2.classes)

    def test_collect_dumps(self):
        tr, va, _ = make_benchmark(0, n_features=5, k_classes=3, per_class=120,
                                   separation=1.0)
        cfg = TrainConfig(dim=64, mode="dynamic", max_iters=4, patience=4,
                          min_delta=0.0, regen_rate=40.0)
        _, _, report = train(cfg, tr, va)
        dumps = [r.selection for r in report.rows if r.selection is not None]
        assert len(dumps) == len(report.rows) - 1  # final iteration skipped
        assert all(d.m_aggregate.shape == (64,) for d in dumps)

    def test_selection_matches_regenerated(self):
        tr, va, _ = make_benchmark(0, n_features=5, k_classes=3, per_class=120,
                                   separation=1.0)
        cfg = TrainConfig(dim=64, mode="dynamic", max_iters=5, patience=5,
                          min_delta=0.0, regen_rate=40.0)
        _, _, report = train(cfg, tr, va)
        for r in report.rows[:-1]:
            assert len(r.selection.dims) == r.regenerated
            assert r.selection.n_aggregate.shape == (64,)
        assert report.rows[-1].selection is None
        assert "selection" not in report.to_jsonl()

    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_encodes_only_when_the_encoder_changes(self, monkeypatch, mode):
        # Each set is encoded in full once; a regeneration re-encodes only
        # the columns it redrew, in both sets.
        batch_calls, column_calls = [], []
        encode_batch = Encoder.encode_batch

        def counting_batch(self, batch, dims=None):
            if dims is None:
                batch_calls.append(len(batch))
            else:
                column_calls.append((len(batch), len(dims)))
            return encode_batch(self, batch, dims)

        monkeypatch.setattr(Encoder, "encode_batch", counting_batch)
        tr, va, _ = make_benchmark(0, n_features=5, k_classes=3, per_class=120,
                                   separation=1.0)
        cfg = TrainConfig(dim=64, mode=mode, max_iters=6, patience=6,
                          min_delta=0.0, regen_rate=40.0)
        _, _, report = train(cfg, tr, va)
        redrawn = [r.regenerated for r in report.rows if r.regenerated > 0]
        assert bool(redrawn) == (mode == "dynamic")
        assert batch_calls == [tr.n_samples, va.n_samples]
        assert column_calls == [(n, width) for width in redrawn
                                for n in (tr.n_samples, va.n_samples)]

    def test_cached_encodings_match_a_fresh_encode(self, monkeypatch):
        # Columns never redrawn stay bitwise a fresh encode_batch of the
        # live encoder; redrawn ones match it within rounding.
        tr, va, _ = make_benchmark(0, n_features=5, k_classes=3, per_class=120,
                                   separation=1.0)
        encoders, redrawn, checked = [], set(), []
        create, regenerate = Encoder.create.__func__, Encoder.regenerate
        epoch, score = learner.adaptive_fit_epoch, learner._score_matrix

        def recording_create(cls, *args, **kwargs):
            encoders.append(create(cls, *args, **kwargs))
            return encoders[-1]

        def recording_regenerate(self, dims):
            redrawn.update(int(d) for d in dims)
            regenerate(self, dims)

        def check(encoded, features):
            fresh = encoders[0].encode_batch(features)
            kept = [i for i in range(fresh.shape[1]) if i not in redrawn]
            assert np.array_equal(encoded[:, kept], fresh[:, kept])
            np.testing.assert_allclose(encoded, fresh, rtol=0, atol=1e-12)
            checked.append(len(redrawn))

        def checking_epoch(model, encoded, labels, eta):
            check(encoded, tr.features)
            return epoch(model, encoded, labels, eta)

        def checking_score(model, encoded):
            check(encoded, {tr.n_samples: tr.features,
                            va.n_samples: va.features}[encoded.shape[0]])
            return score(model, encoded)

        monkeypatch.setattr(Encoder, "create", classmethod(recording_create))
        monkeypatch.setattr(Encoder, "regenerate", recording_regenerate)
        monkeypatch.setattr(learner, "adaptive_fit_epoch", checking_epoch)
        monkeypatch.setattr(learner, "_score_matrix", checking_score)
        assert tr.n_samples != va.n_samples
        cfg = TrainConfig(dim=64, mode="dynamic", max_iters=6, patience=6,
                          min_delta=0.0, regen_rate=40.0)
        _, _, report = train(cfg, tr, va)
        # Each iteration checks the epoch and the train and validation
        # scoring; the distance rows reuse the train scoring.
        assert len(checked) == 3 * len(report.rows)
        assert 0 < checked[-1] < 64

    @pytest.mark.parametrize("mode, n_features, k_classes, dim, separation, shuffle", [
        ("dynamic", 5, 3, 64, 1.0, False),
        ("dynamic", 40, 4, 48, 0.6, True),
        ("static", 40, 4, 64, 0.6, True),
        ("static", 5, 3, 32, 1.0, False),
    ])
    def test_gemm_encode_keeps_the_per_row_decisions(self, monkeypatch, mode, n_features,
                                                     k_classes, dim, separation, shuffle):
        # The encode contract is decision-level: the one-gemm encode_batch
        # and the per-row oracle give the same report and snapshot, though
        # the prototypes may differ in their last bits.
        tr, va, _ = make_benchmark(1, n_features=n_features, k_classes=k_classes,
                                   per_class=60, separation=separation)
        cfg = TrainConfig(dim=dim, mode=mode, max_iters=8, patience=8, min_delta=0.0,
                          regen_rate=40.0, shuffle=shuffle)
        _, _, gemm = train(cfg, tr, va)
        # Column re-encodes after a regeneration stay with the real kernel.
        encode_batch = Encoder.encode_batch
        monkeypatch.setattr(Encoder, "encode_batch", lambda self, X, dims=None: (
            per_row_encoding(self, X)[0] if dims is None else encode_batch(self, X, dims)))
        _, _, per_row = train(cfg, tr, va)
        assert gemm.to_jsonl() == per_row.to_jsonl()
        assert gemm.snapshot_iteration == per_row.snapshot_iteration
        if mode == "dynamic":
            assert any(r.regenerated for r in gemm.rows)

    def test_convergence_stops_early(self):
        tr, va, _ = self.small_sets()
        cfg = TrainConfig(dim=64, max_iters=30, patience=2, min_delta=0.5)
        _, _, report = train(cfg, tr, va)
        assert report.converged
        assert report.iterations < 30

    def test_report_jsonl(self):
        tr, va, _ = self.small_sets()
        cfg = TrainConfig(dim=32, max_iters=2, patience=2, min_delta=0.0)
        _, _, report = train(cfg, tr, va)
        lines = report.to_jsonl().strip().split("\n")
        assert len(lines) == 2
        assert '"iteration": 1' in lines[0]

    def test_report_jsonl_holds_every_record_field_but_the_selection(self):
        tr, va, _ = self.small_sets()
        cfg = TrainConfig(dim=32, max_iters=3, patience=3, min_delta=0.0)
        _, _, report = train(cfg, tr, va)
        names = {f.name for f in dataclasses.fields(learner.IterationRecord)} - {"selection"}
        lines = report.to_jsonl().splitlines()
        assert len(lines) == report.iterations == len(report.rows) == 3
        for line, row in zip(lines, report.rows):
            assert json.loads(line) == {name: getattr(row, name) for name in names}

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_epochs_take_the_stream_shuffle_order(self, monkeypatch, shuffle):
        """Under ``shuffle`` epoch ``t`` takes the rows in the ``t``-th order
        that ``arange`` plus ``shuffle`` draws from the STREAM_SHUFFLE stream;
        without it every epoch reads the one cached encoding in file order."""
        seen = []
        real_epoch = learner.adaptive_fit_epoch

        def recording_epoch(model, encoded, labels, eta):
            seen.append((encoded, np.array(labels)))
            return real_epoch(model, encoded, labels, eta)

        monkeypatch.setattr(learner, "adaptive_fit_epoch", recording_epoch)
        tr, va, _ = self.small_sets()
        cfg = TrainConfig(dim=16, max_iters=4, patience=4, min_delta=0.0,
                          regen_rate=40.0, seed=7, shuffle=shuffle)
        train(cfg, tr, va)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(7, learner.STREAM_SHUFFLE)))
        assert len(seen) == 4
        for encoded, labels in seen:
            order = np.arange(tr.n_samples)
            if shuffle:
                rng.shuffle(order)
            else:
                assert np.shares_memory(encoded, seen[0][0])
            assert labels.tolist() == tr.labels[order].tolist()

    def test_input_validation(self):
        tr, va, _ = self.small_sets()
        bad = type("DS", (), {"features": np.zeros((0, 5)),
                              "labels": np.zeros(0, dtype=int)})()
        with pytest.raises(ValueError):
            train(TrainConfig(dim=8), bad, va)

    def test_empty_validation_set_is_rejected(self):
        tr, _, _ = self.small_sets()
        empty = type("DS", (), {"features": np.zeros((0, 5)),
                                "labels": np.zeros(0, dtype=int)})()
        with pytest.raises(ValueError, match="validation set is empty"):
            train(TrainConfig(dim=8, max_iters=2), tr, empty)


class TestTrainLoopRules:
    """Direct tests of the loop's rules, with the epoch or the selection
    replaced through the module names ``train()`` calls them by."""

    def small_sets(self):
        return make_benchmark(0, n_features=5, k_classes=3, per_class=40,
                              separation=4.0)

    @staticmethod
    def frozen(monkeypatch):
        """An epoch that changes nothing: the prototypes stay zero, every
        sample scores 0 against every class, and the validation accuracy is
        the same at every iteration."""
        monkeypatch.setattr(learner, "adaptive_fit_epoch", lambda model, *_: model)

    def test_regenerated_columns_start_the_next_epoch_at_zero(self, monkeypatch):
        fixed = [0, 1, 2]
        monkeypatch.setattr(regen, "select_undesired",
                            lambda *_: regen.UndesiredSet(set(fixed), 6))
        seen = []
        real_epoch = learner.adaptive_fit_epoch

        def recording_epoch(model, *args):
            seen.append(model.classes.copy())
            return real_epoch(model, *args)

        monkeypatch.setattr(learner, "adaptive_fit_epoch", recording_epoch)
        tr, va, _ = self.small_sets()
        cfg = TrainConfig(dim=16, mode="dynamic", max_iters=3, patience=3,
                          min_delta=0.0, regen_rate=40.0)
        _, _, report = train(cfg, tr, va)
        assert report.rows[0].regenerated == len(fixed)
        # The first epoch learned those columns; the redraw wiped them.
        assert np.any(seen[1][:, 3:])
        assert not np.any(seen[1][:, fixed])

    def test_stops_after_exactly_patience_stale_iterations(self, monkeypatch):
        self.frozen(monkeypatch)
        tr, va, _ = self.small_sets()
        cfg = TrainConfig(dim=16, mode="static", max_iters=10, patience=3,
                          min_delta=0.001)
        _, _, report = train(cfg, tr, va)
        assert report.iterations == len(report.rows) == 4
        assert report.converged

    def test_a_tie_counts_as_improvement_at_zero_min_delta(self, monkeypatch):
        self.frozen(monkeypatch)
        tr, va, _ = self.small_sets()
        cfg = TrainConfig(dim=16, mode="static", max_iters=6, patience=2,
                          min_delta=0.0)
        _, _, report = train(cfg, tr, va)
        assert report.iterations == 6
        assert not report.converged

    def test_ties_keep_the_earliest_snapshot(self, monkeypatch):
        self.frozen(monkeypatch)
        tr, va, _ = self.small_sets()
        cfg = TrainConfig(dim=16, mode="static", max_iters=6, patience=2,
                          min_delta=0.0)
        _, _, report = train(cfg, tr, va)
        assert len({r.valid_accuracy for r in report.rows}) == 1
        assert report.snapshot_iteration == 1


@st.composite
def tiny_runs(draw):
    """A TrainConfig and seeded (train, valid) sets of a tiny shape: k 2-5,
    n 2-8, D 8-64, at most 12 iterations."""
    k, n = draw(st.integers(2, 5)), draw(st.integers(2, 8))
    cfg = TrainConfig(
        dim=draw(st.integers(8, 64)), mode=draw(st.sampled_from(["dynamic", "static"])),
        shuffle=draw(st.booleans()), max_iters=draw(st.integers(1, 12)),
        patience=draw(st.integers(1, 4)), min_delta=draw(st.sampled_from([0.0, 0.01, 0.1])),
        regen_rate=draw(st.one_of(st.integers(1, 100), st.floats(0.01, 100))),
        seed=draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # Close centres make misses, which regeneration needs on both sides.
    centres = draw(st.sampled_from([0.3, 1.0, 3.0])) * rng.normal(size=(k, n))
    y_train = rng.permutation(np.repeat(np.arange(k), draw(st.integers(1, 10))))
    y_valid = rng.integers(0, k, size=draw(st.integers(1, 10)))
    sets = [SimpleNamespace(features=centres[y] + rng.normal(size=(y.size, n)), labels=y)
            for y in (y_train, y_valid)]
    return cfg, *sets


class TestWholeRunOracle:
    """``train()`` against ``reference_train``, the literal per-sample loop
    of its docstrings, over tiny shapes where exact validation-accuracy ties
    are common."""

    @settings(max_examples=100, deadline=None)
    @given(tiny_runs())
    # Regenerates at 5 of 8 iterations, and its validation accuracy ties
    # from iteration 1 to 5 and from 6 to 8.
    @example((TrainConfig(dim=32, mode="dynamic", max_iters=8, patience=3, min_delta=0.0,
                          regen_rate=40.0, seed=0), *make_benchmark(
                              0, n_features=5, k_classes=3, per_class=15, separation=0.5)[:2]))
    def test_run_matches_the_reference_loop(self, run):
        cfg, train_set, valid_set = run
        encoder, model, report = train(cfg, train_set, valid_set)
        ref = reference_train(cfg, train_set.features, train_set.labels,
                              valid_set.features, valid_set.labels)
        assert report.to_jsonl() == ref.jsonl
        assert report.snapshot_iteration == ref.snapshot_iteration
        assert report.converged == ref.converged
        for row, want in zip(report.rows, ref.selections, strict=True):
            got = row.selection
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.dims, got.nominal_count) == (want.dims, want.nominal_count)
                assert np.array_equal(got.m_aggregate, want.m_aggregate)
                assert np.array_equal(got.n_aggregate, want.n_aggregate)
        assert np.array_equal(model.classes, ref.classes)
        assert np.array_equal(encoder.base, ref.base)
        assert np.array_equal(encoder.phase, ref.phase)
        assert encoder.rng_state() == ref.rng_state
