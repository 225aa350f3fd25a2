"""Unit tests for the hypervector primitives."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdclass import core, data, learner, metrics, regen, robustness, serialize
from hdclass.core import (
    ClassModel,
    DimensionError,
    Encoder,
    ranking,
    row_norms,
    similarity_matrix,
    similarity_scores,
)

from conftest import per_row_encoding
from reference_kernels import encode_one, reference_encode_batch


def rowwise_similarity(model, H):
    """Reference oracle: one matrix-vector product per row, zeros masked."""
    out = np.zeros((H.shape[0], model.n_classes))
    norms = row_norms(model.classes)
    nz = norms > 0.0
    for j, h in enumerate(H):
        hn = np.linalg.norm(h)
        if hn == 0.0:
            continue
        out[j, nz] = (model.classes @ h)[nz] / (norms[nz] * hn)
    return out


class TestEncoderCreation:
    def test_shapes(self):
        enc = Encoder.create(7, 40, seed=1)
        assert enc.base.shape == (40, 7)
        assert enc.phase.shape == (40,)
        assert enc.n_features == 7
        assert enc.dim == 40

    def test_base_is_standard_normal(self):
        # n=4, D=1000 gives 4000 draws; loose two-sided moment bounds.
        enc = Encoder.create(4, 1000, seed=3)
        assert -0.05 < enc.base.mean() < 0.05
        assert 0.9 < enc.base.var() < 1.1

    def test_phase_uniform_range(self):
        enc = Encoder.create(4, 1000, seed=3)
        assert enc.phase.min() >= 0.0
        assert enc.phase.max() < 2.0 * np.pi
        assert 2.5 < enc.phase.mean() < 3.8  # ~= pi

    def test_same_seed_same_encoder(self):
        a = Encoder.create(5, 64, seed=9)
        b = Encoder.create(5, 64, seed=9)
        assert np.array_equal(a.base, b.base)
        assert np.array_equal(a.phase, b.phase)

    def test_different_seed_differs(self):
        a = Encoder.create(5, 64, seed=9)
        b = Encoder.create(5, 64, seed=10)
        assert not np.array_equal(a.base, b.base)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            Encoder.create(0, 10, seed=0)
        with pytest.raises(ValueError):
            Encoder.create(10, 0, seed=0)

    def test_invalid_input_scale(self):
        enc = Encoder.create(3, 8, seed=0)
        with pytest.raises(ValueError):
            Encoder(enc.base, enc.phase, np.random.default_rng(), input_scale=0.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf, -1.0])
    def test_input_scale_must_be_finite_and_positive(self, scale):
        # Every encoding of a NaN or infinite scale is NaN.
        enc = Encoder.create(3, 8, seed=0)
        with pytest.raises(ValueError, match="input_scale must be finite and positive"):
            Encoder(enc.base, enc.phase, np.random.default_rng(), input_scale=scale)

    def test_input_scale_is_not_parsed_from_text(self):
        enc = Encoder.create(3, 8, seed=0)
        with pytest.raises(TypeError):
            Encoder(enc.base, enc.phase, np.random.default_rng(), input_scale="0.5")


class TestEncode:
    def test_formula(self):
        enc = Encoder.create(3, 16, seed=2)
        f = np.array([0.3, -1.2, 0.8])
        proj = enc.base @ f
        expected = np.cos(proj + enc.phase) * np.sin(proj)
        assert np.array_equal(encode_one(enc, f), expected)

    def test_range(self):
        enc = Encoder.create(6, 256, seed=5)
        h = enc.encode_batch(np.random.default_rng(0).normal(size=(1, 6)))
        assert np.all(h >= -1.0) and np.all(h <= 1.0)

    def test_input_scale_applied(self):
        enc = Encoder.create(3, 16, seed=2)
        enc.input_scale = 0.5
        f = np.array([1.0, 2.0, 3.0])
        proj = enc.base @ (0.5 * f)
        expected = np.cos(proj + enc.phase) * np.sin(proj)
        assert np.array_equal(encode_one(enc, f), expected)

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(0, 40), n=st.integers(1, 617), dim=st.integers(1, 96),
           input_scale=st.floats(1e-3, 10.0), spread=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2**32 - 1))
    @example(m=256, n=617, dim=500, input_scale=617 ** -0.5, spread=1.0, seed=0)
    def test_batch_rows_within_rounding_of_per_row_oracle(self, m, n, dim, input_scale,
                                                          spread, seed):
        # Both kernels sum the same n products of sX and B, each within the
        # forward error bound gamma_n * (|sX| . |B|^T) of the exact dot
        # product, so the two projections differ by at most twice that.
        # cos(p + phi) * sin(p) has derivative cos(2p + phi), so it is
        # 1-Lipschitz in p; each side then adds the rounding of p + phi
        # (u * |p + phi|, through the 1-Lipschitz cos) and a few ulps of 1
        # for cos, sin and their product.
        rng = np.random.default_rng(seed)
        enc = Encoder.create(n, dim, seed=seed)
        enc.input_scale = input_scale
        X = spread * rng.normal(size=(m, n))
        oracle, proj = per_row_encoding(enc, X)
        u = np.finfo(np.float64).eps / 2
        gamma = n * u / (1 - n * u)
        # |sX| . |B|^T is itself a computed sum; dividing by 1 - gamma
        # bounds the exact one.
        magnitude = np.abs(enc.input_scale * X) @ np.abs(enc.base).T / (1 - gamma)
        dot_error = gamma * magnitude
        evaluation = u * (np.abs(proj) + dot_error + 2.0 * np.pi) + 8 * u
        bound = 2 * dot_error + 2 * evaluation
        batch = enc.encode_batch(X)
        assert batch.shape == (m, dim)
        assert np.all(np.abs(batch - oracle) <= bound)

    def test_same_batch_same_bytes(self):
        enc = Encoder.create(617, 500, seed=8)
        enc.input_scale = 617 ** -0.5
        X = np.random.default_rng(3).normal(size=(300, 617))
        assert enc.encode_batch(X).tobytes() == enc.encode_batch(X).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(0, 40), n=st.integers(1, 617), dim=st.integers(1, 96),
           seed=st.integers(0, 2**32 - 1))
    @example(m=256, n=617, dim=500, seed=0)
    def test_regenerate_keeps_other_columns_bitwise(self, m, n, dim, seed):
        # The cache rule train() relies on: a redraw changes only its own
        # columns of a fresh encode_batch of the same batch.
        rng = np.random.default_rng(seed)
        enc = Encoder.create(n, dim, seed=seed)
        enc.input_scale = 1.0 / np.sqrt(n)
        X = rng.normal(size=(m, n))
        before = enc.encode_batch(X)
        idx = rng.choice(dim, size=int(rng.integers(0, dim + 1)), replace=False)
        enc.regenerate(idx)
        kept = np.setdiff1d(np.arange(dim), idx)
        assert np.array_equal(enc.encode_batch(X)[:, kept], before[:, kept])

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(0, 30), n=st.integers(1, 617), dim=st.integers(1, 96),
           seed=st.integers(0, 2**32 - 1))
    def test_columns_match_batch(self, m, n, dim, seed):
        # Two matrix products of different shapes: the same dot products,
        # possibly summed in another order, so equal within rounding.
        rng = np.random.default_rng(seed)
        enc = Encoder.create(n, dim, seed=seed)
        enc.input_scale = 1.0 / np.sqrt(n)
        X = rng.normal(size=(m, n))
        idx = np.sort(rng.choice(dim, size=int(rng.integers(0, dim + 1)),
                                 replace=False))
        columns = enc.encode_batch(X, idx)
        assert columns.shape == (m, idx.size)
        np.testing.assert_allclose(columns, enc.encode_batch(X)[:, idx],
                                   rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(0, 60), n=st.integers(1, 617), dim=st.integers(1, 96),
           some_dims=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(m=core.ENCODE_CELLS // 617, n=617, dim=500, some_dims=False, seed=0)
    @example(m=2000, n=6, dim=128, some_dims=False, seed=1)  # overlap-dyn128's encodes
    @example(m=1500, n=6, dim=128, some_dims=True, seed=2)
    def test_a_batch_within_one_block_is_bitwise_the_single_product(self, m, n, dim,
                                                                   some_dims, seed):
        assert m * n <= core.ENCODE_CELLS
        rng = np.random.default_rng(seed)
        enc = Encoder.create(n, dim, seed=seed)
        enc.input_scale = 1.0 / np.sqrt(n)
        X = rng.normal(size=(m, n))
        dims = np.sort(rng.choice(dim, size=int(rng.integers(0, dim + 1)),
                                  replace=False)) if some_dims else None
        got = enc.encode_batch(X, dims)
        want = reference_encode_batch(enc, X, dims)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("cells, m, n, dim", [
        (core.ENCODE_CELLS, 3822, 617, 500),  # ISOLET's train part: 424 rows a block
        (12, 7, 5, 4),   # 2 rows a block, and one row left over
        (12, 5, 13, 3),  # a row wider than a block: one row a block
    ])
    def test_blocks_are_within_rounding_of_the_single_product(self, monkeypatch,
                                                              cells, m, n, dim):
        # Each block is the single product of its own rows, bitwise; the
        # whole batch differs from one product of every row only in how
        # BLAS sums each dot product for a product of that shape.
        monkeypatch.setattr(core, "ENCODE_CELLS", cells)
        rng = np.random.default_rng(m)
        enc = Encoder.create(n, dim, seed=m)
        enc.input_scale = 1.0 / np.sqrt(n)
        X = rng.normal(size=(m, n))
        for dims in (None, np.arange(0, dim, 2)):
            got = enc.encode_batch(X, dims)
            np.testing.assert_allclose(got, reference_encode_batch(enc, X, dims),
                                       rtol=0, atol=1e-12)
            rows = max(1, cells // n)
            for lo in range(0, m, rows):
                block = reference_encode_batch(enc, X[lo:lo + rows], dims)
                assert np.array_equal(got[lo:lo + rows].view(np.int64), block.view(np.int64))

    def test_peak_memory_is_the_result_and_one_block(self):
        m, n, dim = 1500, 617, 200
        assert m * n > 3 * core.ENCODE_CELLS
        enc = Encoder.create(n, dim, seed=3)
        enc.input_scale = 1.0 / np.sqrt(n)
        X = np.random.default_rng(4).normal(size=(m, n))
        enc.encode_batch(X[:2])  # warm numpy's caches
        tracemalloc.start()
        try:
            H = enc.encode_batch(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The m x D result, one block's scaled rows and the cos·sin scratch,
        # with 64 KiB for Python objects; a scaled copy of the whole batch
        # alone is 7.4 MB.
        block = (core.ENCODE_CELLS // n) * n * 8
        scratch = (core.COS_SIN_CELLS // dim) * dim * 8
        assert peak <= H.nbytes + block + scratch + (1 << 16)

    @pytest.mark.parametrize("cells, m, dim", [
        (core.COS_SIN_CELLS, 3822, 500),  # the ISOLET shape: 65 rows a block
        (core.COS_SIN_CELLS, 2 * (core.COS_SIN_CELLS // 51) + 1, 51),
        (12, 7, 5),    # 2 rows a block, and one row left over
        (12, 5, 13),   # a row wider than a block: one row a block
        (12, 4, 0), (12, 0, 6),
    ])
    def test_cos_sin_blocks_are_bitwise_the_unblocked_formula(self, monkeypatch,
                                                              cells, m, dim):
        rng = np.random.default_rng(m + dim)
        proj = rng.normal(scale=4.0, size=(m, dim))
        phase = rng.uniform(0.0, 2 * np.pi, size=dim)
        expected = np.cos(proj + phase) * np.sin(proj)
        monkeypatch.setattr(core, "COS_SIN_CELLS", cells)
        got = core._cos_sin(proj.copy(), phase)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    def test_dimension_errors(self):
        enc = Encoder.create(4, 8, seed=0)
        with pytest.raises(DimensionError):
            enc.encode_batch(np.zeros(4))
        with pytest.raises(DimensionError):
            enc.encode_batch(np.zeros((3, 5)))
        with pytest.raises(DimensionError):
            enc.encode_batch(np.zeros((3, 5)), [0, 1])


class TestRegenerate:
    def test_only_selected_rows_change(self):
        enc = Encoder.create(5, 32, seed=7)
        base_before = enc.base.copy()
        phase_before = enc.phase.copy()
        enc.regenerate([3, 10, 20])
        changed = [3, 10, 20]
        kept = [i for i in range(32) if i not in changed]
        assert np.array_equal(enc.base[kept], base_before[kept])
        assert np.array_equal(enc.phase[kept], phase_before[kept])
        assert not np.array_equal(enc.base[changed], base_before[changed])

    def test_empty_is_noop(self):
        enc = Encoder.create(5, 32, seed=7)
        state = enc.rng_state()
        base = enc.base.copy()
        enc.regenerate([])
        assert np.array_equal(enc.base, base)
        assert enc.rng_state() == state

    def test_deterministic_via_rng_state(self):
        a = Encoder.create(5, 32, seed=7)
        b = Encoder.create(5, 32, seed=7)
        a.regenerate([1, 2])
        b.regenerate([1, 2])
        assert np.array_equal(a.base, b.base)
        assert np.array_equal(a.phase, b.phase)

    def test_out_of_range(self):
        enc = Encoder.create(5, 32, seed=7)
        with pytest.raises(ValueError):
            enc.regenerate([32])
        with pytest.raises(ValueError):
            enc.regenerate([-1])


class TestClassModel:
    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            ClassModel(np.zeros((1, 4)))

    def test_distinct_labels(self):
        with pytest.raises(ValueError):
            ClassModel(np.zeros((2, 4)), labels=["a", "a"])

    def test_holds_only_classes_and_labels(self):
        m = ClassModel(np.ones((2, 4)), labels=["a", "b"])
        assert sorted(vars(m)) == ["classes", "labels"]
        assert sorted(vars(m.copy())) == ["classes", "labels"]

    @staticmethod
    def assert_touched_norms_bitwise(rows):
        # The adaptive epoch refreshes the norms of the two prototypes an
        # update touched with math.sqrt(r.dot(r)); scoring divides by
        # row_norms.  The two must agree bitwise, and with np.linalg.norm.
        # The 1e300 rows overflow to inf under every formula.
        m = ClassModel(np.ones_like(rows))
        m.classes[:] = rows
        with np.errstate(over="ignore"):
            expected = row_norms(m.classes)
            for i in (1, 0):
                r = m.classes[i]
                assert np.array_equal(math.sqrt(r.dot(r)), expected[i])
                assert np.array_equal(expected[i], np.linalg.norm(r))

    @pytest.mark.parametrize("rows", [
        np.zeros((2, 16)),
        np.full((2, 7), 5e-324),
        np.array([[5e-324, -1e-310, 0.0], [-5e-324, 0.0, 5e-324]]),
        np.array([[1e300, 1.0], [-1e300, -1e300]]),
        np.random.default_rng(5).normal(scale=[[1e-3], [1e5]], size=(2, 4096)),
        np.array([[-3.0], [2.5e-320]]),
    ], ids=["zero", "subnormal", "subnormal_mixed", "overflow", "mixed_signs", "dim1"])
    def test_indexed_refresh_is_bitwise_linalg_norm(self, rows):
        self.assert_touched_norms_bitwise(rows)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 600), exponent=st.integers(-330, 160),
           seed=st.integers(0, 2**32 - 1))
    def test_indexed_refresh_is_bitwise_row_norms(self, dim, exponent, seed):
        rng = np.random.default_rng(seed)
        self.assert_touched_norms_bitwise(
            rng.normal(size=(2, dim)) * 10.0 ** rng.integers(exponent - 3, exponent + 4,
                                                             size=(2, dim)))

    def test_copy_is_independent(self):
        m = ClassModel(np.ones((2, 4)))
        c = m.copy()
        c.classes[0, 0] = 99.0
        assert m.classes[0, 0] == 1.0


class TestSimilarity:
    @staticmethod
    def cosine(h, c):
        """Reference oracle: ``h . c / (|h| |c|)``, 0 for a zero vector."""
        h, c = np.asarray(h, dtype=float), np.asarray(c, dtype=float)
        nn = np.linalg.norm(h) * np.linalg.norm(c)
        return 0.0 if nn == 0.0 else float(h @ c / nn)

    def test_cosine_basic(self):
        m = ClassModel(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]))
        scores = similarity_scores(m, [1, 0])
        assert scores.tolist() == pytest.approx([1.0, 0.0, -1.0])
        for c in range(3):
            assert scores[c] == pytest.approx(self.cosine([1, 0], m.classes[c]))

    def test_cosine_zero_vector(self):
        m = ClassModel(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert similarity_scores(m, [0, 0]).tolist() == [0.0, 0.0]
        assert similarity_scores(m, [1, 2])[1] == 0.0
        assert self.cosine([0, 0], [1, 2]) == 0.0

    def test_scores_match_pairwise_cosine(self):
        rng = np.random.default_rng(4)
        m = ClassModel(rng.normal(size=(3, 8)))
        h = rng.normal(size=8)
        scores = similarity_scores(m, h)
        for c in range(3):
            assert scores[c] == pytest.approx(self.cosine(h, m.classes[c]), abs=1e-12)

    def test_scores_zero_hypervector(self):
        m = ClassModel(np.ones((3, 8)))
        assert np.array_equal(similarity_scores(m, np.zeros(8)), np.zeros(3))

    def test_scores_zero_class(self):
        classes = np.ones((3, 8))
        classes[1] = 0.0
        m = ClassModel(classes)
        scores = similarity_scores(m, np.ones(8))
        assert scores[1] == 0.0
        assert scores[0] == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 40), k=st.integers(2, 8), dim=st.integers(1, 160),
           zero_rows=st.integers(0, 3), zero_classes=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1))
    def test_matrix_matches_rows(self, m, k, dim, zero_rows, zero_classes, seed):
        # A gemm sums each dot product in its own order, so rows agree with
        # the per-row product up to the reordering bound of a length-D dot
        # product of unit vectors; zero rows and prototypes score exactly 0.
        rng = np.random.default_rng(seed)
        classes = rng.normal(size=(k, dim))
        classes[rng.choice(k, size=min(zero_classes, k - 1), replace=False)] = 0.0
        H = rng.normal(size=(m, dim))
        H[rng.choice(m, size=min(zero_rows, m), replace=False)] = 0.0
        model = ClassModel(classes)
        mat = similarity_matrix(model, H)
        expected = rowwise_similarity(model, H)
        assert mat.shape == (m, k)
        np.testing.assert_allclose(mat, expected, rtol=0,
                                   atol=dim * np.finfo(float).eps)
        assert np.all(mat[np.linalg.norm(H, axis=1) == 0.0] == 0.0)
        assert np.all(mat[:, row_norms(model.classes) == 0.0] == 0.0)

    @pytest.mark.parametrize("k,dim", [(2, 1), (4, 128), (26, 500), (5, 617)])
    def test_scores_bitwise_equal_single_row_formula(self, k, dim):
        # Training scores one sample at a time; its arithmetic must stay
        # exactly ``C @ h / (row_norms(C) * |h|)`` so trained models do not drift.
        rng = np.random.default_rng(dim)
        classes = rng.normal(size=(k, dim))
        classes[-1] = 0.0
        m = ClassModel(classes)
        for h in rng.normal(size=(50, dim)):
            with np.errstate(invalid="ignore"):
                expected = m.classes @ h / (row_norms(m.classes) * np.linalg.norm(h))
            expected[-1] = 0.0
            assert np.array_equal(similarity_scores(m, h), expected)
            assert np.array_equal(similarity_scores(m, h),
                                  rowwise_similarity(m, h[None, :])[0])

    def test_given_row_norms_score_bitwise_as_computed_ones(self):
        rng = np.random.default_rng(6)
        model = ClassModel(rng.normal(size=(26, 500)))
        H = rng.normal(size=(40, 500))
        H[3] = 0.0
        assert np.array_equal(similarity_matrix(model, H, row_norms(H)),
                              similarity_matrix(model, H))
        with pytest.raises(DimensionError):
            similarity_matrix(model, H, row_norms(H[1:]))

    def test_matrix_rejects_wrong_width(self):
        m = ClassModel(np.ones((3, 8)))
        with pytest.raises(DimensionError):
            similarity_matrix(m, np.ones((2, 7)))
        with pytest.raises(DimensionError):
            similarity_scores(m, np.ones(7))


class TestRanking:
    def test_descending_selection(self):
        assert ranking(np.array([1.0, 9.0, 5.0]), 2).tolist() == [1, 2]

    def test_ties_break_low_index(self):
        assert ranking(np.array([2.0, 5.0, 5.0, 1.0]), 2).tolist() == [1, 2]
        assert ranking(np.array([3.0, 3.0, 3.0]), 2).tolist() == [0, 1]



_RNG, _MODEL, _V = np.random.default_rng(0), ClassModel(np.eye(2)), np.zeros(3)
_DS = data.Dataset(np.zeros((2, 2)), [0, 1])
_CONTAINER = serialize.model_to_dict(Encoder.create(2, 4, 0), ClassModel(np.zeros((2, 4))))

# (call, error type, message fragment) for each input check of the package
# that no other test reaches.
INPUT_CHECKS = {
    "encoder_base_1d": (lambda: Encoder(_V, _V, _RNG), DimensionError, "base must be 2-D"),
    "encoder_phase_length": (lambda: Encoder(np.zeros((3, 2)), np.zeros(2), _RNG),
                             DimensionError, "does not match base rows"),
    "encode_batch_1d": (lambda: Encoder.create(2, 4, 0).encode_batch(np.zeros(2)),
                        DimensionError, "batch must be 2-D"),
    "class_model_1d": (lambda: ClassModel(_V), DimensionError, "classes must be 2-D"),
    "class_model_label_count": (lambda: ClassModel(np.eye(2), [0]), ValueError,
                                "label count does not match class count"),
    "dataset_features_1d": (lambda: data.Dataset(_V, [0, 0, 0]), ValueError,
                            "features must be 2-D"),
    "dataset_label_count": (lambda: data.Dataset(np.zeros((3, 2)), [0, 1]), ValueError,
                            "label count does not match sample count"),
    "normalizer_width": (lambda: data.apply_normalizer(
        data.NormalizationSpec("zscore", _V, _V + 1.0), _DS), ValueError,
        "dataset has 2 features, spec expects 3"),
    "epoch_labels_2d": (lambda: learner.adaptive_fit_epoch(
        _MODEL, np.eye(2), [[0, 1]], learner.ETA), ValueError, "labels must be 1-D"),
    "epoch_label_count": (lambda: learner.adaptive_fit_epoch(
        _MODEL, np.eye(2), [0], learner.ETA), ValueError, "2 samples but 1 labels"),
    "sets_feature_count": (lambda: learner.check_training_sets(
        _DS, data.Dataset(np.zeros((2, 3)), [0, 1])), ValueError,
        "disagree on feature count"),
    "valid_label_beyond_train": (lambda: learner.check_training_sets(
        _DS, data.Dataset(np.zeros((1, 2)), [2])), ValueError, "validation labels outside"),
    "top_k_label_count": (lambda: metrics.top_k_accuracy(_MODEL, np.eye(2), [0], 1),
                          ValueError, "2 samples but 1 labels"),
    "top_k_empty": (lambda: metrics.top_k_accuracy(_MODEL, np.zeros((0, 2)), [], 1),
                    ValueError, "empty set"),
    "top_k_k": (lambda: metrics.top_k_accuracy(_MODEL, np.eye(2), [0, 1], 3),
                ValueError, "k must be in [1, 2]"),
    "confusion_shapes": (lambda: metrics.confusion_matrix([0, 1], [0], 2), ValueError,
                         "shape mismatch"),
    "rates_not_square": (lambda: metrics.sensitivity_specificity(np.zeros((2, 3)), 0),
                         ValueError, "must be square"),
    "roc_lengths": (lambda: metrics.roc_curve([0.1, 0.2], [1]), ValueError,
                    "equal-length nonempty"),
    "incorrect_row_theta": (lambda: regen.incorrect_row(_V, _V, _V, _V, 1.0, 1.0, 0.0),
                            ValueError, "alpha, beta and theta must be positive"),
    "sweep_trials": (lambda: robustness.noise_sweep({}, [(2, 1, 0.0)], 0, 0),
                     ValueError, "trial count must be >= 1"),
    "container_input_scale": (lambda: serialize.model_from_dict(
        dict(_CONTAINER, input_scale=math.inf)), ValueError, "input_scale must be finite"),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_check(case):
    call, error, fragment = INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert fragment in str(info.value)
