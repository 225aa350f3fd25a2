"""Unit tests for the hypervector primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdclass.core import (
    ClassModel,
    DimensionError,
    Encoder,
    bind,
    bundle,
    cosine_similarity,
    ranking,
    similarity_matrix,
    similarity_scores,
)


def rowwise_similarity(model, H):
    """Reference oracle: one matrix-vector product per row, zeros masked."""
    out = np.zeros((H.shape[0], model.n_classes))
    nz = model.norms > 0.0
    for j, h in enumerate(H):
        hn = np.linalg.norm(h)
        if hn == 0.0:
            continue
        out[j, nz] = (model.classes @ h)[nz] / (model.norms[nz] * hn)
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


class TestEncode:
    def test_formula(self):
        enc = Encoder.create(3, 16, seed=2)
        f = np.array([0.3, -1.2, 0.8])
        proj = enc.base @ f
        expected = np.cos(proj + enc.phase) * np.sin(proj)
        assert np.array_equal(enc.encode(f), expected)

    def test_range(self):
        enc = Encoder.create(6, 256, seed=5)
        h = enc.encode(np.random.default_rng(0).normal(size=6))
        assert np.all(h >= -1.0) and np.all(h <= 1.0)

    def test_input_scale_applied(self):
        enc = Encoder.create(3, 16, seed=2)
        enc.input_scale = 0.5
        f = np.array([1.0, 2.0, 3.0])
        proj = enc.base @ (0.5 * f)
        expected = np.cos(proj + enc.phase) * np.sin(proj)
        assert np.array_equal(enc.encode(f), expected)

    def test_batch_bitwise_equals_single(self):
        enc = Encoder.create(8, 128, seed=11)
        X = np.random.default_rng(1).normal(size=(17, 8))
        batch = enc.encode_batch(X)
        for j in range(X.shape[0]):
            assert np.array_equal(batch[j], enc.encode(X[j]))

    def test_batch_matches_per_row_formula(self):
        # The per-row loop the batch kernel replaced, kept as the oracle.
        enc = Encoder.create(9, 64, seed=4)
        enc.input_scale = 1.0 / 3.0
        X = np.random.default_rng(2).normal(size=(23, 9))
        for j, row in enumerate(enc.encode_batch(X)):
            proj = enc.base @ (enc.input_scale * X[j])
            assert np.array_equal(row, np.cos(proj + enc.phase) * np.sin(proj))

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(0, 30), n=st.integers(1, 617), dim=st.integers(1, 96),
           seed=st.integers(0, 2**32 - 1))
    def test_columns_match_batch(self, m, n, dim, seed):
        # One gemm against the per-row gemv: the same dot products summed
        # in another order, so equal within rounding, not bitwise.
        rng = np.random.default_rng(seed)
        enc = Encoder.create(n, dim, seed=seed)
        enc.input_scale = 1.0 / np.sqrt(n)
        X = rng.normal(size=(m, n))
        idx = np.sort(rng.choice(dim, size=int(rng.integers(0, dim + 1)),
                                 replace=False))
        columns = enc.encode_columns(X, idx)
        assert columns.shape == (m, idx.size)
        np.testing.assert_allclose(columns, enc.encode_batch(X)[:, idx],
                                   rtol=0, atol=1e-12)

    def test_dimension_errors(self):
        enc = Encoder.create(4, 8, seed=0)
        with pytest.raises(DimensionError):
            enc.encode(np.zeros(5))
        with pytest.raises(DimensionError):
            enc.encode(np.zeros((2, 4)))
        with pytest.raises(DimensionError):
            enc.encode_batch(np.zeros((3, 5)))
        with pytest.raises(DimensionError):
            enc.encode_columns(np.zeros((3, 5)), [0, 1])


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

    def test_norm_cache_matches_recomputation(self):
        rng = np.random.default_rng(3)
        m = ClassModel(rng.normal(size=(4, 16)))
        assert np.allclose(m.norms, np.linalg.norm(m.classes, axis=1), rtol=1e-9)
        m.classes[2] *= 3.0
        m.refresh_norms((2,))
        assert np.allclose(m.norms, np.linalg.norm(m.classes, axis=1), rtol=1e-9)

    def test_copy_is_independent(self):
        m = ClassModel(np.ones((2, 4)))
        c = m.copy()
        c.classes[0, 0] = 99.0
        assert m.classes[0, 0] == 1.0


class TestSimilarity:
    def test_cosine_basic(self):
        assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
        assert cosine_similarity([1, 0], [-1, 0]) == pytest.approx(-1.0)

    def test_cosine_zero_vector(self):
        assert cosine_similarity([0, 0], [1, 2]) == 0.0

    def test_cosine_length_mismatch(self):
        with pytest.raises(DimensionError):
            cosine_similarity([1, 0], [1, 0, 0])

    def test_scores_match_pairwise_cosine(self):
        rng = np.random.default_rng(4)
        m = ClassModel(rng.normal(size=(3, 8)))
        h = rng.normal(size=8)
        scores = similarity_scores(m, h)
        for c in range(3):
            assert scores[c] == pytest.approx(
                cosine_similarity(h, m.classes[c]), abs=1e-12)

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
        assert np.all(mat[:, model.norms == 0.0] == 0.0)

    @pytest.mark.parametrize("k,dim", [(2, 1), (4, 128), (26, 500), (5, 617)])
    def test_scores_bitwise_equal_single_row_formula(self, k, dim):
        # Training scores one sample at a time; its arithmetic must stay
        # exactly ``C @ h / (norms * |h|)`` so trained models do not drift.
        rng = np.random.default_rng(dim)
        classes = rng.normal(size=(k, dim))
        classes[-1] = 0.0
        m = ClassModel(classes)
        for h in rng.normal(size=(50, dim)):
            with np.errstate(invalid="ignore"):
                expected = m.classes @ h / (m.norms * np.linalg.norm(h))
            expected[-1] = 0.0
            assert np.array_equal(similarity_scores(m, h), expected)
            assert np.array_equal(similarity_scores(m, h),
                                  rowwise_similarity(m, h[None, :])[0])

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


class TestBundleBind:
    def test_bundle_is_sum(self):
        hs = [np.array([1.0, 2.0]), np.array([3.0, -1.0])]
        assert np.array_equal(bundle(hs), np.array([4.0, 1.0]))

    def test_bundle_empty_raises(self):
        with pytest.raises(ValueError):
            bundle([])

    def test_bundle_memory_property(self):
        # Bundled bipolar vectors stay similar to their members and nearly
        # orthogonal to unrelated vectors (D=10000 Monte-Carlo).
        rng = np.random.default_rng(12)
        h1, h2, h3 = (rng.choice([-1.0, 1.0], size=10000) for _ in range(3))
        b = bundle([h1, h2])
        assert cosine_similarity(b, h1) > 0.5
        assert abs(cosine_similarity(b, h3)) < 0.1

    def test_bind_elementwise_product(self):
        assert np.array_equal(bind([1.0, -2.0], [3.0, 4.0]), [3.0, -8.0])

    def test_bind_dissimilar_to_inputs(self):
        rng = np.random.default_rng(13)
        a = rng.choice([-1.0, 1.0], size=10000)
        b = rng.choice([-1.0, 1.0], size=10000)
        assert abs(cosine_similarity(bind(a, b), a)) < 0.1
