"""Unit tests for quantization and bit-flip robustness."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdclass import robustness
from hdclass.core import ClassModel
from hdclass.robustness import (
    SUPPORTED_BITS,
    QuantizedModel,
    dequantize,
    flip_bits,
    flip_count,
    noise_sweep,
    quantize,
)

from reference_kernels import hamming_distance, reference_noise_sweep


def random_model(seed=0, k=3, dim=64):
    rng = np.random.default_rng(seed)
    return ClassModel(rng.normal(size=(k, dim)))


class TestQuantize:
    def test_supported_bits_only(self):
        with pytest.raises(ValueError):
            quantize(random_model(), 3)

    def test_total_bits(self):
        qm = quantize(random_model(k=3, dim=64), 8)
        assert qm.total_bits == 3 * 64 * 8
        assert qm.packed.shape == (3, 64)
        assert qm.packed.dtype == np.uint8

    def test_roundtrip_error_bound(self):
        # Mid-rise levels are s*(q+0.5); the clip at +max costs at most one
        # extra half-step, so the element-wise error is within one step.
        model = random_model(seed=4)
        for bits in SUPPORTED_BITS[1:]:
            deq = dequantize(quantize(model, bits))
            for c in range(model.n_classes):
                row = model.classes[c]
                step = np.abs(row).max() / (1 << (bits - 1))
                err = np.abs(deq.classes[c] - row).max()
                assert err <= step + 1e-12

    def test_one_bit_stores_sign(self):
        model = ClassModel(np.array([[0.5, -0.25, 2.0, -2.0],
                                     [1.0, 1.0, -1.0, 0.5]]))
        deq = dequantize(quantize(model, 1))
        assert np.array_equal(np.sign(deq.classes), np.sign(model.classes))
        # Each class is bipolar at half its scale.
        for c in range(2):
            mags = np.unique(np.abs(deq.classes[c]))
            assert mags.size == 1

    def test_zero_class_stays_zero(self):
        model = ClassModel(np.vstack([np.zeros(8), np.ones(8)]))
        deq = dequantize(quantize(model, 8))
        assert np.array_equal(deq.classes[0], np.zeros(8))

    def test_hand_computed_2bit_mapping(self):
        # Row max 2.0 at 2 bits gives scale 1.0; codes are
        # clip(floor(x/s), -2, 1) + 2 and levels are s*(code - 2 + 0.5).
        row = np.array([2.0, -2.0, 0.9, -0.1])
        model = ClassModel(np.vstack([row, np.zeros(4)]))
        deq = dequantize(quantize(model, 2))
        assert np.allclose(deq.classes[0], [1.5, -1.5, 0.5, -0.5], atol=1e-12)


class TestFlipBits:
    def test_flip_count_exact(self):
        qm = quantize(random_model(), 8)
        for rate in (1.0, 10.0, 33.3):
            flipped = flip_bits(qm, rate, seed=5)
            expected = int(round(rate / 100.0 * qm.total_bits))
            assert hamming_distance(qm, flipped) == expected

    def test_rate_zero_identity(self):
        qm = quantize(random_model(), 4)
        assert hamming_distance(qm, flip_bits(qm, 0.0, seed=1)) == 0

    def test_rate_100_inverts_everything(self):
        qm = quantize(random_model(), 2)
        assert hamming_distance(qm, flip_bits(qm, 100.0, seed=1)) == qm.total_bits

    def test_same_seed_same_corruption(self):
        qm = quantize(random_model(), 8)
        a = flip_bits(qm, 20.0, seed=3)
        b = flip_bits(qm, 20.0, seed=3)
        assert hamming_distance(a, b) == 0

    def test_different_seeds_differ(self):
        qm = quantize(random_model(), 8)
        a = flip_bits(qm, 50.0, seed=3)
        b = flip_bits(qm, 50.0, seed=4)
        assert hamming_distance(a, b) > 0
        # Both sit exactly round(total/2) flips from the original.
        half = int(round(qm.total_bits / 2))
        assert hamming_distance(qm, a) == half
        assert hamming_distance(qm, b) == half

    @pytest.mark.parametrize("other", [
        QuantizedModel(1, np.zeros((8, 64), np.uint8), np.ones(8)),
        QuantizedModel(8, np.zeros((64, 1), np.uint8), np.ones(64)),
        QuantizedModel(4, np.zeros((1, 64), np.uint8), np.ones(1)),
    ], ids=["1bit_8x64", "8bit_64x1", "4bit_1x64"])
    def test_hamming_distance_needs_one_layout(self, other):
        # Each memory holds codes of another width or shape than a 1x64 8-bit
        # one, so no code lines up with its counterpart; the first two hold
        # as many bits, and their XOR with it would broadcast.
        qm = QuantizedModel(8, np.zeros((1, 64), np.uint8), np.ones(1))
        with pytest.raises(ValueError, match="layout"):
            hamming_distance(qm, other)
        with pytest.raises(ValueError, match="layout"):
            hamming_distance(other, qm)

    def test_rate_validation(self):
        qm = quantize(random_model(), 8)
        with pytest.raises(ValueError):
            flip_bits(qm, -1.0, seed=0)
        with pytest.raises(ValueError):
            flip_bits(qm, 101.0, seed=0)


class TestNoiseSweep:
    def make_inputs(self, seed=0, dim=64):
        rng = np.random.default_rng(seed)
        model = ClassModel(rng.normal(size=(3, dim)))
        encoded = rng.normal(size=(60, dim))
        labels = rng.integers(0, 3, size=60)
        return {dim: (model, encoded, labels)}

    def test_zero_rate_zero_loss(self):
        models = self.make_inputs()
        cells = noise_sweep(models, [(64, 8, 0.0)], trials=3, seed=0)
        assert cells[0].mean_loss == 0.0
        assert cells[0].std_loss == 0.0

    def test_rate_that_flips_no_bit_runs_no_trial(self, monkeypatch):
        models = self.make_inputs()
        total_bits = 3 * 64 * 1
        rate = 0.2  # 0.384 bits, which rounds to 0
        assert flip_count(rate, total_bits) == 0
        calls = []

        def counting_flip(*args):
            calls.append(args)
            return real_flip(*args)

        real_flip = robustness.flip_bits
        monkeypatch.setattr(robustness, "flip_bits", counting_flip)
        cells = noise_sweep(models, [(64, 1, rate)], trials=4, seed=0)
        assert (cells[0].mean_loss, cells[0].std_loss) == (0.0, 0.0)
        assert calls == []
        noise_sweep(models, [(64, 1, 1.0)], trials=4, seed=0)
        assert len(calls) == 4

    def test_out_of_range_rate_rejected_without_trials(self):
        with pytest.raises(ValueError):
            noise_sweep(self.make_inputs(), [(64, 8, -0.001)], trials=2, seed=0)

    def test_deterministic(self):
        models = self.make_inputs()
        grid = [(64, 8, 10.0), (64, 1, 10.0)]
        a = noise_sweep(models, grid, trials=5, seed=2)
        b = noise_sweep(models, grid, trials=5, seed=2)
        assert [(c.mean_loss, c.std_loss) for c in a] == \
               [(c.mean_loss, c.std_loss) for c in b]

    def test_missing_model_dim(self):
        models = self.make_inputs()
        with pytest.raises(KeyError):
            noise_sweep(models, [(128, 8, 10.0)], trials=1, seed=0)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            noise_sweep(self.make_inputs(), [], trials=1, seed=0)

    def test_monotone_trend_in_rate(self):
        # Spec invariant: mean loss non-decreasing in the error rate within
        # 0.5 percentage points, 30 trials per cell.
        rng = np.random.default_rng(6)
        dim = 128
        # A structured model so corruption actually hurts accuracy.
        model = ClassModel(np.vstack([rng.normal(size=dim) + 0.8,
                                      rng.normal(size=dim) - 0.8,
                                      rng.normal(size=dim)]))
        labels = rng.integers(0, 3, size=90)
        encoded = model.classes[labels] + 0.5 * rng.normal(size=(90, dim))
        models = {dim: (model, encoded, labels)}
        rates = [0.0, 2.0, 10.0, 30.0]
        cells = noise_sweep(models, [(dim, 8, r) for r in rates],
                            trials=30, seed=9)
        losses = [c.mean_loss for c in cells]
        for lo, hi in zip(losses, losses[1:]):
            assert hi >= lo - 0.5


def _bit_stream_oracle(model, bits, error_rate, seed):
    """The packed-stream trial the byte-per-code memory replaced: pack the
    codes MSB-first into one bit stream, flip the seeded positions there,
    then unpack and weigh the bits back into codes and dequantize.  Returns
    the corrupted codes and their values."""
    k, dim = model.classes.shape
    half = 1 << (bits - 1)
    scales = np.max(np.abs(model.classes), axis=1) / half
    codes = np.zeros((k, dim), dtype=np.int64)
    nz = scales > 0
    q = np.floor(model.classes[nz] / scales[nz, None])
    codes[nz] = np.clip(q, -half, half - 1).astype(np.int64) + half
    shifts = np.arange(bits - 1, -1, -1)
    stream = np.packbits(((codes[..., None] >> shifts) & 1).astype(np.uint8).reshape(-1))
    total = k * dim * bits
    flat = np.unpackbits(stream)[:total].copy()
    n_flips = int(round(error_rate / 100.0 * total))
    if n_flips:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        flat[rng.choice(total, size=n_flips, replace=False)] ^= 1
    weights = 1 << np.arange(bits - 1, -1, -1)
    codes = (np.unpackbits(np.packbits(flat))[:total].reshape(k, dim, bits)
             * weights).sum(axis=2)
    values = (codes - half + 0.5) * scales[:, None]
    values[scales == 0.0] = 0.0
    return codes, values


# Odd k and D: for 1, 2 and 4 bits, k*D*bits is then no multiple of 8 and
# the old stream's last byte carried padding bits.
@settings(max_examples=200, deadline=None)
@given(bits=st.sampled_from(SUPPORTED_BITS),
       k=st.integers(1, 4).map(lambda i: 2 * i + 1),
       dim=st.integers(0, 20).map(lambda i: 2 * i + 1),
       rate=st.one_of(st.sampled_from([0.0, 100.0]), st.floats(0.0, 100.0)),
       zero_row=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_flip_and_dequantize_match_bit_stream_oracle(bits, k, dim, rate, zero_row, seed):
    rng = np.random.default_rng(seed)
    classes = rng.normal(size=(k, dim))
    if zero_row:
        classes[0] = 0.0
    model = ClassModel(classes)
    flipped = flip_bits(quantize(model, bits), rate, seed)
    codes, values = _bit_stream_oracle(model, bits, rate, seed)
    assert np.array_equal(flipped.packed, codes)
    got = dequantize(flipped).classes
    assert np.array_equal(got.view(np.int64), values.view(np.int64))


@st.composite
def sweep_inputs(draw):
    """Models of one or two dims over m shared test rows and k classes,
    with the degenerate rows and prototypes the certificate must refuse,
    a grid over every bit width and a chunk size of 1 to 4 trials."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m, k = draw(st.integers(1, 6)), draw(st.integers(2, 4))
    labels = rng.integers(0, k + draw(st.integers(0, 1)), size=m)  # k names no class
    dims = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2, unique=True))
    models = {}
    for dim in dims:
        # Integer data ties often; scaled data leaves the certified range,
        # one class at a time, so that out-of-range and in-range prototypes
        # can share a model.
        if draw(st.booleans()):
            encoded = rng.integers(-1, 2, size=(m, dim)).astype(np.float64)
            classes = rng.integers(-2, 3, size=(k, dim)).astype(np.float64)
        else:
            encoded = rng.normal(size=(m, dim))
            scales = draw(st.lists(st.sampled_from([1.0, 1e-200, 1e150]),
                                   min_size=k, max_size=k))
            classes = rng.normal(size=(k, dim)) * np.array(scales)[:, None]
        if draw(st.booleans()):
            encoded[rng.integers(m)] = 0.0
        if draw(st.booleans()):
            classes[rng.integers(k)] = 0.0
        if draw(st.booleans()):
            classes[1] = classes[0]
        models[dim] = (ClassModel(classes), encoded, labels)
    rates = st.one_of(st.sampled_from([0.0, 100.0]), st.floats(0.0, 100.0))
    grid = [(dim, bits, draw(rates)) for dim in dims
            for bits in draw(st.permutations(SUPPORTED_BITS))[:draw(st.integers(1, 4))]]
    return models, grid, m * k * draw(st.integers(1, 4))


# One prototype of 1e-200 beside three in range: its norm squares to 0, so
# a chunk that certified it would divide by a zero norm.
TINY_PROTOTYPE = ({1: (ClassModel(np.array([[0.5], [0.25], [-0.5], [1e-200]])),
                       np.array([[-0.125]]), np.array([3]))}, [(1, 1, 100.0)], 8)


@settings(max_examples=150, deadline=None)
@given(inputs=sweep_inputs(), trials=st.integers(1, 7), seed=st.integers(0, 2**32 - 1))
@example(inputs=TINY_PROTOTYPE, trials=2, seed=0)
def test_noise_sweep_matches_the_per_trial_oracle(inputs, trials, seed):
    models, grid, cells = inputs
    with mock.patch.object(robustness, "CELLS", cells):
        got = noise_sweep(models, grid, trials, seed)
    want = reference_noise_sweep(models, grid, trials, seed)
    assert [(c.dim, c.bits, c.rate, c.trials) for c in got] == \
           [(c.dim, c.bits, c.rate, c.trials) for c in want]
    assert np.array_equal(np.array([(c.mean_loss, c.std_loss) for c in got]).view(np.int64),
                          np.array([(c.mean_loss, c.std_loss) for c in want]).view(np.int64))


def _tied_inputs(dim=6, k=3, m=40):
    """Bipolar rows against 1-bit prototypes of one scale: every cosine is
    a multiple of 1/(3 * dim), so many rows tie exactly between classes."""
    rng = np.random.default_rng(3)
    classes = rng.choice([-1.0, 1.0], size=(k, dim))
    encoded = rng.choice([-1.0, 1.0], size=(m, dim))
    return {dim: (ClassModel(classes), encoded, rng.integers(0, k, size=m))}


class TestCertificate:
    def test_an_error_within_the_margin_is_rescored(self, monkeypatch):
        # The stacked product gains an error that favours higher classes by
        # less than D * eps in cosine, a quarter of the smallest sound
        # margin.  It breaks every exact tie the wrong way, so a trial
        # that counted such a row would differ from the oracle.
        models = _tied_inputs()
        dim = next(iter(models))
        grid = [(dim, 1, 20.0)]
        real_dots = robustness._stacked_dots
        tilted = []

        def tilted_dots(prototypes, encoded):
            dots = real_dots(prototypes, encoded)
            k = models[dim][0].n_classes
            cls = np.arange(len(prototypes)) // (len(prototypes) // k)
            tilt = (cls / k * dim * np.finfo(np.float64).eps)[:, None]
            tilted.append(1)
            return dots + tilt * robustness.row_norms(prototypes)[:, None] \
                * robustness.row_norms(encoded)

        real_similarity = robustness.similarity_matrix
        alone = []

        def counting_similarity(*args):
            alone.append(1)
            return real_similarity(*args)

        monkeypatch.setattr(robustness, "_stacked_dots", tilted_dots)
        monkeypatch.setattr(robustness, "similarity_matrix", counting_similarity)
        got = noise_sweep(models, grid, trials=12, seed=4)
        assert got == reference_noise_sweep(models, grid, trials=12, seed=4)
        assert tilted and len(alone) > 1  # past the clean baseline, trials fell back

    def test_decided_trials_are_not_rescored(self, monkeypatch):
        # Gaussian rows and prototypes leave no row within the margin, so
        # only the clean baseline of each (dim, bits) is scored alone.
        rng = np.random.default_rng(8)
        dim = 64
        models = {dim: (ClassModel(rng.normal(size=(4, dim))), rng.normal(size=(50, dim)),
                        rng.integers(0, 4, size=50))}
        grid = [(dim, bits, 10.0) for bits in SUPPORTED_BITS]
        real_similarity = robustness.similarity_matrix
        alone = []

        def counting_similarity(*args):
            alone.append(1)
            return real_similarity(*args)

        monkeypatch.setattr(robustness, "similarity_matrix", counting_similarity)
        got = noise_sweep(models, grid, trials=9, seed=1)
        assert len(alone) == len(SUPPORTED_BITS)
        assert got == reference_noise_sweep(models, grid, trials=9, seed=1)

    @pytest.mark.parametrize("scale", [0.0, 1e-170], ids=["zero", "norm-underflows"])
    def test_a_chunk_with_an_out_of_range_prototype_is_scored_alone(self, scale,
                                                                    monkeypatch):
        # Class 1 is all zero, or so small that its squares underflow and
        # its norm reads 0.  A dequantized prototype keeps its class's scale
        # in every trial, so the certificate refuses every chunk, and each
        # trial and each clean baseline is scored alone.
        rng = np.random.default_rng(5)
        m, k, dim, trials = 40, 3, 16, 7
        classes = rng.normal(size=(k, dim))
        classes[1] *= scale
        models = {dim: (ClassModel(classes), rng.normal(size=(m, dim)),
                        rng.integers(0, k, size=m))}
        grid = [(dim, bits, 10.0) for bits in (1, 8)]
        monkeypatch.setattr(robustness, "CELLS", m * k * 3)  # chunks of 3 trials
        real_similarity = robustness.similarity_matrix
        alone = []

        def counting_similarity(*args):
            alone.append(1)
            return real_similarity(*args)

        monkeypatch.setattr(robustness, "similarity_matrix", counting_similarity)
        got = noise_sweep(models, grid, trials, seed=2)
        assert len(alone) == trials * len(grid) + len(grid)
        assert got == reference_noise_sweep(models, grid, trials, seed=2)

    def test_a_cells_memory_does_not_grow_with_its_trials(self, monkeypatch):
        rng = np.random.default_rng(2)
        m, k, dim = 300, 5, 64
        models = {dim: (ClassModel(rng.normal(size=(k, dim))), rng.normal(size=(m, dim)),
                        rng.integers(0, k, size=m))}
        monkeypatch.setattr(robustness, "CELLS", m * k * 4)  # chunks of 4 trials
        noise_sweep(models, [(dim, 8, 10.0)], 5, seed=0)  # warm numpy's caches

        def peak(trials):
            tracemalloc.start()
            try:
                noise_sweep(models, [(dim, 8, 10.0)], trials, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak30, peak300 = peak(30), peak(300)
        # Only the cell's loss vector, whose mean and std numpy takes
        # pairwise, grows: 8 bytes a trial.
        assert peak300 <= peak30 + 8 * (300 - 30)
        # An unchunked 300-trial stack would hold a 300 * k x m score matrix.
        assert peak300 < m * k * 300 * 8 / 10
