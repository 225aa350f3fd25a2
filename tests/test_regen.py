"""Unit tests for undesired-dimension selection."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hdclass.core import DimensionError
from hdclass.learner import effective_dimensionality
from hdclass.regen import (
    UndesiredSet,
    aggregate,
    incorrect_row,
    nominal_count,
    partial_row,
    select_undesired,
)
from reference_kernels import reference_incorrect_row, reference_partial_row


class TestPartialRow:
    def test_hand_oracle(self):
        # D=3, h=(1,0,0), c_true=(0,0,1), c_top1=(1,1,0), alpha=beta=1.
        row = partial_row([1, 0, 0], [0, 0, 1], [1, 1, 0], 1.0, 1.0)
        assert np.allclose(row, [1.0, -1.0, 1.0], atol=1e-12)

    def test_weights_scale_terms(self):
        h = np.array([1.0, 0.0])
        row = partial_row(h, [0.0, 0.0], [1.0, 1.0], 2.0, 0.5)
        assert np.allclose(row, 2.0 * np.abs(h - 0) - 0.5 * np.abs(h - 1))

    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            partial_row([1.0], [0.0], [0.0], 0.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            partial_row([1.0, 0.0], [0.0], [0.0, 0.0], 1.0, 1.0)


class TestIncorrectRow:
    def test_hand_oracle_prose(self):
        # D=2, h=(1,1), c_true=(0,0), c_top1=(1,0), c_top2=(0,1),
        # alpha=2, beta=1, theta=0.5 -> (1.5, 1.0).
        row = incorrect_row([1, 1], [0, 0], [1, 0], [0, 1], 2.0, 1.0, 0.5)
        assert np.allclose(row, [1.5, 1.0], atol=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(1,), (7,), (5, 33)]),
           alpha=st.floats(0.01, 10), beta=st.floats(0.02, 10), frac=st.floats(0.01, 0.99))
    def test_bitwise_the_three_term_formula(self, seed, shape, alpha, beta, frac):
        """Bitwise ``alpha*d_true - beta*d_top1 - theta*d_top2``, evaluated left
        to right, on single rows and on row batches."""
        theta = beta * frac
        h, c_true, c_top1, c_top2 = np.random.default_rng(seed).normal(size=(4, *shape))
        expected = (alpha * np.abs(h - c_true) - beta * np.abs(h - c_top1)
                    - theta * np.abs(h - c_top2))
        row = incorrect_row(h, c_true, c_top1, c_top2, alpha, beta, theta)
        assert np.array_equal(row, expected)

    def test_theta_must_be_below_beta(self):
        with pytest.raises(ValueError):
            incorrect_row([1], [0], [0], [0], 1.0, 1.0, 1.0)


@given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 7, 33]),
       batched=st.lists(st.booleans(), min_size=4, max_size=4),
       alpha=st.floats(0.01, 10), beta=st.floats(0.02, 10), frac=st.floats(0.01, 0.99),
       scale=st.sampled_from([1e-300, 1.0, 1e300]))
def test_row_formulas_are_bitwise_their_oracles_and_keep_their_inputs(
        seed, dim, batched, alpha, beta, frac, scale):
    """Both row formulas equal the one-line expressions they replaced, bit for
    bit, on single rows, row batches and single rows broadcast against
    batches (tiny and huge values included), and neither writes into an
    array it was given."""
    theta = beta * frac
    rng = np.random.default_rng(seed)
    inputs = [rng.normal(size=(5, dim) if b else (dim,)) * scale for b in batched]
    before = [a.copy() for a in inputs]
    h, c_true, c_top1, c_top2 = inputs
    assert np.array_equal(partial_row(h, c_true, c_top1, alpha, beta),
                          reference_partial_row(h, c_true, c_top1, alpha, beta))
    assert np.array_equal(
        incorrect_row(h, c_true, c_top1, c_top2, alpha, beta, theta),
        reference_incorrect_row(h, c_true, c_top1, c_top2, alpha, beta, theta))
    assert all(np.array_equal(a, b) for a, b in zip(inputs, before))


class TestAggregate:
    def test_rows_are_l2_normalized_before_summing(self):
        rows = [np.array([3.0, 4.0]), np.array([0.0, 2.0])]
        agg = aggregate(rows, 2)
        assert np.allclose(agg, [3 / 5, 4 / 5 + 1.0])

    def test_zero_rows_pass_through(self):
        rows = [np.zeros(3), np.array([0.0, 0.0, 5.0])]
        assert np.allclose(aggregate(rows, 3), [0.0, 0.0, 1.0])

    def test_empty_gives_zeros(self):
        assert np.array_equal(aggregate([], 4), np.zeros(4))

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            aggregate([np.zeros(3)], 4)


class TestSelectUndesired:
    def test_intersection_oracle(self):
        # M aggregate (4,3,2,1) -> top-2 {0,1}; N aggregate (1,3,4,2)
        # -> top-2 {2,1}; intersection {1}.
        m_rows = [np.array([4.0, 3.0, 2.0, 1.0])]
        n_rows = [np.array([1.0, 3.0, 4.0, 2.0])]
        sel = select_undesired(m_rows, n_rows, 50.0, 4)
        assert sel.dims == {1}
        assert sel.nominal_count == 2

    def test_empty_side_selects_nothing(self):
        rows = [np.ones(4)]
        assert select_undesired([], rows, 50.0, 4).dims == set()
        assert select_undesired(rows, [], 50.0, 4).dims == set()

    def test_zero_nominal_selects_nothing(self):
        rows = [np.ones(4)]
        sel = select_undesired(rows, rows, 10.0, 4)  # floor(0.4) = 0
        assert sel.dims == set()
        assert sel.nominal_count == 0

    def test_nominal_is_floor_of_rate(self):
        rows = [np.arange(10.0)]
        sel = select_undesired(rows, rows, 25.0, 10)  # floor(2.5) = 2
        assert sel.nominal_count == 2
        assert len(sel.dims) <= 2

    def test_nominal_is_exact_where_rate_over_100_rounds_down(self):
        # 29 / 100 * 100 is 28.999999999999996 in floating point.
        rows = [np.arange(100.0)]
        assert select_undesired(rows, rows, 29, 100).nominal_count == 29

    def test_nominal_is_exact_where_the_float_product_rounds_up(self):
        # 12 * 91.66666666666666 is 1099.9999999999999 exactly, which rounds
        # to the float 1100.0.
        assert nominal_count(12, 91.66666666666666) == 10
        assert nominal_count(28, 28.57142857142857) == 7

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            select_undesired([], [], 0.0, 4)
        with pytest.raises(ValueError):
            select_undesired([], [], 101.0, 4)

    def test_cap_enforced_on_construction(self):
        with pytest.raises(ValueError):
            UndesiredSet({1, 2, 3}, 2)


@given(dim=st.integers(1, 4096), rate=st.integers(1, 100))
def test_one_cap_rule_is_exact_integer_arithmetic(dim, rate):
    assert nominal_count(dim, rate) == dim * rate // 100
    assert effective_dimensionality(dim, rate, 1) - dim == dim * rate // 100
