import math

import numpy as np
import pytest

from dimattn import grad, masked, tensor, verify


class TestMatmul:
    def test_associativity(self, rng):
        worst = 0.0
        for _ in range(20):
            m, k, n, p = rng.integers(1, 33, size=4)
            a = rng.uniform(-1, 1, (m, k))
            b = rng.uniform(-1, 1, (k, n))
            c = rng.uniform(-1, 1, (n, p))
            worst = max(worst, np.abs((a @ b) @ c - a @ (b @ c)).max())
        assert worst <= 1e-9


def softmax(m, axis=-1):
    return grad.softmax_fwd(m, axis)


class TestSoftmaxAxis:
    def test_uniform_rows(self):
        out = softmax(np.zeros((2, 2)))
        assert np.array_equal(out, np.full((2, 2), 0.5))

    def test_large_inputs_no_overflow(self):
        out = softmax(np.array([[1000.0, 1000.0]]))
        assert np.isfinite(out).all()
        assert np.allclose(out, [[0.5, 0.5]])

    def test_closed_form(self):
        # e^0 / (e^0 + e^ln3) = 1/4
        out = softmax(np.array([[0.0, math.log(3.0)]]))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_shift_invariance(self, rng):
        m = rng.standard_normal((6, 6))
        for axis in (-1, -2):
            a = softmax(m, axis)
            b = softmax(m + 3.5, axis)
            assert np.abs(a - b).max() <= 1e-12

    def test_slices_sum_to_one(self, rng):
        m = rng.standard_normal((5, 7)) * 4
        assert np.abs(softmax(m, -1).sum(axis=1) - 1).max() <= 1e-12
        assert np.abs(softmax(m, -2).sum(axis=0) - 1).max() <= 1e-12

    def test_bad_axis(self):
        with pytest.raises(ValueError, match="axis"):
            softmax(np.zeros((2, 2)), 2)


class TestCumOuter:
    """Prefix sums of per-token outer products: state t of the causal
    kernel's scan is sum_{n <= t} q_n k_n^T."""

    def test_single_token(self, rng):
        q = rng.standard_normal((1, 3))
        k = rng.standard_normal((1, 3))
        assert np.array_equal(verify.scan_states(q, k)[0], np.outer(q[0], k[0]))

    def test_hand_fixture(self):
        q = np.array([[2.0], [3.0]])
        k = np.array([[5.0], [7.0]])
        assert np.array_equal(verify.scan_states(q, k), np.array([[[10.0]], [[31.0]]]))

    def test_zero_keys(self, rng):
        q = rng.standard_normal((4, 2))
        assert not verify.scan_states(q, np.zeros((4, 2))).any()

    def test_last_slice_is_full_product(self, rng):
        q = rng.standard_normal((9, 4))
        k = rng.standard_normal((9, 4))
        assert np.abs(verify.scan_states(q, k)[-1] - q.T @ k).max() <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            masked.masked_score_naive(np.ones((3, 2)), np.ones((4, 2)))


class TestDerivedRng:
    def test_derived_streams_are_independent_of_order(self):
        a1 = tensor.derived_rng(7, 1).standard_normal(4)
        b1 = tensor.derived_rng(7, 2).standard_normal(4)
        b2 = tensor.derived_rng(7, 2).standard_normal(4)
        a2 = tensor.derived_rng(7, 1).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)
        assert not np.array_equal(a1, b1)

