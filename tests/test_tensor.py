import math

import numpy as np
import pytest

from dimattn import grad, masked, tensor


def loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for r in range(k):
                acc += a[i, r] * b[r, j]
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(tensor.matmul(np.eye(2), a), a)

    def test_zero(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(tensor.matmul(a, np.zeros((2, 2))), np.zeros((2, 2)))

    def test_small_case_against_loop_oracle(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = loop_matmul(a, b)
        assert np.array_equal(expected, np.array([[19.0, 22.0], [43.0, 50.0]]))
        assert np.allclose(tensor.matmul(a, b), expected, atol=1e-12)

    def test_shape_mismatch_message(self):
        with pytest.raises(ValueError, match="inner extents"):
            tensor.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_precision_mismatch(self):
        with pytest.raises(ValueError, match="precision"):
            tensor.matmul(np.ones((2, 2)), np.ones((2, 2), dtype=np.float32))

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
    return grad.softmax_fwd(m, axis)[0]


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
    """Prefix sums of per-token outer products: slice t of the masked score
    tensor is sum_{n <= t} q_n k_n^T."""

    def test_single_token(self, rng):
        q = rng.standard_normal((1, 3))
        k = rng.standard_normal((1, 3))
        out = masked.masked_score_streaming(q, k)
        assert np.allclose(out[:, :, 0], np.outer(q[0], k[0]))

    def test_hand_fixture(self):
        q = np.array([[2.0], [3.0]])
        k = np.array([[5.0], [7.0]])
        out = masked.masked_score_streaming(q, k)
        assert np.array_equal(out, np.array([[[10.0, 31.0]]]))

    def test_zero_keys(self, rng):
        q = rng.standard_normal((4, 2))
        assert not masked.masked_score_streaming(q, np.zeros((4, 2))).any()

    def test_last_slice_is_full_product(self, rng):
        q = rng.standard_normal((9, 4))
        k = rng.standard_normal((9, 4))
        out = masked.masked_score_streaming(q, k)
        assert np.abs(out[:, :, -1] - q.T @ k).max() <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            masked.masked_score_streaming(np.ones((3, 2)), np.ones((4, 2)))


class TestRandInit:
    def test_seed_determinism(self):
        a = tensor.rand_init((5, 3), "xavier_uniform", tensor.make_rng(42))
        b = tensor.rand_init((5, 3), "xavier_uniform", tensor.make_rng(42))
        assert np.array_equal(a, b)

    def test_xavier_bound(self):
        arr = tensor.rand_init((4, 4), "xavier_uniform", tensor.make_rng(0))
        assert np.abs(arr).max() <= math.sqrt(6.0 / 8.0)

    def test_degenerate_normal(self):
        arr = tensor.rand_init((3, 3), "normal", tensor.make_rng(0), sigma=0.0)
        assert np.array_equal(arr, np.zeros((3, 3)))

    def test_derived_streams_are_independent_of_order(self):
        a1 = tensor.derived_rng(7, 1).standard_normal(4)
        b1 = tensor.derived_rng(7, 2).standard_normal(4)
        b2 = tensor.derived_rng(7, 2).standard_normal(4)
        a2 = tensor.derived_rng(7, 1).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)
        assert not np.array_equal(a1, b1)

