import numpy as np
import pytest

from dimattn import attention, grad, masked
from dimattn.opcount import counting

# Hand fixture: N=2, d=1, Q=[[2],[3]], K=[[5],[7]], V=[[1],[10]]
Q_FIX = np.array([[2.0], [3.0]])
K_FIX = np.array([[5.0], [7.0]])
V_FIX = np.array([[1.0], [10.0]])


class TestCausalMask:
    def test_inclusive_diagonal(self):
        m = masked.causal_mask(3)
        assert np.array_equal(m, np.array([[1.0, 1, 1], [0, 1, 1], [0, 0, 1]]))
        assert all(m[i, i] == 1.0 for i in range(3))

    def test_rederivation_idempotent(self):
        assert np.array_equal(masked.causal_mask(5), masked.causal_mask(5))


class TestMaskedScores:
    def test_naive_hand_sums(self):
        s3 = masked.masked_score_naive(Q_FIX, K_FIX)
        assert s3[0, 0, 0] == 10.0  # 2*5
        assert s3[0, 0, 1] == 31.0  # 2*5 + 3*7

    def test_naive_single_token(self, rng):
        q = rng.standard_normal((1, 3))
        k = rng.standard_normal((1, 3))
        s3 = masked.masked_score_naive(q, k)
        assert np.allclose(s3[:, :, 0], np.outer(q[0], k[0]), atol=1e-15)

    def test_naive_zero_keys(self, rng):
        q = rng.standard_normal((3, 2))
        assert not masked.masked_score_naive(q, np.zeros((3, 2))).any()

    def test_streaming_matches_fixture(self):
        s3 = masked.masked_score_streaming(Q_FIX, K_FIX)
        assert np.array_equal(s3[0, 0], np.array([10.0, 31.0]))

    def test_streaming_equals_naive(self, rng):
        q = rng.standard_normal((8, 3))
        k = rng.standard_normal((8, 3))
        diff = np.abs(masked.masked_score_naive(q, k)
                      - masked.masked_score_streaming(q, k)).max()
        assert diff <= 1e-10

    def test_single_token_modes_agree_exactly(self, rng):
        q = rng.standard_normal((1, 2))
        k = rng.standard_normal((1, 2))
        assert np.array_equal(masked.masked_score_naive(q, k),
                              masked.masked_score_streaming(q, k))

    def test_last_slice_is_unmasked_matrix(self, rng):
        q = rng.standard_normal((7, 3))
        k = rng.standard_normal((7, 3))
        s3 = masked.masked_score_streaming(q, k)
        assert np.abs(s3[:, :, -1] - attention.dim_score(q, k)).max() <= 1e-10

    def test_prefix_increment_is_one_outer_product(self, rng):
        # exact on integer-valued inputs, where f64 arithmetic is exact
        q = rng.integers(-4, 5, (6, 3)).astype(float)
        k = rng.integers(-4, 5, (6, 3)).astype(float)
        s3 = masked.masked_score_naive(q, k)
        for kk in range(1, 6):
            assert np.array_equal(s3[:, :, kk] - s3[:, :, kk - 1],
                                  np.outer(q[kk], k[kk]))


class TestMaskedKrTensor:
    def test_fixture(self):
        s3 = masked.masked_score_naive(Q_FIX, K_FIX)
        x = masked.masked_kr_tensor(s3, V_FIX)
        assert x[0, 0, 0] == 10.0    # 10 * 1
        assert x[1, 0, 0] == 310.0   # 31 * 10

    def test_unit_values_recover_slices(self, rng):
        q = rng.standard_normal((4, 2))
        k = rng.standard_normal((4, 2))
        s3 = masked.masked_score_streaming(q, k)
        x = masked.masked_kr_tensor(s3, np.ones((4, 2)))
        for i in range(4):
            assert np.array_equal(x[i], s3[:, :, i])

    def test_zero_scores(self):
        x = masked.masked_kr_tensor(np.zeros((2, 2, 3)), np.ones((3, 2)))
        assert not x.any()

    def test_extent_mismatch(self, rng):
        with pytest.raises(ValueError, match="extent"):
            masked.masked_kr_tensor(np.zeros((2, 2, 3)), np.ones((4, 2)))


def masked_attention(q, k, v, w, scale_positions=False):
    """The training kernel with one filter."""
    return grad.masked_attention_multi_fwd(q, k, v, w[None],
                                           scale_positions=scale_positions)[0]


class TestMaskedOutput:
    def test_fixture_unit_filter(self):
        out = masked.masked_output(Q_FIX, K_FIX, V_FIX, np.array([[1.0]]))
        assert np.array_equal(out, np.array([[10.0], [310.0]]))

    def test_zero_filter(self, rng):
        q, k, v = (rng.standard_normal((4, 2)) for _ in range(3))
        out = masked_attention(q, k, v, np.zeros((2, 2)))
        assert not out.any()

    def test_modes_agree(self, rng):
        q, k, v = (rng.standard_normal((6, 4)) for _ in range(3))
        w = rng.standard_normal((4, 4))
        a = masked.masked_output(q, k, v, w)
        b = masked_attention(q, k, v, w)
        assert np.abs(a - b).max() <= 1e-10

    def test_vectorized_naive_matches_loop_oracle(self, rng):
        q, k, v = (rng.standard_normal((5, 3)) for _ in range(3))
        w = rng.standard_normal((3, 3))
        a = masked.masked_output(q, k, v, w)
        b = masked.masked_output_vectorized_naive(q, k, v, w)
        assert np.abs(a - b).max() <= 1e-10

    def test_position_scaling(self, rng):
        q, k, v = (rng.standard_normal((4, 2)) for _ in range(3))
        w = rng.standard_normal((2, 2))
        plain = masked_attention(q, k, v, w)
        scaled = masked_attention(q, k, v, w, scale_positions=True)
        expected = plain * (1.0 / np.sqrt(np.arange(1, 5)))[:, None]
        assert np.abs(scaled - expected).max() <= 1e-12


class TestCausality:
    def test_suffix_perturbation_naive_exact(self, rng):
        for _ in range(10):
            n, d = int(rng.integers(2, 10)), int(rng.integers(1, 5))
            q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
            w = rng.standard_normal((d, d))
            p = int(rng.integers(0, n - 1))
            q2, k2, v2 = q.copy(), k.copy(), v.copy()
            q2[p + 1:] = rng.standard_normal((n - p - 1, d))
            k2[p + 1:] = rng.standard_normal((n - p - 1, d))
            v2[p + 1:] = rng.standard_normal((n - p - 1, d))
            a = masked.masked_output(q, k, v, w)
            b = masked.masked_output(q2, k2, v2, w)
            assert np.array_equal(a[: p + 1], b[: p + 1])

    def test_suffix_perturbation_streaming(self, rng):
        for _ in range(10):
            n, d = int(rng.integers(2, 10)), int(rng.integers(1, 5))
            q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
            w = rng.standard_normal((d, d))
            p = int(rng.integers(0, n - 1))
            q2 = q.copy()
            q2[p + 1:] += 10.0
            a = masked_attention(q, k, v, w)
            b = masked_attention(q2, k, v, w)
            assert np.abs(a[: p + 1] - b[: p + 1]).max() <= 1e-12


class TestCostSeparation:
    def test_multiply_counts(self, rng):
        d = 4
        by_n = {}
        for n in (6, 12):
            q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
            w = rng.standard_normal((d, d))
            with counting() as tally:
                masked.masked_output(q, k, v, w)
            naive_scores = tally.by_component["masked_scores_naive"][0]
            with counting() as tally:
                masked_attention(q, k, v, w)
            by_n[n] = (naive_scores, tally.mults)
        # quadratic score tensor: x4 on doubling; streaming total: x2
        assert by_n[12][0] == 4 * by_n[6][0]
        assert by_n[12][1] == 2 * by_n[6][1]
