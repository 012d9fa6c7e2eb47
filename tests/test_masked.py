import numpy as np
import pytest

from dimattn import analysis, attention, grad, masked, verify
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

    # "streaming" is the kernel's scan: its prefix states, chunk by chunk
    def test_streaming_matches_fixture(self):
        states = verify.scan_states(Q_FIX, K_FIX)
        assert np.array_equal(states[:, 0, 0], np.array([10.0, 31.0]))

    def test_streaming_equals_naive(self, rng):
        # both add the outer products in position order: equal bit for bit,
        # also where the scan carries its state across chunks
        for n in (8, grad._CHUNK + 1, 2 * grad._CHUNK + 3):
            q = rng.standard_normal((n, 3))
            k = rng.standard_normal((n, 3))
            assert np.array_equal(verify.scan_states(q, k),
                                  masked.masked_score_naive(q, k).transpose(2, 0, 1))

    def test_single_token_modes_agree_exactly(self, rng):
        q = rng.standard_normal((1, 2))
        k = rng.standard_normal((1, 2))
        assert np.array_equal(verify.scan_states(q, k),
                              masked.masked_score_naive(q, k).transpose(2, 0, 1))

    def test_last_slice_is_unmasked_matrix(self, rng):
        q = rng.standard_normal((7, 3))
        k = rng.standard_normal((7, 3))
        states = verify.scan_states(q, k)
        assert np.abs(states[-1] - attention.dim_score(q, k)).max() <= 1e-10

    def test_prefix_increment_is_one_outer_product(self, rng):
        # exact on integer-valued inputs, where f64 arithmetic is exact:
        # the oracle's slices and the kernel's states across chunks
        n = 2 * grad._CHUNK + 1
        q = rng.integers(-4, 5, (n, 3)).astype(float)
        k = rng.integers(-4, 5, (n, 3)).astype(float)
        for states in (masked.masked_score_naive(q, k).transpose(2, 0, 1),
                       verify.scan_states(q, k)):
            assert np.array_equal(states[1:] - states[:-1], q[1:, :, None] * k[1:, None, :])
            assert np.array_equal(states[-1], attention.dim_score(q, k))


class TestMaskedKrTensor:
    def test_fixture(self):
        s3 = masked.masked_score_naive(Q_FIX, K_FIX)
        x = masked.masked_kr_tensor(s3, V_FIX)
        assert x[0, 0, 0] == 10.0    # 10 * 1
        assert x[1, 0, 0] == 310.0   # 31 * 10

    def test_unit_values_recover_slices(self, rng):
        q = rng.standard_normal((4, 2))
        k = rng.standard_normal((4, 2))
        s3 = masked.masked_score_naive(q, k)
        x = masked.masked_kr_tensor(s3, np.ones((4, 2)))
        for i in range(4):
            assert np.array_equal(x[i], s3[:, :, i])

    def test_zero_scores(self):
        x = masked.masked_kr_tensor(np.zeros((2, 2, 3)), np.ones((3, 2)))
        assert not x.any()

    def test_extent_mismatch(self, rng):
        with pytest.raises(ValueError, match="extent"):
            masked.masked_kr_tensor(np.zeros((2, 2, 3)), np.ones((4, 2)))


def masked_attention(q, k, v, w):
    """The training kernel on one sequence [N, d] with one filter."""
    return grad.masked_attention_multi_fwd(q[None], k[None], v[None], w[None])[0][0]


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


def _dense_backward(q, k, v, ws, u):
    """Gradients of sum(u * out) for one sequence, built from every state
    G_i of the literal prefix sum rather than from the kernel's scan."""
    n, d = q.shape
    g = np.cumsum(q[:, :, None] * k[:, None, :], axis=0)         # G_i[j, m]
    uf = u.reshape(n, -1, d)                                     # u_if[j]
    dv = np.einsum("fjm,ijm,ifj->im", ws, g, uf)
    dws = np.einsum("ifj,im,ijm->fjm", uf, v, g)
    dg = np.einsum("ifj,im,fjm->ijm", uf, v, ws)
    tail = np.cumsum(dg[::-1], axis=0)[::-1]                     # sum over i >= n
    dq = np.einsum("njm,nm->nj", tail, k)
    dk = np.einsum("njm,nj->nm", tail, q)
    return dq, dk, dv, dws


class TestAcrossChunks:
    """The kernel's scan carries its state across chunks of grad._CHUNK."""

    LENGTHS = [1, grad._CHUNK - 1, grad._CHUNK, grad._CHUNK + 1, 2 * grad._CHUNK + 3]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_matches_literal_sum(self, rng, n):
        b, d, c = 2, 3, 2
        q, k, v = (rng.standard_normal((b, n, d)) for _ in range(3))
        ws = rng.standard_normal((c, d, d))
        out = grad.masked_attention_multi_fwd(q, k, v, ws)[0]
        for i in range(b):
            for f in range(c):
                ref = masked.masked_output_vectorized_naive(q[i], k[i], v[i], ws[f])
                assert np.abs(out[i, :, f * d:(f + 1) * d] - ref).max() <= 1e-10

    @pytest.mark.parametrize("n", LENGTHS)
    def test_backward_matches_dense_reference(self, rng, n):
        b, d, c = 2, 5, 2
        q, k, v = (rng.standard_normal((b, n, d)) for _ in range(3))
        ws = rng.standard_normal((c, d, d))
        u = rng.standard_normal((b, n, c * d))
        grads = grad.masked_attention_multi_bwd(
            grad.masked_attention_multi_fwd(q, k, v, ws)[1], u)
        refs = [_dense_backward(q[i], k[i], v[i], ws, u[i]) for i in range(b)]
        want = {name: np.stack([r[j] for r in refs])
                for j, name in enumerate(("q", "k", "v"))}
        want["ws"] = sum(r[3] for r in refs)
        for name, ref in want.items():
            assert np.abs(grads[name] - ref).max() <= 1e-10 * np.abs(ref).max(), name


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

    def test_perturbation_one_before_chunk_boundary(self, rng):
        n, d, p = 2 * grad._CHUNK, 3, grad._CHUNK - 1
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        w = rng.standard_normal((d, d))
        a = masked_attention(q, k, v, w)
        q2, k2 = q.copy(), k.copy()
        q2[p:] += 10.0
        assert np.abs(a[:p] - masked_attention(q2, k, v, w)[:p]).max() <= 1e-12
        # a key at the chunk's last position reaches every later row, in
        # this chunk and through the carried state in the next
        k2[p] += 10.0
        changed = np.abs(masked_attention(q, k2, v, w) - a).max(axis=1)
        assert changed[:p].max() <= 1e-12 and (changed[p:] > 1e-6).all()


class TestCostSeparation:
    def test_multiply_counts(self, rng):
        # the oracles carry no counter; the naive cost is the analytic one
        d = 4
        by_n = {}
        for n in (6, 12):
            q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
            w = rng.standard_normal((d, d))
            naive = analysis.flops_masked(n, d, streaming=False)
            with counting() as tally:
                masked_attention(q, k, v, w)
            by_n[n] = (naive.by_component["masked_scores_naive"][0], tally.mults)
        # quadratic score tensor: x4 on doubling; streaming total: x2
        assert by_n[12][0] == 4 * by_n[6][0]
        assert by_n[12][1] == 2 * by_n[6][1]
