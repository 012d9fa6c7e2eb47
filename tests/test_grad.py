import numpy as np
import pytest

from dimattn import grad, masked, verify
from dimattn.grad import NORM_MODES
from dimattn.tensor import make_rng


class TestDispatch:
    def test_identity_passthrough(self, rng):
        # relu is the identity on positive inputs, and so is its backward
        x = np.abs(rng.standard_normal((3, 4))) + 0.1
        out, node = grad.relu_fwd(x)
        u = rng.standard_normal((3, 4))
        assert np.array_equal(grad.relu_bwd(node, u)["x"], u)


class TestMatmulRule:
    """linear without a bias is the plain matrix product x @ w."""

    def test_analytic_formula(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        u = rng.standard_normal((3, 2))
        _, node = grad.linear_fwd(a, b)
        gs = grad.linear_bwd(node, u)
        assert np.allclose(gs["x"], u @ b.T, atol=1e-15)
        assert np.allclose(gs["w"], a.T @ u, atol=1e-15)

    def test_fd_2x2(self):
        r = make_rng(0)
        err = verify.fd_check("linear", {"x": r.standard_normal((2, 2)),
                                         "w": r.standard_normal((2, 2))})
        assert err <= 1e-9  # linear map: central differences are exact

    def test_linear_op_fd_near_exact(self):
        r = make_rng(1)
        err = verify.fd_check("linear", {"x": r.standard_normal((3, 4)),
                                         "w": r.standard_normal((4, 2)),
                                         "b": r.standard_normal(2)})
        assert err <= 1e-9


class TestSoftmaxRule:
    def test_uniform_input_uniform_upstream_zero_gradient(self):
        p, node = grad.softmax_fwd(np.zeros((2, 4)))
        g = grad.softmax_bwd(node, np.ones((2, 4)))["x"]
        assert np.abs(g).max() <= 1e-16

    def test_jacobian_against_upstream(self, rng):
        # row softmax Jacobian applied to arbitrary upstream
        x = rng.standard_normal(5)
        p, node = grad.softmax_fwd(x[None])
        u = rng.standard_normal(5)
        g = grad.softmax_bwd(node, u[None])["x"][0]
        p0 = p[0]
        jac = np.diag(p0) - np.outer(p0, p0)
        assert np.allclose(g, jac @ u, atol=1e-12)


class TestAttentionRules:
    @pytest.mark.parametrize("causal", [False, True])
    def test_token_attention_fd(self, causal):
        r = make_rng(5 + causal)
        inputs = {"q": r.standard_normal((1, 5, 3)),
                  "k": r.standard_normal((1, 5, 3)),
                  "v": r.standard_normal((1, 5, 3))}
        assert verify.fd_check("token_attention", inputs,
                               attrs={"causal": causal}) <= 1e-4

    @pytest.mark.parametrize("mode", NORM_MODES)
    def test_dim_attention_fd_all_modes(self, mode):
        r = make_rng(17)
        inputs = {"q": r.standard_normal((1, 5, 3)),
                  "k": r.standard_normal((1, 5, 3)),
                  "v": r.standard_normal((1, 5, 3)),
                  "ws": r.standard_normal((1, 3, 3))}
        assert verify.fd_check("dim_attention_multi", inputs, attrs={"mode": mode}) <= 1e-4

    def test_dim_attention_batched_fd(self):
        r = make_rng(23)
        inputs = {"q": r.standard_normal((2, 4, 3)),
                  "k": r.standard_normal((2, 4, 3)),
                  "v": r.standard_normal((2, 4, 3)),
                  "ws": r.standard_normal((2, 3, 3))}
        assert verify.fd_check("dim_attention_multi", inputs,
                               attrs={"mode": "softmax_cols_over_j"}) <= 1e-4

    def test_masked_attention_fd(self):
        r = make_rng(31)
        inputs = {"q": r.standard_normal((1, 4, 2)),
                  "k": r.standard_normal((1, 4, 2)),
                  "v": r.standard_normal((1, 4, 2)),
                  "ws": r.standard_normal((1, 2, 2))}
        assert verify.fd_check("masked_attention_multi", inputs) <= 1e-4

    def test_shared_query_key_gradient_sums_partials(self):
        r = make_rng(3)
        q = r.standard_normal((1, 4, 3))
        v = r.standard_normal((1, 4, 3))
        ws = r.standard_normal((1, 3, 3))
        out, node = grad.dim_attention_multi_fwd(q, q, v, ws, mode="none")
        gs = grad.dim_attention_multi_bwd(node, np.ones_like(out))
        shared = gs["q"] + gs["k"]
        h = 1e-6
        for idx in [(0, 0, 0), (0, 2, 1), (0, 3, 2)]:
            qp = q.copy(); qp[idx] += h
            qm = q.copy(); qm[idx] -= h
            num = (np.sum(grad.dim_attention_multi_fwd(qp, qp, v, ws, mode="none")[0])
                   - np.sum(grad.dim_attention_multi_fwd(qm, qm, v, ws, mode="none")[0])) / (2 * h)
            assert abs(num - shared[idx]) / max(abs(num), 1e-8) <= 1e-4

    def test_zero_upstream_zero_gradients(self):
        r = make_rng(9)
        q, k, v = (r.standard_normal((1, 4, 2)) for _ in range(3))
        ws = r.standard_normal((1, 2, 2))
        out, node = grad.masked_attention_multi_fwd(q, k, v, ws)
        gs = grad.masked_attention_multi_bwd(node, np.zeros_like(out))
        assert all(not g.any() for g in gs.values())


class TestChunkedScan:
    """The causal kernel scans chunks of grad._CHUNK positions and carries
    the d x d state, and its gradient, from one chunk to the next."""

    C = grad._CHUNK

    def test_fd_across_chunk_boundary(self):
        r = make_rng(37)
        n = self.C + 3
        inputs = {"q": r.standard_normal((2, n, 2)),
                  "k": r.standard_normal((2, n, 2)),
                  "v": r.standard_normal((2, n, 2)),
                  "ws": r.standard_normal((2, 2, 2))}
        assert verify.fd_check("masked_attention_multi", inputs) <= 1e-4

    def test_tape_holds_chunk_start_states(self):
        r = make_rng(41)
        n, d = 2 * self.C + 3, 3
        q, k, v = (r.standard_normal((2, n, d)) for _ in range(3))
        _, node = grad.masked_attention_multi_fwd(q, k, v, r.standard_normal((2, d, d)))
        starts = node.saved["starts"]
        assert starts.shape == (2, 3, d, d)
        assert not any(a.shape == (2, n, d, d) for a in node.saved.values()
                       if isinstance(a, np.ndarray))
        for b in range(2):
            s3 = masked.masked_score_naive(q[b], k[b])
            assert not starts[b, 0].any()
            for t in (1, 2):
                assert np.array_equal(starts[b, t], s3[:, :, t * self.C - 1])

    def test_f32_stays_f32(self):
        r = make_rng(43)
        n, d = self.C + 3, 3
        q, k, v = (r.standard_normal((2, n, d)) for _ in range(3))
        ws = r.standard_normal((2, d, d))
        u = r.standard_normal((2, n, 2 * d))
        out64, node64 = grad.masked_attention_multi_fwd(q, k, v, ws)
        grads64 = grad.masked_attention_multi_bwd(node64, u)
        f32 = [a.astype(np.float32) for a in (q, k, v, ws)]
        out, node = grad.masked_attention_multi_fwd(*f32)
        grads = grad.masked_attention_multi_bwd(node, u.astype(np.float32))
        assert out.dtype == np.float32
        assert node.saved["starts"].dtype == np.float32
        assert np.abs(out - out64).max() <= 1e-4 * np.abs(out64).max()
        for name, g in grads.items():
            assert g.dtype == np.float32, name
            assert np.abs(g - grads64[name]).max() <= 1e-4 * np.abs(grads64[name]).max()


class TestOtherRules:
    def test_layer_norm_fd(self):
        r = make_rng(11)
        inputs = {"x": r.standard_normal((2, 3, 6)),
                  "gamma": 1.0 + 0.1 * r.standard_normal(6),
                  "beta": 0.1 * r.standard_normal(6)}
        assert verify.fd_check("layer_norm", inputs) <= 1e-4

    def test_embed_fd(self):
        r = make_rng(13)
        ids = r.integers(0, 6, (2, 4))
        assert verify.fd_check("embed", {"table": r.standard_normal((6, 3))},
                               attrs={"ids": ids}) <= 1e-9

    def test_relu_fd(self):
        r = make_rng(15)
        # keep coordinates away from the kink, where FD is undefined
        x = r.standard_normal((4, 4))
        x[np.abs(x) < 1e-3] = 0.5
        assert verify.fd_check("relu", {"x": x}) <= 1e-8

    def test_cross_entropy_fd(self):
        r = make_rng(19)
        mask = r.random((2, 4)) < 0.5
        mask[0, 0] = True
        err = verify.fd_check(
              "cross_entropy_masked", {"logits": r.standard_normal((2, 4, 6))},
              attrs={"targets": r.integers(0, 6, (2, 4)), "mask": mask})
        assert err <= 1e-4

    def test_cross_entropy_empty_mask_rejected(self, rng):
        with pytest.raises(ValueError, match="empty mask"):
            grad.cross_entropy_masked_fwd(rng.standard_normal((1, 2, 4)),
                                          np.zeros((1, 2), dtype=int),
                                          np.zeros((1, 2), dtype=bool))

    def test_dropout_backward_reuses_mask(self, rng):
        x = rng.standard_normal((8, 8))
        out, node = grad.dropout_fwd(x, 0.4, make_rng(0))
        u = rng.standard_normal((8, 8))
        g = grad.dropout_bwd(node, u)["x"]
        kept = out != 0.0
        assert np.array_equal(g != 0.0, kept)
        assert np.allclose(g[kept], u[kept] / 0.6, atol=1e-12)


class TestFdCheck:
    def test_rejects_non_f64(self):
        with pytest.raises(ValueError, match="float64"):
            verify.fd_check("relu", {"x": np.ones((2, 2), dtype=np.float32)})

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            verify.fd_check("warp", {"x": np.ones(2)})

    def test_twenty_seeded_instances_per_op(self):
        # the full 20-instance sweep for two representative fused ops
        for i in range(20):
            r = make_rng(100 + i)
            inputs = {"q": r.standard_normal((1, 5, 3)),
                      "k": r.standard_normal((1, 5, 3)),
                      "v": r.standard_normal((1, 5, 3)),
                      "ws": r.standard_normal((1, 3, 3))}
            mode = NORM_MODES[i % 4]
            assert verify.fd_check("dim_attention_multi", inputs,
                                   attrs={"mode": mode}) <= 1e-4
            inputs = {"q": r.standard_normal((1, 4, 2)),
                      "k": r.standard_normal((1, 4, 2)),
                      "v": r.standard_normal((1, 4, 2)),
                      "ws": r.standard_normal((1, 2, 2))}
            assert verify.fd_check("masked_attention_multi", inputs) <= 1e-4


def _dk_flipped(bwd):
    def mutant(node, u):
        gs = bwd(node, u)
        return dict(gs, k=-gs["k"])
    return mutant


def _scan_mutant(kind, prefix):
    """`grad._chunk_prefix` broken one way."""
    def mutant(q, k, start, s0):
        if kind == "carry_dropped":
            return prefix(q, k, np.zeros_like(start), s0)
        if kind == "outer_transposed":
            return prefix(k, q, start, s0)
        # seeded from the previous chunk's second-last state
        if s0:
            start = start - q[:, s0 - 1, :, None] * k[:, s0 - 1, None, :]
        return prefix(q, k, start, s0)
    return mutant


class TestMutantsCaught:
    """A kernel broken one way fails the suite that criterion 2 or 6 calls."""

    @pytest.mark.parametrize("kind", ["carry_dropped", "outer_transposed", "seeded_one_early"])
    def test_scan_mutant_fails_masked_equivalence(self, monkeypatch, kind):
        monkeypatch.setattr(grad, "_chunk_prefix", _scan_mutant(kind, grad._chunk_prefix))
        ok, detail = verify.suite_masked_equivalence(0)
        assert not ok, detail

    @pytest.mark.parametrize("op", ["token_attention", "dim_attention_multi",
                                    "masked_attention_multi"])
    def test_flipped_dk_fails_gradient_ops(self, monkeypatch, op):
        monkeypatch.setattr(grad, op + "_bwd", _dk_flipped(getattr(grad, op + "_bwd")))
        ok, detail = verify.suite_gradient_ops(0)
        assert not ok, detail


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _read_only(*arrays):
    """The arrays, made read-only: an op that writes into one raises."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


class TestInPlaceOps:
    """The elementwise ops build their results in place; each must equal
    the one-line formula it replaced bit for bit, and write into no input
    and no array on its tape."""

    SHAPE = (3, 17, 130)

    @pytest.fixture(params=[np.float64, np.float32], ids=["f64", "f32"])
    def dtype(self, request):
        return request.param

    def _arrays(self, dtype, seed, *shapes):
        r = make_rng(seed)
        return [(1.5 + r.standard_normal(s)).astype(dtype) for s in shapes]

    def test_linear(self, dtype):
        x, w, b = _read_only(*self._arrays(dtype, 51, self.SHAPE, (130, 40), (40,)))
        out, node = grad.linear_fwd(x, w, b)
        assert _same_bits(out, x @ w + b)
        out, node = grad.linear_fwd(x, w)
        assert _same_bits(out, x @ w)

    def test_layer_norm(self, dtype):
        x, gamma, beta, u = _read_only(
            *self._arrays(dtype, 53, self.SHAPE, (130,), (130,), self.SHAPE))
        out, node = grad.layer_norm_fwd(x, gamma, beta)
        # the formulas layer_norm_fwd and layer_norm_bwd replaced
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + 1e-6)
        xhat = (x - mu) * inv_std
        assert _same_bits(out, gamma * xhat + beta)
        assert _same_bits(node.saved["xhat"], xhat)
        assert _same_bits(node.saved["inv_std"], inv_std)

        _read_only(node.saved["xhat"], node.saved["inv_std"])
        grads = grad.layer_norm_bwd(node, u)
        dxhat = u * gamma
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        assert _same_bits(grads["x"], inv_std * (dxhat - m1 - xhat * m2))
        assert _same_bits(grads["gamma"], (u * xhat).sum(axis=(0, 1)))
        assert _same_bits(grads["beta"], u.sum(axis=(0, 1)))

    def test_dropout(self, dtype):
        x, u = _read_only(*self._arrays(dtype, 55, self.SHAPE, self.SHAPE))
        out, node = grad.dropout_fwd(x, 0.3, make_rng(0))
        keep = make_rng(0).random(self.SHAPE) >= 0.3
        scale = 1.0 / (1.0 - 0.3)
        assert np.array_equal(node.saved["keep"], keep)
        assert _same_bits(out, x * keep * scale)
        _read_only(node.saved["keep"])
        assert _same_bits(grad.dropout_bwd(node, u)["x"], u * keep * scale)


class TestGatheredRows:
    """linear_bwd and dropout_fwd on the rows a bool [B, N] marks equal the
    full-batch ops, whose upstream is zero off those rows, bit for bit."""

    def _rows(self, r):
        rows = r.random((4, 100)) < 0.15
        rows[0, :2] = True
        return rows

    def test_linear_bwd(self):
        # at these shapes a dW over the selected rows alone has other bits
        r = make_rng(71)
        x, w, b = (r.standard_normal(s) for s in ((4, 100, 64), (64, 48), (48,)))
        rows = self._rows(r)
        u = np.where(rows[..., None], r.standard_normal((4, 100, 48)), 0.0)
        out, node = grad.linear_fwd(x, w, b)
        want = grad.linear_bwd(node, u)
        got_out, node = grad.linear_fwd(x[rows], w, b)
        got = grad.linear_bwd(node, u[rows], rows)
        assert _same_bits(got_out, out[rows])
        assert _same_bits(got["x"], want["x"][rows])
        assert _same_bits(got["w"], want["w"])
        assert _same_bits(got["b"], want["b"])

    def test_dropout_draws_the_full_shape(self):
        r = make_rng(73)
        x = r.standard_normal((4, 100, 64))
        rows = self._rows(r)
        out, node = grad.dropout_fwd(x, 0.3, make_rng(0))
        got, got_node = grad.dropout_fwd(x[rows], 0.3, make_rng(0), rows)
        assert _same_bits(got, out[rows])
        assert np.array_equal(got_node.saved["keep"], node.saved["keep"][rows])
