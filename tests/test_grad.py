import math

import numpy as np
import pytest

from dimattn import grad, masked, model, verify
from dimattn.grad import NORM_MODES
from dimattn.tensor import make_rng


class TestDispatch:
    def test_identity_passthrough(self, rng):
        # relu is the identity on positive inputs, and so is its backward
        x = np.abs(rng.standard_normal((3, 4))) + 0.1
        out, node = grad.relu_fwd(x)
        u = rng.standard_normal((3, 4))
        assert np.array_equal(grad.relu_bwd(node, u)["x"], u)


class TestRelu:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_backward_from_the_output_is_the_mask_rule(self, rng, dtype):
        # the node keeps relu's output, which the next product keeps anyway;
        # out > 0 exactly where x > 0, zeros of either sign and NaN included
        x = rng.standard_normal(40).astype(dtype)
        x[:6] = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]
        u = rng.standard_normal(40).astype(dtype)
        out, node = grad.relu_fwd(x)
        assert node.saved["out"] is out
        want = u * (x > 0)
        assert _same_bits(grad.relu_bwd(node, u)["x"], want)
        dx = u.copy()
        assert grad.relu_bwd(node, dx, out=dx)["x"] is dx
        assert _same_bits(dx, want)


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
        p = grad.softmax_fwd(np.zeros((2, 4)))
        g = grad.softmax_vjp(p, np.ones((2, 4)))
        assert np.abs(g).max() <= 1e-16

    def test_jacobian_against_upstream(self, rng):
        # row softmax Jacobian applied to arbitrary upstream
        x = rng.standard_normal(5)
        p = grad.softmax_fwd(x[None])
        u = rng.standard_normal(5)
        g = grad.softmax_vjp(p, u[None])[0]
        p0 = p[0]
        jac = np.diag(p0) - np.outer(p0, p0)
        assert np.allclose(g, jac @ u, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    def test_backward_flushes_subnormals(self, dtype):
        # p[1] sits just above the smallest normal, so p[1] * u[1] and the
        # dot product fall below it
        tiny = np.finfo(dtype).tiny
        x = np.array([[0.0, 0.98 * np.log(tiny)]], dtype)
        u = np.array([[0.0, tiny ** 0.05]], dtype)
        p = grad.softmax_fwd(x)
        formula = p * (u - (u * p).sum(axis=-1, keepdims=True))
        subnormal = (formula != 0.0) & (np.abs(formula) < tiny)
        assert subnormal.all()
        g = grad.softmax_vjp(p, u)
        assert g.dtype == dtype
        assert not g.any()


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
        wo = r.standard_normal((3, 5))
        out, node = grad.dim_attention_multi_fwd(q, q, v, ws, mode="none")
        gs = grad.dim_attention_multi_bwd(node, np.ones((1, 4, 5)), wo)
        shared = gs["q"] + gs["k"]
        h = 1e-6

        def loss(x):
            return np.sum(grad.dim_attention_multi_fwd(x, x, v, ws, mode="none")[0] @ wo)

        for idx in [(0, 0, 0), (0, 2, 1), (0, 3, 2)]:
            qp = q.copy(); qp[idx] += h
            qm = q.copy(); qm[idx] -= h
            num = (loss(qp) - loss(qm)) / (2 * h)
            assert abs(num - shared[idx]) / max(abs(num), 1e-8) <= 1e-4

    def test_zero_upstream_zero_gradients(self):
        r = make_rng(9)
        q, k, v = (r.standard_normal((1, 4, 2)) for _ in range(3))
        ws = r.standard_normal((1, 2, 2))
        out, node = grad.masked_attention_multi_fwd(q, k, v, ws)
        gs = grad.masked_attention_multi_bwd(node, np.zeros_like(out))
        assert all(not g.any() for g in gs.values())
        out, node = grad.dim_attention_multi_fwd(q, k, v, ws, mode="softmax_rows_over_k")
        gs = grad.dim_attention_multi_bwd(node, np.zeros((1, 4, 5)),
                                          r.standard_normal((2, 5)))
        assert sorted(gs) == ["k", "q", "v", "wo", "ws"]
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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_embed_bwd_sums_rows_in_order(self, dtype):
        # the row-by-row scatter-add: every bucket summed in row order
        r = make_rng(14)
        ids = r.integers(0, 30, (8, 100))
        u = r.standard_normal((8, 100, 128)).astype(dtype)
        want = np.zeros((30, 128), dtype=np.float64)
        np.add.at(want, ids.reshape(-1), u.reshape(-1, 128).astype(np.float64))
        _, node = grad.embed_fwd(np.zeros((30, 128), dtype), ids)
        got = grad.embed_bwd(node, u)["table"]
        # f64 sums round once, into f32 for an f32 upstream
        assert _same_bits(got, want.astype(dtype))

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
    def mutant(node, u, *proj, **rows):
        gs = bwd(node, u, *proj, **rows)
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
        assert _same_bits(grad.layer_norm_out(node), out)
        grads = grad.layer_norm_bwd(node, u)
        dxhat = u * gamma
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        assert _same_bits(grads["x"], inv_std * (dxhat - m1 - xhat * m2))
        assert _same_bits(grads["gamma"], (u * xhat).sum(axis=(0, 1)))
        assert _same_bits(grads["beta"], u.sum(axis=(0, 1)))

    @pytest.mark.parametrize("rate", [0.0, 1e-9, 0.1, 0.3, 0.5, 0.7, 0.9])
    def test_dropout_mask_from_raw_words(self, rate):
        # an odd count of elements: the last word's high lane goes unused
        shape = (5, 21, 127)
        got_rng, want_rng = make_rng(3), make_rng(3)
        _, node = grad.dropout_fwd(np.ones(shape), rate, got_rng)
        assert np.array_equal(node.saved["keep"], _lane_mask(want_rng, shape, rate))
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)

    def test_dropout(self, dtype):
        x, u = _read_only(*self._arrays(dtype, 55, self.SHAPE, self.SHAPE))
        out, node = grad.dropout_fwd(x, 0.3, make_rng(0))
        keep = _lane_mask(make_rng(0), self.SHAPE, 0.3)
        scale = 1.0 / (1.0 - 0.3)
        assert np.array_equal(node.saved["keep"], keep)
        assert _same_bits(out, x * keep * scale)
        _read_only(node.saved["keep"])
        assert _same_bits(grad.dropout_bwd(node, u)["x"], u * keep * scale)


def _lane_mask(rng, shape, rate):
    """The dropout rule, by shifts and masks: element i reads 32-bit lane
    i of ceil(n / 2) raw words, low half first, and is kept where that lane
    is >= ceil(rate * 2**32)."""
    n = math.prod(shape)
    words = rng.bit_generator.random_raw((n + 1) // 2)
    lanes = np.empty(2 * words.size, np.uint64)
    lanes[0::2] = words & np.uint64(0xFFFFFFFF)
    lanes[1::2] = words >> np.uint64(32)
    return (lanes[:n] >= math.ceil(rate * 2 ** 32)).reshape(shape)


def _close(a, b, tol=1e-12):
    """a within tol of b, relative to b's largest entry."""
    return a.shape == b.shape and np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


class TestBlockedTokenCore:
    """The token core walks tiles of up to grad._TOKEN_BLOCK heads by query
    rows in place, and divides each row's output, not its probabilities, by
    the row's sum.  Its output, the probabilities that a tile's rebuilt e and
    the tape's row sums give, `dq`, `dk` and `dv` must agree with the
    whole-batch formulas within 1e-12 relative in f64, with each block one
    tile or split into row tiles, and within 1e-5 in f32.  It must write
    into no input and not into its tape, and its tape must grow linearly in
    N and keep no copy of the output."""

    @staticmethod
    def _reference(q, k, v, u, causal, key_pad):
        scale = 1.0 / math.sqrt(q.shape[-1])
        s = (q @ k.transpose(0, 2, 1)) * scale
        if causal:
            s = np.where(np.tril(np.ones(s.shape[1:], dtype=bool)), s, -np.inf)
        if key_pad is not None:
            s = np.where(key_pad[:, None, :], -np.inf, s)
        p = grad.softmax_fwd(s)
        dp = u @ v.transpose(0, 2, 1)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
        return p @ v, p, {"q": (ds @ k) * scale,
                          "k": (ds.transpose(0, 2, 1) @ q) * scale,
                          "v": p.transpose(0, 2, 1) @ u}

    @classmethod
    def _run(cls, bh, d, queries, causal, padded, dtype=np.float64):
        """The whole-batch formulas' output, probabilities and gradients, in
        f64; the kernel's, with the probabilities e / sum of its tiles; and
        its count of row tiles per block."""
        n = 100
        r = make_rng(bh + d)
        nq = 25 if queries == "gathered" else n
        q, u = (r.standard_normal((bh, nq, d)).astype(dtype) for _ in range(2))
        k, v = (r.standard_normal((bh, n, d)).astype(dtype) for _ in range(2))
        key_pad = None
        if padded:
            key_pad = np.zeros((bh, n), dtype=bool)
            key_pad[-3:, 70:] = True
        _read_only(q, k, v, u)
        want = cls._reference(*(a.astype(np.float64) for a in (q, k, v, u)), causal, key_pad)
        out, node = grad.token_attention_fwd(q, k, v, causal=causal, key_pad=key_pad)
        s = node.saved
        _read_only(*(a for a in s.values() if isinstance(a, np.ndarray)), out)
        p, tiles = np.zeros((bh, nq, n), dtype), 0
        for blk, rows, keys, et in grad._token_tiles(s, 1):
            grad._token_exp(s, blk, rows, keys, et)
            p[blk, rows, :keys] = et / s["total"][blk, rows]
            tiles += blk.start == 0
        got = grad.token_attention_bwd(node, u, out)
        assert all(a.dtype == dtype for a in (out, *got.values()))
        return want, (out, p, got), tiles

    @staticmethod
    def _agree(want, got, tol=1e-12):
        (want_out, want_p, want_g), (out, p, got_g) = want, got
        assert _close(out, want_out, tol)
        assert _close(p, want_p, tol)
        for name in "qkv":
            assert _close(got_g[name], want_g[name], tol), name

    # 13 heads end in a part block; 64 are the mlm-token core's 8 x 8
    @pytest.mark.parametrize("bh, d", [(13, 16), (13, 32), (64, 16)])
    @pytest.mark.parametrize("queries, causal, padded", [
        ("all", False, False), ("all", False, True), ("all", True, False),
        ("all", True, True), ("gathered", False, True)])
    def test_equals_whole_batch_formulas(self, bh, d, queries, causal, padded):
        want, got, tiles = self._run(bh, d, queries, causal, padded)
        assert tiles == 1
        self._agree(want, got)

    @pytest.mark.parametrize("bh, d", [(13, 16), (64, 16)])
    @pytest.mark.parametrize("queries, causal, padded", [
        ("all", False, False), ("all", False, True), ("all", True, False),
        ("all", True, True), ("gathered", False, True)])
    def test_row_tiles_equal_whole_batch_formulas(self, bh, d, queries, causal, padded,
                                                  monkeypatch):
        # scores of 8 heads x 10 rows x 100 keys: ten row tiles, three of 25
        monkeypatch.setattr(grad, "_TOKEN_TILE_BYTES", 8 * 10 * 100 * 8)
        want, got, tiles = self._run(bh, d, queries, causal, padded)
        assert tiles == (3 if queries == "gathered" else 10)
        self._agree(want, got)

    @pytest.mark.parametrize("queries, causal, padded", [
        ("all", False, True), ("all", True, True), ("gathered", False, True)])
    def test_f32_equals_whole_batch_formulas(self, queries, causal, padded, monkeypatch):
        # f32 tiles of 8 heads x 10 rows x 100 keys
        monkeypatch.setattr(grad, "_TOKEN_TILE_BYTES", 8 * 10 * 100 * 4)
        want, got, _ = self._run(13, 16, queries, causal, padded, np.float32)
        self._agree(want, got, 1e-5)

    @pytest.mark.parametrize("causal", [False, True])
    def test_fd_across_row_tiles(self, causal, monkeypatch):
        # scores of 2 heads x 3 rows x 12 keys: four row tiles
        monkeypatch.setattr(grad, "_TOKEN_TILE_BYTES", 2 * 3 * 12 * 8)
        r = make_rng(83 + causal)
        inputs = {name: r.standard_normal((2, 12, 3)) for name in "qkv"}
        key_pad = np.zeros((2, 12), dtype=bool)
        key_pad[1, 9:] = True
        for pad in (None, key_pad):
            assert verify.fd_check("token_attention", inputs,
                                   attrs={"causal": causal, "key_pad": pad}) <= 1e-4

    @pytest.mark.parametrize("causal", [False, True])
    def test_zero_upstream_gives_zero_gradients(self, causal, monkeypatch):
        monkeypatch.setattr(grad, "_TOKEN_TILE_BYTES", 8 * 10 * 100 * 8)
        r = make_rng(89 + causal)
        q, k, v = (r.standard_normal((13, 100, 16)) for _ in range(3))
        key_pad = np.zeros((13, 100), dtype=bool)
        key_pad[-3:, 70:] = True
        out, node = grad.token_attention_fwd(q, k, v, causal=causal, key_pad=key_pad)
        got = grad.token_attention_bwd(node, np.zeros_like(out), out)
        assert sorted(got) == ["k", "q", "v"]
        assert all(not g.any() for g in got.values())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("causal", [False, True])
    def test_no_subnormal_reaches_the_e_v_product(self, dtype, causal, monkeypatch):
        # scores spread over thousands: exp(s - max) underflows through the
        # subnormals for some keys of every row
        r = make_rng(97)
        q, k = (30 * r.standard_normal((3, 40, 4)).astype(dtype) for _ in range(2))
        v = r.standard_normal((3, 40, 4)).astype(dtype)
        tiny = np.finfo(dtype).tiny
        s = (q @ k.transpose(0, 2, 1)) * dtype(0.5)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        assert ((e > 0) & (e < tiny)).any()
        operands = []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, **kwargs):
                operands.extend((a, b))
                return np.matmul(a, b, **kwargs)

        monkeypatch.setattr(grad, "np", Spy())
        grad.token_attention_fwd(q, k, v, causal=causal)
        # e of the e @ v product, its underflows flushed to zero
        assert any(a.shape[-1] == 40 and 0 < np.count_nonzero(a) < a.size
                   for a in operands)
        assert not any(((a != 0) & (np.abs(a) < tiny)).any() for a in operands)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("causal", [False, True])
    def test_no_subnormal_reaches_the_backward_products(self, dtype, causal, monkeypatch):
        # row i's scores are -j * q_i over keys j, one nat or so apart, so
        # every row has normal e within a factor 1000 of the smallest normal
        # number; a small upstream makes ds = e * (u~ v^T - delta~) subnormal there
        b, n = 2, 800
        q = np.broadcast_to(1 + 1e-3 * np.arange(n, dtype=dtype)[:, None], (b, n, 1)).copy()
        k = np.broadcast_to(-np.arange(n, dtype=dtype)[:, None], (b, n, 1)).copy()
        r = make_rng(103)
        v = r.standard_normal((b, n, 1)).astype(dtype)
        u = (1e-3 * r.standard_normal((b, n, 1))).astype(dtype)
        tiny = np.finfo(dtype).tiny
        out, node = grad.token_attention_fwd(q, k, v, causal=causal)
        # the backward's formula without the flush
        s = q @ k.transpose(0, 2, 1)
        if causal:
            s[:, np.triu(np.ones((n, n), bool), 1)] = -np.inf
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        e[e < tiny] = 0.0
        total = e.sum(axis=-1, keepdims=True)
        delta = (u * out).sum(axis=-1, keepdims=True) / total
        ds = e * ((u / total) @ v.transpose(0, 2, 1) - delta)
        assert ((ds != 0) & (np.abs(ds) < tiny)).any()
        operands = []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, **kwargs):
                operands.extend((a.copy(), b.copy()))  # as read: tile buffers are reused
                return np.matmul(a, b, **kwargs)

        monkeypatch.setattr(grad, "np", Spy())
        grad.token_attention_bwd(node, u, out)
        # ds of the ds @ k product, its underflows flushed to zero
        assert any(a.shape[-1] == n and a.shape[-2] < n for a in operands)
        assert not any(((a != 0) & (np.abs(a) < tiny)).any() for a in operands)

    def test_tape_keeps_inputs_masks_and_row_statistics(self):
        r = make_rng(101)
        q = r.standard_normal((13, 25, 16))
        k, v = (r.standard_normal((13, 100, 16)) for _ in range(2))
        key_pad = np.zeros((13, 100), dtype=bool)
        key_pad[-3:, 70:] = True
        out, node = grad.token_attention_fwd(q, k, v, key_pad=key_pad)
        s = node.saved
        assert sorted(s) == ["causal", "k", "key_pad", "peak", "q", "scale", "total", "v"]
        assert s["q"] is q and s["k"] is k and s["v"] is v
        assert np.array_equal(s["key_pad"][:, 0], key_pad)
        assert s["peak"].shape == s["total"].shape == (13, 25, 1)
        # nothing of the output: the backward takes it from its caller
        arrays = [a for a in s.values() if isinstance(a, np.ndarray)]
        assert not any(np.shares_memory(a, out) for a in arrays)
        assert sum(a.nbytes for a in arrays) == (q.nbytes + k.nbytes + v.nbytes
                                                 + key_pad.nbytes + 2 * 13 * 25 * 8)

    @pytest.mark.parametrize("causal", [False, True])
    def test_tape_grows_linearly_in_n(self, causal):
        # q, k, v and two numbers per query row: 2.0x from N = 100 to 200,
        # where a tape holding the [bh, N, N] probabilities grows 3.35x
        def tape_bytes(n):
            r = make_rng(n)
            q, k, v = (r.standard_normal((13, n, 16)) for _ in range(3))
            key_pad = np.zeros((13, n), dtype=bool)
            key_pad[-3:, n // 2:] = True
            _, node = grad.token_attention_fwd(q, k, v, causal=causal, key_pad=key_pad)
            return sum(a.nbytes for a in node.saved.values() if isinstance(a, np.ndarray))

        assert tape_bytes(200) <= 2.2 * tape_bytes(100)


class TestGatheredRows:
    """linear_bwd, dropout_fwd and the token attention core on the rows a
    bool [B, N] marks: outputs and input gradients equal the full-batch
    ops', whose upstream is zero off those rows, bit for bit; dW sums the
    marked rows alone and each mask is drawn for them alone."""

    def _rows(self, r):
        rows = r.random((4, 100)) < 0.15
        rows[0, :2] = True
        return rows

    def test_linear_bwd(self):
        # at these shapes a dW over the selected rows alone has other bits
        # than the product over all rows
        r = make_rng(71)
        x, w, b = (r.standard_normal(s) for s in ((4, 100, 64), (64, 48), (48,)))
        rows = self._rows(r)
        u = np.where(rows[..., None], r.standard_normal((4, 100, 48)), 0.0)
        out, node = grad.linear_fwd(x, w, b)
        want = grad.linear_bwd(node, u)
        got_out, node = grad.linear_fwd(x[rows], w, b)
        got = grad.linear_bwd(node, u[rows])
        assert _same_bits(got_out, out[rows])
        assert _same_bits(got["x"], want["x"][rows])
        assert _same_bits(got["w"], x[rows].T @ u[rows])
        assert np.max(np.abs(got["w"] - want["w"])) <= 1e-12 * np.max(np.abs(want["w"]))
        assert _same_bits(got["b"], want["b"])

    def test_dropout_draws_the_gathered_rows(self):
        r = make_rng(73)
        x = r.standard_normal((4, 100, 63))
        rows = self._rows(r)
        got_rng, want_rng = make_rng(0), make_rng(0)
        got, node = grad.dropout_fwd(x[rows], 0.3, got_rng)
        keep = _lane_mask(want_rng, x[rows].shape, 0.3)
        assert np.array_equal(node.saved["keep"], keep)
        assert _same_bits(got, x[rows] * keep * (1.0 / 0.7))
        # the gathered elements' ceil(n / 2) words, not the full shape's
        assert repr(got_rng.bit_generator.state) == repr(want_rng.bit_generator.state)

    @pytest.mark.parametrize("batch", [8, 4, 2])
    def test_token_attention_on_loss_row_queries(self, batch):
        # the configs/tiny-token-mlm.cfg core: 8 heads of 16 over N = 100,
        # at the batches whose training is bitwise the all-rows model's
        h, n, d = 8, 100, 16
        r = make_rng(79 + batch)
        q, k, v = (r.standard_normal((batch * h, n, d)) for _ in range(3))
        pad = np.zeros((batch, n), dtype=bool)
        pad[-1, 70:] = True
        key_pad = np.repeat(pad, h, axis=0)
        rows = np.repeat(model.loss_rows((r.random((batch, n)) < 0.15) & ~pad), h, axis=0)

        def gathered(a):
            return a[rows].reshape(batch * h, -1, d)

        u = np.where(rows[..., None], r.standard_normal(q.shape), 0.0)
        out, node = grad.token_attention_fwd(q, k, v, key_pad=key_pad)
        want = grad.token_attention_bwd(node, u, out)
        got_out, node = grad.token_attention_fwd(gathered(q), k, v, key_pad=key_pad)
        got = grad.token_attention_bwd(node, gathered(u), got_out)
        assert _same_bits(got_out, gathered(out))
        assert _same_bits(got["q"], gathered(want["q"]))
        assert _same_bits(got["k"], want["k"])
        assert _same_bits(got["v"], want["v"])


def _unfolded_dim_bwd(out, node, u, wo, rows=None):
    """The chain the d-space backward replaced, kept as its oracle:
    linear_bwd of the projection wo over the core's output O (its `rows`
    alone), then the N-space core backward on du = u @ wo^T scattered back
    to [B, N, c*d]."""
    s = node.saved
    q, k, v, ws, fs = (s[name] for name in ("q", "k", "v", "ws", "fs"))
    b, n, d = q.shape
    c = ws.shape[0]
    go = grad.linear_bwd(grad.linear_fwd(out if rows is None else out[rows], wo)[1], u)
    du = go["x"] if rows is None else grad.scatter_rows(go["x"], rows)
    dv = du @ grad._filter_gate(ws, fs).reshape(b, c * d, d)
    da = (du.transpose(0, 2, 1) @ v).reshape(b, c, d, d)
    ds = grad._norm_bwd(np.einsum("cjm,bcjm->bjm", ws, da), fs, s["mode"], n)
    return {"q": k @ ds.transpose(0, 2, 1), "k": q @ ds, "v": dv,
            "ws": np.einsum("bjm,bcjm->cjm", fs, da), "wo": go["w"]}


class TestDimBackwardInDSpace:
    """dim_attention_multi_bwd takes the projection wo that reads the
    core's output into its backward, in d-space, and must agree with the
    N-space chain it replaced: every gradient within 1e-13 relative in
    f64 (1e-5 in f32, in f32), per group of a wider wo, with a padded
    tail, at every row and at the loss rows, where the forward takes V
    at those rows alone."""

    B, N, D, C = 3, 12, 4, 3

    # every gradient's max |diff| relative to its max |value|
    @staticmethod
    def _worst(got, want):
        return max(float(np.abs(got[t] - want[t]).max() / np.abs(want[t]).max())
                   for t in want)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("rows", [False, True], ids=["all-rows", "loss-rows"])
    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("mode", NORM_MODES)
    def test_equals_the_n_space_chain(self, mode, groups, rows, dtype):
        b, n, d, c = self.B, self.N, self.D, self.C
        r = make_rng(groups + 2 * rows + 4 * NORM_MODES.index(mode))
        # each group's slice of wo is square, so a transposed wo keeps its shape
        wo = r.standard_normal((groups * c * d, c * d)).astype(dtype)
        pad = np.zeros((b, n), dtype=bool)
        pad[-1, n - 4:] = True  # a padded tail: the model zeroes q and k there
        keep = (~pad).astype(dtype)[:, :, None]
        picked = model.loss_rows((r.random((b, n)) < 0.2) & ~pad) if rows else None
        u = r.standard_normal((b, n, c * d)).astype(dtype)
        if rows:
            u = u[picked]
        dwo, want_wo = [], []
        for g in range(groups):
            q, k, v = (r.standard_normal((b, n, d)).astype(dtype) for _ in range(3))
            ws = r.standard_normal((c, d, d)).astype(dtype)
            out, node = grad.dim_attention_multi_fwd(q * keep, k * keep, v, ws, mode=mode)
            proj = wo[g * c * d:(g + 1) * c * d]
            want = _unfolded_dim_bwd(out, node, u, proj, picked)
            if rows:  # the loss rows' forward: V, and so the output, at them alone
                out_r, node = grad.dim_attention_multi_fwd(
                    q * keep, k * keep, v[picked].reshape(b, -1, d), ws, mode=mode)
                assert self._worst({"o": out_r}, {"o": out[picked].reshape(b, -1, c * d)}) \
                    <= (1e-13 if dtype == np.float64 else 1e-5)
            got = grad.dim_attention_multi_bwd(node, u, proj, rows=picked)
            assert all(a.dtype == dtype for a in got.values())
            assert self._worst(got, want) <= (1e-13 if dtype == np.float64 else 1e-5)
            assert not got["q"][pad].any() and not got["k"][pad].any()
            if rows:
                assert not got["v"][~picked].any()
            dwo.append(got["wo"])
            want_wo.append(want["wo"])
        # the groups' wo gradients stack as their slices of wo do
        assert self._worst({"wo": np.concatenate(dwo)}, {"wo": np.concatenate(want_wo)}) \
            <= (1e-13 if dtype == np.float64 else 1e-5)

    def test_identity_projection_is_the_core_alone(self):
        # with no projection, the backward of O itself: dwo is O^T u
        b, n, d, c = self.B, self.N, self.D, self.C
        r = make_rng(3)
        q, k, v = (r.standard_normal((b, n, d)) for _ in range(3))
        out, node = grad.dim_attention_multi_fwd(q, k, v, r.standard_normal((c, d, d)),
                                                 mode="softmax_cols_over_j")
        u = r.standard_normal(out.shape)
        got = grad.dim_attention_multi_bwd(node, u, np.eye(c * d))
        want = _unfolded_dim_bwd(out, node, u, np.eye(c * d))
        assert self._worst(got, want) <= 1e-13
        assert np.abs(got["wo"] - out.reshape(-1, c * d).T @ u.reshape(-1, c * d)).max() \
            <= 1e-13 * np.abs(got["wo"]).max()
