import math

import numpy as np
import pytest

from dimattn import attention, grad, model
from dimattn.config import RunConfig
from dimattn.opcount import counting

# Shared fixture from the dimension-wise walkthrough:
#   S = [[1,2],[3,4]], V = [[1,1],[2,2]], f = none
S_FIX = np.array([[1.0, 2.0], [3.0, 4.0]])
V_FIX = np.array([[1.0, 1.0], [2.0, 2.0]])


def loop_token_attention(q, k, v, visible=None):
    """Literal two-loop evaluation of softmax(QK^T/sqrt(d)) V; query i
    attends to the keys j with visible[i, j] (all keys by default)."""
    n, d = q.shape
    out = np.zeros_like(v)
    for i in range(n):
        keys = [j for j in range(n) if visible is None or visible[i, j]]
        scores = np.array([q[i] @ k[j] / math.sqrt(d) for j in keys])
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        for wj, j in zip(w, keys):
            out[i] += wj * v[j]
    return out


def token_attention(q, k, v, causal=False):
    """The training kernel on one sequence [N, d]."""
    return grad.token_attention_fwd(q[None], k[None], v[None], causal=causal)[0][0]


def dim_attention(q, k, v, w, mode="none"):
    """The training kernel on one sequence [N, d] with one filter."""
    return grad.dim_attention_multi_fwd(q[None], k[None], v[None], w[None], mode)[0][0]


def token_layer(bc, params, ids, decoder=False, pad=None):
    """Layer input, as the backward rebuilds it, and the concatenated head
    outputs of a one-layer model run on a batch ids [B, N]."""
    _, cache = model.forward(params, ids, bc, decoder=decoder, pad=pad)
    return model._layer_input(cache, 0), cache["layers"][0]["no"].saved["x"]


class TestTokenAttention:
    def test_single_token_returns_value(self, rng):
        q, k, v = (rng.standard_normal((1, 4)) for _ in range(3))
        assert np.allclose(token_attention(q, k, v), v, atol=1e-15)

    def test_zero_keys_average_values(self, rng):
        q = rng.standard_normal((5, 3))
        v = rng.standard_normal((5, 3))
        out = token_attention(q, np.zeros((5, 3)), v)
        assert np.allclose(out, np.tile(v.mean(axis=0), (5, 1)), atol=1e-12)

    def test_matches_loop_oracle(self, rng):
        q, k, v = (rng.standard_normal((3, 2)) for _ in range(3))
        assert np.allclose(token_attention(q, k, v),
                           loop_token_attention(q, k, v), atol=1e-12)

    def test_row_blocked_equals_full(self, rng, monkeypatch):
        q, k, v = (rng.standard_normal((69, 4)) for _ in range(3))
        full = [token_attention(q, k, v, causal) for causal in (False, True)]
        # three tiles of 32 query rows, the last one partial
        monkeypatch.setattr(grad, "_TOKEN_TILE_BYTES", 32 * 69 * 8)
        for causal, want in zip((False, True), full):
            blocked = token_attention(q, k, v, causal)
            assert np.abs(want - blocked).max() <= 1e-12

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)],
                             ids=["f64", "f32"])
    @pytest.mark.parametrize("case", ["plain", "causal", "key_pad", "gathered"])
    @pytest.mark.parametrize("tiled", [False, True], ids=["one_tile", "row_tiles"])
    def test_batch_matches_loop_oracle(self, dtype, tol, case, tiled, monkeypatch):
        # 10 heads: a block of 8 and a part block of 2
        bh, n, d = 10, 24, 4
        r = np.random.default_rng(7)
        q, k, v = (r.standard_normal((bh, n, d)).astype(dtype) for _ in range(3))
        pad = np.zeros((bh, n), dtype=bool)
        if case in ("key_pad", "gathered"):
            pad[-3:, 17:] = True
        rows = [0, 3, 4, 11, 17, 23] if case == "gathered" else slice(None)
        if tiled:  # tiles of 5 query rows
            monkeypatch.setattr(grad, "_TOKEN_TILE_BYTES", 8 * 5 * n * np.dtype(dtype).itemsize)
        order = np.tril(np.ones((n, n), bool)) if case == "causal" else np.ones((n, n), bool)
        out = grad.token_attention_fwd(q[:, rows], k, v, causal=case == "causal",
                                       key_pad=pad if pad.any() else None)[0]
        # the oracle in f64 on the same inputs
        want = np.stack([loop_token_attention(*(a[i].astype(np.float64) for a in (q, k, v)),
                                              order & ~pad[i][None, :])[rows]
                         for i in range(bh)])
        assert out.dtype == dtype
        assert np.max(np.abs(out - want)) <= tol * np.max(np.abs(want))

    def test_causal_first_row_is_value(self, rng):
        q, k, v = (rng.standard_normal((4, 3)) for _ in range(3))
        out = token_attention(q, k, v, causal=True)
        assert np.allclose(out[0], v[0], atol=1e-15)

    def test_softmax_rows_sum_to_one_via_uniform_values(self, rng):
        # with V = all-ones, output rows are exactly the softmax row sums
        q, k = (rng.standard_normal((6, 3)) for _ in range(2))
        out = token_attention(q, k, np.ones((6, 3)))
        assert np.abs(out - 1.0).max() <= 1e-12


def two_heads_match_oracle(rng, decoder, padded):
    """Whether a one-layer, two-head token model's heads equal the loop
    oracle, in causal order for the decoder, with one row's tail keys
    padded when `padded`."""
    bc = RunConfig(vocab_size=11, d_model=4, layers=1, attention="token",
                   heads=2, ffn_width=8, seq_len=5, dropout=0.0)
    params = model.init_params(bc, 2)
    if padded:
        ids = rng.integers(0, 11, (2, 5))
        pad = np.zeros((2, 5), dtype=bool)
        pad[1, 3:] = True
    else:
        ids, pad = rng.integers(0, 11, (1, 5)), np.zeros((1, 5), dtype=bool)
    x, heads = token_layer(bc, params, ids, decoder=decoder, pad=pad)
    # q|k|v are column blocks of the fused projection, heads within each
    wq, wk, wv = np.split(params["l0.attn.wqkv"], 3, axis=1)
    order = np.tril(np.ones((5, 5), dtype=bool)) if decoder else np.ones((5, 5), bool)
    for xb, heads_b, pad_b in zip(x, heads, pad):
        visible = order & ~pad_b[None, :]
        expected = np.concatenate(
            [loop_token_attention(xb @ wq[:, cols], xb @ wk[:, cols],
                                  xb @ wv[:, cols], visible)
             for cols in (slice(0, 2), slice(2, 4))], axis=1)
        if not np.allclose(heads_b, expected, atol=1e-12):
            return False
    return True


# the token layer's attention call broken one way
TOKEN_LAYER_MUTANTS = {
    "causal_dropped": lambda fwd: lambda q, k, v, causal=False, key_pad=None:
        fwd(q, k, v, False, key_pad),
    "key_pad_dropped": lambda fwd: lambda q, k, v, causal=False, key_pad=None:
        fwd(q, k, v, causal, None),
}


class TestMultiHeadBaseline:
    """The model's token sublayer: heads split, attended and concatenated."""

    def test_single_head_identity_projections(self, rng):
        bc = RunConfig(vocab_size=11, d_model=4, layers=1, attention="token",
                       heads=1, ffn_width=8, seq_len=5, dropout=0.0)
        params = model.init_params(bc, 0)
        params["l0.attn.wqkv"] = np.tile(np.eye(4), 3)
        params["l0.attn.wo"] = np.eye(4)
        x, heads = token_layer(bc, params, rng.integers(0, 11, (1, 5)))
        assert np.allclose(heads[0], loop_token_attention(x[0], x[0], x[0]), atol=1e-12)

    def test_zero_output_projection(self, rng):
        bc = RunConfig(vocab_size=11, d_model=4, layers=1, attention="token",
                       heads=2, ffn_width=8, seq_len=5, dropout=0.0)
        params = model.init_params(bc, 1)
        params["l0.attn.wo"] = np.zeros((4, 4))
        ids = rng.integers(0, 11, (1, 5))
        base, _ = model.forward(params, ids, bc)
        for block, name in enumerate(("q", "k", "v")):
            wqkv = params["l0.attn.wqkv"].copy()
            wqkv[:, 4 * block:4 * (block + 1)] += 1.0
            logits, _ = model.forward(dict(params, **{"l0.attn.wqkv": wqkv}), ids, bc)
            assert np.array_equal(logits, base), name

    @pytest.mark.parametrize("decoder", [False, True], ids=["encoder", "decoder"])
    @pytest.mark.parametrize("padded", [False, True], ids=["no-pad", "tail-pad"])
    def test_two_heads_match_loop_oracle(self, rng, decoder, padded):
        assert two_heads_match_oracle(rng, decoder, padded)

    @pytest.mark.parametrize("mutant", TOKEN_LAYER_MUTANTS)
    def test_broken_token_layer_caught(self, rng, monkeypatch, mutant):
        monkeypatch.setattr(grad, "token_attention_fwd",
                            TOKEN_LAYER_MUTANTS[mutant](grad.token_attention_fwd))
        assert not all(two_heads_match_oracle(rng, decoder, padded)
                       for decoder in (False, True) for padded in (False, True))

    def test_divisibility_error(self):
        with pytest.raises(ValueError, match="heads"):
            RunConfig(vocab_size=11, d_model=5, attention="token", heads=2)


class TestDimScore:
    def test_identity_query(self):
        k = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(attention.dim_score(np.eye(2), k), k)

    def test_double_loop_oracle(self):
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        k = np.array([[5.0, 6.0], [7.0, 8.0]])
        expected = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                expected[i, j] = sum(q[n, i] * k[n, j] for n in range(2))
        assert np.array_equal(expected, np.array([[26.0, 30.0], [38.0, 44.0]]))
        assert np.allclose(attention.dim_score(q, k), expected, atol=1e-12)

    def test_orthogonal_columns_score_zero(self):
        q = np.array([[1.0], [-1.0]])
        k = np.array([[1.0], [1.0]])
        assert attention.dim_score(q, k)[0, 0] == 0.0

    def test_permutation_exact_on_integer_inputs(self, rng):
        # exact in exact arithmetic; integer-valued f64 keeps it exact
        q = rng.integers(-4, 5, (12, 5)).astype(float)
        k = rng.integers(-4, 5, (12, 5)).astype(float)
        perm = rng.permutation(12)
        assert np.array_equal(attention.dim_score(q, k),
                              attention.dim_score(q[perm], k[perm]))


class TestCovarianceIdentity:
    def test_identity_coefficients_give_gram_matrix(self, rng):
        h = rng.standard_normal((8, 3))
        h -= h.mean(axis=0)
        assert attention.covariance_identity_check(h, np.eye(3), np.eye(3)) == 0.0

    def test_random_coefficients(self, rng):
        h = rng.standard_normal((16, 4))
        h -= h.mean(axis=0)
        h /= h.std(axis=0)
        h -= h.mean(axis=0)
        wq = rng.standard_normal((4, 4))
        wk = rng.standard_normal((4, 4))
        assert attention.covariance_identity_check(h, wq, wk) <= 1e-10

    def test_constant_column_zeroes_out(self, rng):
        h = rng.standard_normal((10, 3))
        h[:, 1] = 4.2
        h -= h.mean(axis=0)
        gram = h.T @ h
        assert np.allclose(gram[1, :], 0.0, atol=1e-12)
        assert np.allclose(gram[:, 1], 0.0, atol=1e-12)

    def test_uncentered_rejected(self, rng):
        h = rng.standard_normal((6, 3)) + 5.0
        with pytest.raises(ValueError, match="centered"):
            attention.covariance_identity_check(h, np.eye(3), np.eye(3))


class TestKrTensor:
    def test_fixture(self):
        x = attention.kr_tensor(S_FIX, V_FIX, "none")
        assert np.array_equal(x[0], np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(x[1], np.array([[2.0, 4.0], [6.0, 8.0]]))

    def test_zero_values(self):
        assert not attention.kr_tensor(S_FIX, np.zeros((3, 2)), "none").any()

    def test_unit_values_absorb_scores(self):
        x = attention.kr_tensor(S_FIX, np.ones((1, 2)), "none")
        assert np.array_equal(x[0], S_FIX)

    def test_slices_are_outer_products(self, rng):
        # slice [:, :, k] is the outer product of f(S) column k with V column k
        s = rng.standard_normal((3, 3))
        v = rng.standard_normal((5, 3))
        x = attention.kr_tensor(s, v, "none")
        for k in range(3):
            assert np.allclose(x[:, :, k], np.outer(v[:, k], s[:, k]), atol=1e-15)


class TestRepresentations:
    def test_explicit_fixture(self):
        x = attention.kr_tensor(S_FIX, V_FIX, "none")
        assert np.array_equal(attention.explicit_rep(x),
                              np.array([[4.0, 6.0], [8.0, 12.0]]))

    def test_explicit_column_softmax_recovers_values(self, rng):
        s = rng.standard_normal((4, 4))
        v = rng.standard_normal((6, 4))
        x = attention.kr_tensor(s, v, "softmax_cols_over_j")
        assert np.abs(attention.explicit_rep(x) - v).max() <= 1e-12

    def test_explicit_zero(self):
        assert not attention.explicit_rep(np.zeros((2, 3, 3))).any()

    def test_implicit_fixture(self):
        x = attention.kr_tensor(S_FIX, V_FIX, "none")
        assert np.array_equal(attention.implicit_rep(x),
                              np.array([[3.0, 7.0], [6.0, 14.0]]))

    def test_implicit_equals_value_times_scores(self, rng):
        s = rng.standard_normal((3, 3))
        v = rng.standard_normal((7, 3))
        for mode in attention.NORM_MODES:
            fs = attention.normalize_scores(s, mode, 7)
            x = attention.kr_tensor(s, v, mode)
            assert np.abs(attention.implicit_rep(x) - v @ fs.T).max() <= 1e-12

    def test_implicit_scaled_identity_scores(self, rng):
        v = rng.standard_normal((4, 3))
        x = attention.kr_tensor(2.5 * np.eye(3), v, "none")
        assert np.allclose(attention.implicit_rep(x), 2.5 * v, atol=1e-15)


class TestConvExtract:
    def test_all_ones_filter_is_implicit_rep(self, rng):
        x = rng.standard_normal((4, 3, 3))
        assert np.array_equal(attention.conv_extract(x, np.ones((3, 3))),
                              attention.implicit_rep(x))

    def test_identity_filter_picks_diagonal(self):
        x = attention.kr_tensor(S_FIX, V_FIX, "none")
        assert np.array_equal(attention.conv_extract(x, np.eye(2)),
                              np.array([[1.0, 4.0], [2.0, 8.0]]))

    def test_zero_filter(self, rng):
        x = rng.standard_normal((4, 3, 3))
        assert not attention.conv_extract(x, np.zeros((3, 3))).any()


class TestFactoredPath:
    def test_fixture_identity_filter(self):
        q = np.eye(2)  # makes S = K exactly
        out = dim_attention(q, S_FIX, V_FIX, np.eye(2), "none")
        assert np.array_equal(out, np.array([[1.0, 4.0], [2.0, 8.0]]))

    def test_fixture_ones_filter_matches_implicit(self):
        q = np.eye(2)
        out = dim_attention(q, S_FIX, V_FIX, np.ones((2, 2)), "none")
        assert np.array_equal(out, np.array([[3.0, 7.0], [6.0, 14.0]]))

    def test_zero_values(self, rng):
        q, k = (rng.standard_normal((4, 3)) for _ in range(2))
        w = rng.standard_normal((3, 3))
        assert not dim_attention(q, k, np.zeros((4, 3)), w).any()

    def test_equivalence_with_materialized(self, rng):
        for case in range(40):
            n = int(rng.integers(1, 65))
            d = int(rng.integers(1, 17))
            q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
            w = rng.standard_normal((d, d))
            mode = attention.NORM_MODES[case % 4]
            lit = attention.dim_attention_materialized(q, k, v, w, mode)
            fac = dim_attention(q, k, v, w, mode)
            assert np.abs(lit - fac).max() <= 1e-10

    def test_wide_score_rows_leave_no_subnormals(self, rng):
        q, k, v = (rng.standard_normal((64, 32)) * 5 for _ in range(3))
        s = q.T @ k
        assert (s.max(axis=1) - s.min(axis=1)).max() > 800
        e = np.exp(s - s.max(axis=1, keepdims=True))
        raw = e / e.sum(axis=1, keepdims=True)
        tiny = np.finfo(raw.dtype).tiny
        assert ((raw > 0) & (raw < tiny)).any()  # the unflushed softmax has some
        p = grad.softmax_fwd(s)
        assert not ((p > 0) & (p < tiny)).any()
        w = rng.standard_normal((32, 32))
        lit = attention.dim_attention_materialized(q, k, v, w, "softmax_rows_over_k")
        fac = dim_attention(q, k, v, w, "softmax_rows_over_k")
        assert np.abs(lit - fac).max() <= 1e-10

    def test_linear_cost_in_n(self, rng):
        d = 5
        counts = {}
        for n in (16, 32, 64):
            q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
            w = rng.standard_normal((d, d))
            with counting() as tally:
                dim_attention(q, k, v, w)
            counts[n] = tally.total
        assert counts[64] - counts[32] == 2 * (counts[32] - counts[16])


class TestMultiConvBlock:
    """Several filters over one score matrix, as the training kernel runs them."""

    def test_degenerate_matches_factored(self, rng):
        q, k, v = (rng.standard_normal((4, 3)) for _ in range(3))
        ws = rng.standard_normal((3, 3, 3))
        out = grad.dim_attention_multi_fwd(q[None], k[None], v[None], ws,
                                           "softmax_rows_over_k")[0][0]
        for f in range(3):
            expected = dim_attention(q, k, v, ws[f], "softmax_rows_over_k")
            assert np.abs(out[:, 3 * f:3 * f + 3] - expected).max() <= 1e-12

    def test_duplicate_filters_duplicate_columns(self, rng):
        x = rng.standard_normal((5, 2))
        w = rng.standard_normal((2, 2))
        q, k, v = (x @ rng.standard_normal((2, 2)) for _ in range(3))
        out = grad.dim_attention_multi_fwd(q[None], k[None], v[None],
                                           np.stack([w] * 8), "none")[0][0]
        for c in range(1, 8):
            assert np.array_equal(out[:, :2], out[:, 2 * c: 2 * c + 2])

    def test_matches_equation_loop_oracle(self, rng):
        n, dm, d, c = 4, 4, 4, 2
        x = rng.standard_normal((n, dm))
        wq = rng.standard_normal((dm, d))
        wk = rng.standard_normal((dm, d))
        wv = rng.standard_normal((dm, d))
        filters = [rng.standard_normal((d, d)) for _ in range(c)]
        wo = rng.standard_normal((c * d, dm))
        q, k, v = x @ wq, x @ wk, x @ wv
        out = grad.dim_attention_multi_fwd(q[None], k[None], v[None], np.stack(filters),
                                           "softmax_rows_over_k")[0][0] @ wo

        s = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                s[i, j] = sum(q[nn, i] * k[nn, j] for nn in range(n))
        fs = attention.normalize_scores(s, "softmax_rows_over_k", n)
        cols = []
        for w in filters:
            tensor3 = np.zeros((n, d, d))
            for i in range(n):
                for j in range(d):
                    for kk in range(d):
                        tensor3[i, j, kk] = fs[j, kk] * v[i, kk]
            o = np.zeros((n, d))
            for i in range(n):
                for j in range(d):
                    o[i, j] = sum(w[j, m] * tensor3[i, j, m] for m in range(d))
            cols.append(o)
        expected = np.concatenate(cols, axis=1) @ wo
        assert np.abs(out - expected).max() <= 1e-10
