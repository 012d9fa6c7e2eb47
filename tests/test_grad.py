import numpy as np
import pytest

from dimattn import grad
from dimattn.grad import NORM_MODES
from dimattn.tensor import make_rng


class TestDispatch:
    def test_identity_passthrough(self, rng):
        # relu is the identity on positive inputs, and so is its backward
        x = np.abs(rng.standard_normal((3, 4))) + 0.1
        out, node = grad.relu_fwd(x)
        u = rng.standard_normal((3, 4))
        assert np.array_equal(grad.backward(node, u)["x"], u)

    def test_unknown_op_rejected(self, rng):
        _, node = grad.relu_fwd(rng.standard_normal(3))
        node.op = "fused_rainbow"
        with pytest.raises(ValueError, match="unknown op"):
            grad.backward(node, np.zeros(3))

    def test_upstream_shape_checked(self, rng):
        _, node = grad.relu_fwd(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError, match="upstream shape"):
            grad.backward(node, np.zeros((3, 2)))


class TestMatmulRule:
    """linear without a bias is the plain matrix product x @ w."""

    def test_analytic_formula(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        u = rng.standard_normal((3, 2))
        _, node = grad.linear_fwd(a, b)
        gs = grad.backward(node, u)
        assert np.allclose(gs["x"], u @ b.T, atol=1e-15)
        assert np.allclose(gs["w"], a.T @ u, atol=1e-15)

    def test_fd_2x2(self):
        r = make_rng(0)
        err = grad.fd_check("linear", {"x": r.standard_normal((2, 2)),
                                       "w": r.standard_normal((2, 2))})
        assert err <= 1e-9  # linear map: central differences are exact

    def test_linear_op_fd_near_exact(self):
        r = make_rng(1)
        err = grad.fd_check("linear", {"x": r.standard_normal((3, 4)),
                                       "w": r.standard_normal((4, 2)),
                                       "b": r.standard_normal(2)})
        assert err <= 1e-9


class TestSoftmaxRule:
    def test_uniform_input_uniform_upstream_zero_gradient(self):
        p, node = grad.softmax_fwd(np.zeros((2, 4)))
        g = grad.backward(node, np.ones((2, 4)))["x"]
        assert np.abs(g).max() <= 1e-16

    def test_jacobian_against_upstream(self, rng):
        # row softmax Jacobian applied to arbitrary upstream
        x = rng.standard_normal(5)
        p, node = grad.softmax_fwd(x[None])
        u = rng.standard_normal(5)
        g = grad.backward(node, u[None])["x"][0]
        p0 = p[0]
        jac = np.diag(p0) - np.outer(p0, p0)
        assert np.allclose(g, jac @ u, atol=1e-12)


class TestAttentionRules:
    @pytest.mark.parametrize("causal", [False, True])
    def test_token_attention_fd(self, causal):
        r = make_rng(5 + causal)
        inputs = {"q": r.standard_normal((5, 3)),
                  "k": r.standard_normal((5, 3)),
                  "v": r.standard_normal((5, 3))}
        assert grad.fd_check("token_attention", inputs,
                             attrs={"causal": causal}) <= 1e-4

    @pytest.mark.parametrize("mode", NORM_MODES)
    def test_dim_attention_fd_all_modes(self, mode):
        r = make_rng(17)
        inputs = {"q": r.standard_normal((5, 3)),
                  "k": r.standard_normal((5, 3)),
                  "v": r.standard_normal((5, 3)),
                  "ws": r.standard_normal((1, 3, 3))}
        assert grad.fd_check("dim_attention_multi", inputs, attrs={"mode": mode}) <= 1e-4

    def test_dim_attention_batched_fd(self):
        r = make_rng(23)
        inputs = {"q": r.standard_normal((2, 4, 3)),
                  "k": r.standard_normal((2, 4, 3)),
                  "v": r.standard_normal((2, 4, 3)),
                  "ws": r.standard_normal((2, 3, 3))}
        assert grad.fd_check("dim_attention_multi", inputs,
                             attrs={"mode": "softmax_cols_over_j"}) <= 1e-4

    @pytest.mark.parametrize("scale", [False, True])
    def test_masked_attention_fd(self, scale):
        r = make_rng(31 + scale)
        inputs = {"q": r.standard_normal((4, 2)),
                  "k": r.standard_normal((4, 2)),
                  "v": r.standard_normal((4, 2)),
                  "ws": r.standard_normal((1, 2, 2))}
        assert grad.fd_check("masked_attention_multi", inputs,
                             attrs={"scale_positions": scale}) <= 1e-4

    def test_shared_query_key_gradient_sums_partials(self):
        r = make_rng(3)
        q = r.standard_normal((4, 3))
        v = r.standard_normal((4, 3))
        ws = r.standard_normal((1, 3, 3))
        out, node = grad.dim_attention_multi_fwd(q, q, v, ws, mode="none")
        gs = grad.backward(node, np.ones_like(out))
        shared = gs["q"] + gs["k"]
        h = 1e-6
        for idx in [(0, 0), (2, 1), (3, 2)]:
            qp = q.copy(); qp[idx] += h
            qm = q.copy(); qm[idx] -= h
            num = (np.sum(grad.dim_attention_multi_fwd(qp, qp, v, ws, mode="none")[0])
                   - np.sum(grad.dim_attention_multi_fwd(qm, qm, v, ws, mode="none")[0])) / (2 * h)
            assert abs(num - shared[idx]) / max(abs(num), 1e-8) <= 1e-4

    def test_zero_upstream_zero_gradients(self):
        r = make_rng(9)
        q, k, v = (r.standard_normal((4, 2)) for _ in range(3))
        ws = r.standard_normal((1, 2, 2))
        out, node = grad.masked_attention_multi_fwd(q, k, v, ws)
        gs = grad.backward(node, np.zeros_like(out))
        assert all(not g.any() for g in gs.values())


class TestOtherRules:
    def test_layer_norm_fd(self):
        r = make_rng(11)
        inputs = {"x": r.standard_normal((2, 3, 6)),
                  "gamma": 1.0 + 0.1 * r.standard_normal(6),
                  "beta": 0.1 * r.standard_normal(6)}
        assert grad.fd_check("layer_norm", inputs) <= 1e-4

    def test_embed_fd(self):
        r = make_rng(13)
        ids = r.integers(0, 6, (2, 4))
        assert grad.fd_check("embed", {"table": r.standard_normal((6, 3))},
                             attrs={"ids": ids}) <= 1e-9

    def test_relu_fd(self):
        r = make_rng(15)
        # keep coordinates away from the kink, where FD is undefined
        x = r.standard_normal((4, 4))
        x[np.abs(x) < 1e-3] = 0.5
        assert grad.fd_check("relu", {"x": x}) <= 1e-8

    def test_cross_entropy_fd(self):
        r = make_rng(19)
        mask = r.random((2, 4)) < 0.5
        mask[0, 0] = True
        err = grad.fd_check(
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
        g = grad.backward(node, u)["x"]
        kept = out != 0.0
        assert np.array_equal(g != 0.0, kept)
        assert np.allclose(g[kept], u[kept] / 0.6, atol=1e-12)


class TestFdCheck:
    def test_rejects_non_f64(self):
        with pytest.raises(ValueError, match="float64"):
            grad.fd_check("relu", {"x": np.ones((2, 2), dtype=np.float32)})

    def test_rejects_unknown_op(self):
        with pytest.raises(ValueError, match="unknown op"):
            grad.fd_check("warp", {"x": np.ones(2)})

    def test_twenty_seeded_instances_per_op(self):
        # the full 20-instance sweep for two representative fused ops
        for i in range(20):
            r = make_rng(100 + i)
            inputs = {"q": r.standard_normal((5, 3)),
                      "k": r.standard_normal((5, 3)),
                      "v": r.standard_normal((5, 3)),
                      "ws": r.standard_normal((1, 3, 3))}
            mode = NORM_MODES[i % 4]
            assert grad.fd_check("dim_attention_multi", inputs,
                                 attrs={"mode": mode}) <= 1e-4
            inputs = {"q": r.standard_normal((4, 2)),
                      "k": r.standard_normal((4, 2)),
                      "v": r.standard_normal((4, 2)),
                      "ws": r.standard_normal((1, 2, 2))}
            assert grad.fd_check("masked_attention_multi", inputs) <= 1e-4
