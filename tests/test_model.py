import math
import tracemalloc

import numpy as np
import pytest

from dimattn import attention, checkpoint, data, grad, model
from dimattn.config import RunConfig
from dimattn.tensor import derived_rng, make_rng


def tiny_config(**over):
    base = dict(vocab_size=11, d_model=8, layers=1, attention="dim", groups=1,
                convs=2, head_dim=4, ffn_width=16, seq_len=6, dropout=0.0)
    base.update(over)
    return RunConfig(**base)


class TestForward:
    def test_compositional_oracle(self, rng):
        # one layer, identity projections: the encoder must equal the same
        # pipeline hand-composed around the materialized-tensor oracle
        bc = tiny_config(d_model=4, head_dim=4, convs=1, ffn_width=8, seq_len=2)
        params = model.init_params(bc, 1)
        params["l0.attn.wq0"] = np.eye(4)
        params["l0.attn.wk0"] = np.eye(4)
        params["l0.attn.wv0"] = np.eye(4)
        params["l0.attn.wo"] = np.eye(4)
        ids = rng.integers(0, 11, 2)
        logits = model.forward(params, ids[None], bc)[0][0]

        def layer_norm(x, gamma, beta, eps=1e-6):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            return gamma * (x - mu) / np.sqrt(var + eps) + beta

        x0 = params["embed"][ids] * 2.0 \
            + model.sinusoidal_positions(bc.seq_len, bc.d_model)[:2]
        a = attention.dim_attention_materialized(
            x0, x0, x0, params["l0.attn.filters0"][0], bc.norm_mode)
        x1 = layer_norm(x0 + a, params["l0.ln1.gamma"], params["l0.ln1.beta"])
        f = np.maximum(x1 @ params["l0.ffn.w1"] + params["l0.ffn.b1"], 0.0)
        f = f @ params["l0.ffn.w2"] + params["l0.ffn.b2"]
        x2 = layer_norm(x1 + f, params["l0.ln2.gamma"], params["l0.ln2.beta"])
        assert np.abs(logits - x2 @ params["embed"].T).max() <= 1e-10

    def test_same_seed_bit_identical(self, rng):
        bc = tiny_config()
        ids = rng.integers(0, 11, (2, 6))
        a = model.forward(model.init_params(bc, 5), ids, bc)[0]
        b = model.forward(model.init_params(bc, 5), ids, bc)[0]
        assert np.array_equal(a, b)

    def test_dropout_only_with_a_generator(self, rng):
        # evaluation passes no generator and must see the model undropped
        bc = tiny_config(dropout=0.5)
        params = model.init_params(bc, 0)
        ids = rng.integers(0, 11, (2, 6))
        off = model.forward(params, ids, tiny_config())[0]
        assert np.array_equal(model.forward(params, ids, bc)[0], off)
        on = model.forward(params, ids, bc, drop_rng=derived_rng(0, 0xD0, 0))[0]
        assert not np.array_equal(on, off)

    def test_out_of_vocab_rejected(self, rng):
        bc = tiny_config()
        params = model.init_params(bc, 0)
        with pytest.raises(ValueError, match="out of range"):
            model.forward(params, np.array([[0, 11]]), bc)

    def test_overlong_sequence_rejected(self, rng):
        bc = tiny_config()
        params = model.init_params(bc, 0)
        with pytest.raises(ValueError, match="exceeds"):
            model.forward(params, np.zeros((1, 7), dtype=int), bc)


INIT_CONFIGS = {
    "dim": dict(groups=2, convs=2, head_dim=8),
    "token": dict(attention="token", heads=4),
}


def init_config(kind, **over):
    return tiny_config(d_model=32, layers=2, ffn_width=64, seq_len=8,
                       **INIT_CONFIGS[kind], **over)


def seed_problems(init, bc):
    """Where the tensors `init(bc, seed)` draws break seeding: names out of
    `model._param_specs` order, other tensors for one seed, or the same
    drawn (not fixed) tensors for the next seed."""
    a, b, c = init(bc, 3), init(bc, 3), init(bc, 4)
    specs = model._param_specs(bc)
    problems = [] if list(a) == [name for name, _, _ in specs] else ["names"]
    for name, _, spec in specs:
        if not np.array_equal(a[name], b[name]):
            problems.append(f"{name} differs for one seed")
        elif spec not in ("ones", "zeros") and np.array_equal(a[name], c[name]):
            problems.append(f"{name} same for another seed")
    return problems


def xavier_problems(init, bc):
    """Shapes other than the specs', and xavier tensors whose max |w| is
    outside [0.9, 1] of the bound."""
    params = init(bc, 0)
    problems = []
    for name, shape, spec in model._param_specs(bc):
        if params[name].shape != shape:
            problems.append(f"{name} shape {params[name].shape}, spec {shape}")
        elif isinstance(spec, tuple):
            bound, top = math.sqrt(6.0 / sum(spec)), np.abs(params[name]).max()
            if not 0.9 * bound <= top <= bound:
                problems.append(f"{name} max |w| {top:.3f}, bound {bound:.3f}")
    return problems


def fixed_problems(init, bc):
    """Norms and biases not at their ones and zeros."""
    params = init(bc, 0)
    return [name for name, shape, spec in model._param_specs(bc)
            if spec in ("ones", "zeros")
            and not np.array_equal(params[name], np.full(shape, float(spec == "ones")))]


def init_mutant(kind):
    """`model.init_params` broken one way."""
    def init(cfg, seed):
        if kind == "unseeded":
            return model.init_params(cfg, int(np.random.default_rng().integers(2**62)))
        params = model.init_params(cfg, seed)
        for name, _, spec in model._param_specs(cfg):
            if kind == "double_bound" and name.endswith("attn.wo"):
                params[name] = params[name] * 2
            elif kind == "zero_weights" and isinstance(spec, tuple):
                params[name] = np.zeros_like(params[name])
            elif kind == "zero_gamma" and name.endswith(".gamma"):
                params[name] = np.zeros_like(params[name])
        return params
    return init


class TestInitParams:
    @pytest.mark.parametrize("kind", INIT_CONFIGS)
    def test_seed_determinism(self, kind):
        assert seed_problems(model.init_params, init_config(kind)) == []

    @pytest.mark.parametrize("kind", INIT_CONFIGS)
    def test_xavier_bounds(self, kind):
        assert xavier_problems(model.init_params, init_config(kind)) == []

    def test_norms_and_biases_start_fixed(self):
        for kind in INIT_CONFIGS:
            assert fixed_problems(model.init_params, init_config(kind)) == [], kind

    @pytest.mark.parametrize("mutant", ["double_bound", "zero_weights", "zero_gamma",
                                        "unseeded"])
    def test_broken_init_caught(self, mutant):
        for kind in INIT_CONFIGS:
            assert any(check(init_mutant(mutant), init_config(kind))
                       for check in (seed_problems, xavier_problems, fixed_problems)), kind

    def test_embedding_scale(self):
        bc = tiny_config(vocab_size=400, d_model=32, head_dim=8)
        emb = model.init_params(bc, 0)["embed"]
        assert abs(emb.mean()) <= 0.01
        assert abs(emb.std() * math.sqrt(bc.d_model) - 1.0) <= 0.05

    def test_f32_is_the_f64_draw_rounded(self):
        p64 = model.init_params(init_config("dim"), 2)
        p32 = model.init_params(init_config("dim", precision="f32"), 2)
        for k in p64:
            assert p32[k].dtype == np.float32
            assert np.array_equal(p32[k], p64[k].astype(np.float32)), k


class TestPositionTable:
    """forward adds a cached, read-only sinusoidal table per (seq_len,
    d_model, dtype)."""

    def test_read_only(self):
        table = model._position_table(16, 8, np.float64)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_equals_sinusoids(self, dtype):
        table = model._position_table(50, 12, dtype)
        want = model.sinusoidal_positions(50, 12).astype(dtype)
        assert table.dtype == want.dtype
        assert table.tobytes() == want.tobytes()

    def test_each_seq_len_gets_its_rows(self, rng):
        # the first layer's input is embed * sqrt(d) + positions
        for seq_len, n in ((100, 100), (1024, 1024), (1024, 60)):
            bc = tiny_config(seq_len=seq_len)
            params = model.init_params(bc, 0)
            ids = rng.integers(0, 11, (2, n))
            _, cache = model.forward(params, ids, bc)
            want = params["embed"][ids] * math.sqrt(bc.d_model) \
                + model.sinusoidal_positions(seq_len, bc.d_model)[:n]
            x = model._layer_input(cache, 0)
            assert x.tobytes() == want.tobytes()


class TestDecoder:
    def test_perturb_last_token(self, rng):
        bc = tiny_config(layers=2)
        params = model.init_params(bc, 2)
        ids = rng.integers(0, 11, 6)
        ids2 = ids.copy()
        ids2[5] = (ids2[5] + 3) % 11
        a = model.forward(params, ids[None], bc, decoder=True)[0][0]
        b = model.forward(params, ids2[None], bc, decoder=True)[0][0]
        assert np.abs(a[:5] - b[:5]).max() <= 1e-12

    def test_position_zero_sees_only_itself(self, rng):
        bc = tiny_config()
        params = model.init_params(bc, 3)
        ids = rng.integers(0, 11, 6)
        ids2 = ids.copy()
        ids2[1:] = (ids2[1:] + 1) % 11
        a = model.forward(params, ids[None], bc, decoder=True)[0][0]
        b = model.forward(params, ids2[None], bc, decoder=True)[0][0]
        assert np.abs(a[0] - b[0]).max() <= 1e-12

    def test_f32_decoder_logits(self, rng):
        n = grad._CHUNK + 3
        bc = tiny_config(seq_len=n, precision="f32")
        params = model.init_params(bc, 7)
        ids = rng.integers(0, 11, (2, n))
        logits = model.forward(params, ids, bc, decoder=True)[0]
        assert logits.dtype == np.float32
        bc64 = tiny_config(seq_len=n)
        ref = model.forward({k: a.astype(np.float64) for k, a in params.items()},
                            ids, bc64, decoder=True)[0]
        assert np.abs(logits - ref).max() <= 1e-4 * np.abs(ref).max()

    def test_token_kind_decoder_is_causal_too(self, rng):
        bc = tiny_config(attention="token", heads=2)
        params = model.init_params(bc, 4)
        ids = rng.integers(0, 11, 6)
        ids2 = ids.copy()
        ids2[4:] = (ids2[4:] + 5) % 11
        a = model.forward(params, ids[None], bc, decoder=True)[0][0]
        b = model.forward(params, ids2[None], bc, decoder=True)[0][0]
        assert np.abs(a[:4] - b[:4]).max() <= 1e-12

    def test_streaming_matches_naive_composition(self, rng):
        # one dim layer: swap the attention sublayer for the loop-oracle form
        from dimattn import masked
        bc = tiny_config(layers=1, convs=1)
        params = model.init_params(bc, 6)
        ids = rng.integers(0, 11, 5)
        logits = model.forward(params, ids[None], bc, decoder=True)[0][0]

        def layer_norm(x, gamma, beta, eps=1e-6):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            return gamma * (x - mu) / np.sqrt(var + eps) + beta

        x0 = params["embed"][ids] * math.sqrt(8) \
            + model.sinusoidal_positions(bc.seq_len, 8)[:5]
        q = x0 @ params["l0.attn.wq0"]
        k = x0 @ params["l0.attn.wk0"]
        v = x0 @ params["l0.attn.wv0"]
        a = masked.masked_output(q, k, v, params["l0.attn.filters0"][0])
        a = a @ params["l0.attn.wo"]
        x1 = layer_norm(x0 + a, params["l0.ln1.gamma"], params["l0.ln1.beta"])
        f = np.maximum(x1 @ params["l0.ffn.w1"] + params["l0.ffn.b1"], 0.0)
        f = f @ params["l0.ffn.w2"] + params["l0.ffn.b2"]
        x2 = layer_norm(x1 + f, params["l0.ln2.gamma"], params["l0.ln2.beta"])
        expected = x2 @ params["embed"].T
        assert np.abs(logits - expected).max() <= 1e-10


class TestSublayerIsolation:
    def test_attention_kinds_share_everything_else(self, rng):
        ids = rng.integers(0, 11, (2, 6))
        logits = []
        for bc in (tiny_config(attention="token", heads=2, layers=2),
                   tiny_config(attention="dim", layers=2)):
            params = model.init_params(bc, 9)
            for i in range(bc.layers):
                params[f"l{i}.attn.wo"][...] = 0.0
            logits.append(model.forward(params, ids, bc)[0])
        assert np.array_equal(logits[0], logits[1])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLossRows:
    """The encoder runs its last layer's row-wise sublayers and the head on
    the loss positions only.  Logits and the loss must equal the all-rows
    computation bit for bit.  So must every gradient, save that the last
    layer's weight gradients and the head's term sum the loss rows alone:
    bitwise the products of those rows of the all-rows operands, and within
    1e-12 relative of the all-rows gradients (1e-5 in f32).  With dropout
    on, the all-rows model replays the gathered run's masks, the last
    layer's two at the loss rows and keep-all elsewhere."""

    SMALL = dict(d_model=64, head_dim=16, ffn_width=96, vocab_size=40)
    CONFIGS = {
        "dim-g1": dict(attention="dim", groups=1, **SMALL),
        "dim-g2": dict(attention="dim", groups=2, **SMALL),
        "token": dict(attention="token", heads=4, **SMALL),
    }
    # the configs/tiny-*.cfg shapes at their batch of 8, with the synthetic
    # corpus's vocabulary
    SHIPPED = dict(d_model=128, ffn_width=256, vocab_size=30)
    SHIPPED_CONFIGS = {
        "tiny-dim": dict(attention="dim", groups=1, convs=8, head_dim=32, **SHIPPED),
        "tiny-token": dict(attention="token", heads=8, **SHIPPED),
    }

    # large enough that OpenBLAS sums a dW product over the selected rows
    # alone in another order than over all rows
    SHAPE = (4, 100)

    def _setup(self, name, layers=2, dropout=0.1, precision="f64"):
        shape = self.SHAPE if name in self.CONFIGS else (8, 100)
        bc = tiny_config(layers=layers, dropout=dropout, seq_len=100, seed=4,
                         precision=precision,
                         **{**self.CONFIGS, **self.SHIPPED_CONFIGS}[name])
        r = make_rng(17)
        ids = r.integers(0, bc.vocab_size, shape)
        targets = r.integers(5, bc.vocab_size, shape)
        pad = np.zeros(shape, dtype=bool)
        pad[-1, 70:] = True  # a padded tail
        mask = (r.random(shape) < 0.15) & ~pad
        return bc, model.init_params(bc, 4), ids, targets, mask, pad

    def _all_rows(self, monkeypatch, params, ids, targets, mask, pad, bc, masks):
        """The all-rows loss and gradients, and the same gradients with the
        last layer's weight products, its dim cores' backward and the
        head's term taken over the loss rows of that run's own operands;
        a dim core's backward reads V there, as the gathered forward
        projects it.
        Its dropout nodes take the (keep, scale) pairs of masks in order; a
        keep drawn for the loss rows alone is scattered into a keep-all
        mask."""
        rows, last = model.loss_rows(mask), f"l{bc.layers - 1}."
        last_wo = params[last + "attn.wo"]
        # a dim encoder takes attn.wo's gradient in its cores' backward
        token_wo = ("attn.wo",) if bc.attention == "token" else ()
        moved = {id(params[last + n]): last + n for n in token_wo + ("ffn.w1", "ffn.w2")}
        gathered, linear_bwd, embed_bwd = {}, grad.linear_bwd, grad.embed_bwd
        dim_bwd = grad.dim_attention_multi_bwd

        def replay(pending):
            def dropout_fwd(x, rate, rng):
                keep, scale = pending.pop(0)
                if keep.shape != x.shape:  # drawn for the loss rows alone
                    full = np.ones(x.shape, dtype=bool)
                    full[rows] = keep
                    keep = full
                out = x * keep
                out *= scale
                return out, grad._node(keep=keep, scale=scale)
            return dropout_fwd

        def spy_linear(node, u, x=None):
            g = linear_bwd(node, u, x=x)
            if id(node.saved["w"]) in moved:
                x = node.saved["x"] if x is None else x
                gathered[moved[id(node.saved["w"])]] = x[rows].T @ u[rows]
            return g

        def spy_dim(node, u, wo, rows=None):
            # the last layer's core, over the loss rows of its upstream and
            # of V: its dM = V^T u, and so each gradient it passes on
            if wo is last_wo or wo.base is last_wo:
                picked, v = model.loss_rows(mask), node.saved["v"]
                node = grad._node(**{**node.saved,
                                     "v": v[picked].reshape(v.shape[0], -1, v.shape[2])})
                return dim_bwd(node, u[picked], wo, rows=picked)
            return dim_bwd(node, u, wo, rows=rows)

        def spy_embed(node, u):
            gathered["table"] = embed_bwd(node, u)["table"]
            return {"table": gathered["table"]}

        def run(spies):
            pending = list(masks)
            with monkeypatch.context() as patch:
                patch.setattr(grad, "dropout_fwd", replay(pending))
                logits, cache = model.forward(params, ids, bc, drop_rng=make_rng(0),
                                              pad=pad)
            assert not pending
            loss, node = grad.cross_entropy_masked_fwd(logits, targets, mask)
            dlogits = grad.cross_entropy_masked_bwd(node, 1.0)["logits"]
            x_final = grad.layer_norm_out(cache["layers"][-1]["nln2"])
            with monkeypatch.context() as patch:
                for name, spy in spies.items():
                    patch.setattr(grad, name, spy)
                grads = model.backward_from_cache(cache, dlogits)
            return loss, grads, dlogits[rows].T @ x_final[rows]

        loss, all_rows, _ = run({})
        _, grads, embed = run({"linear_bwd": spy_linear, "dim_attention_multi_bwd": spy_dim,
                               "embed_bwd": spy_embed})
        embed += gathered.pop("table")
        return loss, all_rows, {**grads, **gathered, "embed": embed}

    @staticmethod
    def _logit_shapes(monkeypatch, module):
        """Record the shape of every logits array the loss receives."""
        shapes, loss = [], module.cross_entropy_masked_fwd

        def spy(logits, *args):
            shapes.append(logits.shape)
            return loss(logits, *args)

        monkeypatch.setattr(module, "cross_entropy_masked_fwd", spy)
        return shapes

    def _assert_same(self, monkeypatch, params, ids, targets, mask, pad, bc):
        masks, dropout_fwd = [], grad.dropout_fwd

        def spy_dropout(x, rate, rng):
            out, node = dropout_fwd(x, rate, rng)
            masks.append((node.saved["keep"], node.saved["scale"]))
            return out, node

        with monkeypatch.context() as patch:
            shapes = self._logit_shapes(patch, grad)
            patch.setattr(grad, "dropout_fwd", spy_dropout)
            loss, grads = model.loss_and_grads(
                params, ids, targets, mask, bc,
                drop_rng=derived_rng(bc.seed, 0xD0, 3), pad=pad)
        assert len(masks) == (2 * bc.layers if bc.dropout else 0)
        want_loss, all_rows, want = self._all_rows(monkeypatch, params, ids, targets,
                                                   mask, pad, bc, masks)
        assert shapes == [(model.loss_rows(mask).sum(), bc.vocab_size)]
        assert loss == want_loss
        # the same names in the same order: clip_global_norm sums in it
        assert list(grads) == list(want)
        tol = 1e-12 if bc.precision == "f64" else 1e-5
        for name in want:
            assert _same_bits(grads[name], want[name]), name
            diff = np.max(np.abs(grads[name] - all_rows[name]))
            assert diff <= tol * np.max(np.abs(all_rows[name])), name

    # the shipped configs also at f32, a precision a run may choose
    ALL_ROWS_CASES = ([(name, "f64") for name in sorted(CONFIGS) + sorted(SHIPPED_CONFIGS)]
                      + [(name, "f32") for name in sorted(SHIPPED_CONFIGS)])

    @pytest.mark.parametrize("name, precision", ALL_ROWS_CASES)
    def test_loss_and_grads_equal_all_rows(self, monkeypatch, name, precision):
        bc, params, ids, targets, mask, pad = self._setup(name, dropout=0.0,
                                                          precision=precision)
        assert 1 < mask.sum() < mask.size
        self._assert_same(monkeypatch, params, ids, targets, mask, pad, bc)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_dropout_masks_the_loss_rows(self, monkeypatch, name):
        bc, params, ids, targets, mask, pad = self._setup(name, dropout=0.1)
        self._assert_same(monkeypatch, params, ids, targets, mask, pad, bc)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_one_row_and_every_row(self, monkeypatch, name):
        # one row runs the all-rows path; every row gathers all of them
        bc, params, ids, targets, _, _ = self._setup(name, dropout=0.0)
        one = np.zeros(self.SHAPE, dtype=bool)
        one[2, 5] = True
        for mask in (one, np.ones(self.SHAPE, dtype=bool)):
            self._assert_same(monkeypatch, params, ids, targets, mask, None, bc)

    @pytest.mark.parametrize("name, precision", ALL_ROWS_CASES)
    def test_logits_are_rows_of_full_logits(self, name, precision):
        bc, params, ids, _, mask, pad = self._setup(name, precision=precision)
        full, _ = model.forward(params, ids, bc, pad=pad)
        for rows in (model.loss_rows(mask), np.ones_like(mask)):
            logits, _ = model.forward(params, ids, bc, pad=pad, rows=rows)
            assert _same_bits(logits, full[rows])
        # the last token layer scores the same number of queries per window
        assert len(set(mask.sum(axis=1))) > 1
        with pytest.raises(ValueError, match="same number of positions"):
            model.forward(params, ids, bc, pad=pad, rows=mask)
        with pytest.raises(ValueError, match="decoder"):
            model.forward(params, ids, bc, decoder=True, rows=np.ones_like(mask))

    @pytest.mark.parametrize("groups", [1, 2])
    def test_last_dim_layer_projects_v_at_the_loss_rows(self, monkeypatch, groups):
        # output row i reads V at row i alone: the last encoder layer's
        # attn.wv{g} products read its loss rows, and each core returns
        # them as [B, r, c*d]; layer 0 and the decoder read every position
        bc, params, ids, _, mask, pad = self._setup(f"dim-g{groups}")
        rows = model.loss_rows(mask)
        (b, n), r, width = ids.shape, rows.sum() // ids.shape[0], bc.convs * bc.head_dim
        wv = {id(params[f"l{i}.attn.wv{g}"]): i for i in range(bc.layers)
              for g in range(groups)}
        reads, cores = [], []
        linear_fwd, dim_fwd = grad.linear_fwd, grad.dim_attention_multi_fwd

        def spy_linear(x, w, bias=None):
            if id(w) in wv:
                reads.append((wv[id(w)], math.prod(x.shape[:-1])))
            return linear_fwd(x, w, bias)

        def spy_dim(*args, **kwargs):
            out = dim_fwd(*args, **kwargs)
            cores.append(out[0].shape)
            return out

        monkeypatch.setattr(grad, "linear_fwd", spy_linear)
        monkeypatch.setattr(grad, "dim_attention_multi_fwd", spy_dim)
        model.forward(params, ids, bc, pad=pad, rows=rows)
        assert reads == [(0, b * n)] * groups + [(1, rows.sum())] * groups
        assert cores == [(b, n, width)] * groups + [(b, r, width)] * groups
        reads.clear()
        model.forward(params, ids, bc, decoder=True)
        assert reads == [(0, b * n)] * groups + [(1, b * n)] * groups

    def test_loss_rows(self):
        mask = np.zeros((4, 12), dtype=bool)
        mask[1, 3] = mask[3, 0] = True
        rows = model.loss_rows(mask)
        # per window: its masked positions, then its first others, up to 12 // 4
        assert [np.flatnonzero(w).tolist() for w in rows] == [
            [0, 1, 2], [0, 1, 3], [0, 1, 2], [0, 1, 2]]
        # a window over the quota raises it for every window
        mask[2, 5:10] = True
        rows = model.loss_rows(mask)
        assert np.count_nonzero(rows, axis=1).tolist() == [5, 5, 5, 5]
        assert np.array_equal(rows & mask, mask)
        assert np.array_equal(rows[2], mask[2])
        assert np.flatnonzero(rows[1]).tolist() == [0, 1, 2, 3, 4]
        many = np.arange(48).reshape(4, 12) % 3 == 0
        assert np.array_equal(model.loss_rows(many), many)

    @pytest.mark.parametrize("attention", ["dim", "token"])
    def test_eval_nll_equals_all_rows(self, monkeypatch, corpus_path, attention):
        from dimattn import train
        bc = RunConfig(data=corpus_path, attention=attention, heads=4, d_model=32,
                       head_dim=8, convs=2, ffn_width=64, layers=2, seq_len=40,
                       batch_size=4, eval_batches=3, valid_fraction=0.05)
        vocab, _, valid_split = train._load_windows(bc)
        bc = bc.block_config(vocab.size)
        params = model.init_params(bc, 2)
        win, pad = valid_split
        total, count = 0.0, 0
        for step in range(bc.eval_batches):
            batch = data.mlm_batch(win, pad, bc.vocab_size, bc.seed, step,
                                   bc.batch_size, eval_mode=True)
            logits, _ = model.forward(params, batch.inputs, bc, pad=batch.pad)
            loss, _ = grad.cross_entropy_masked_fwd(logits, batch.targets, batch.mask)
            n = int(batch.mask.sum())
            total += loss * n
            count += n
        shapes = self._logit_shapes(monkeypatch, train)
        assert train._eval_nll(params, bc, valid_split) == total / count
        assert len(shapes) == bc.eval_batches
        assert all(len(shape) == 2 for shape in shapes)  # scored rows only


class TestBackwardConsumesCache:
    @pytest.mark.parametrize("attention", ["dim", "token"])
    def test_layers_popped_gradients_unchanged(self, rng, attention):
        # backward_from_cache pops each layer and each of its tape nodes as
        # it goes, so the tape cannot be replayed; its gradients are the
        # bits of loss_and_grads, which runs the same forward
        bc = tiny_config(attention=attention, heads=2, layers=3, groups=2,
                         dropout=0.1, seed=5)
        params = model.init_params(bc, 5)
        ids = rng.integers(0, bc.vocab_size, (3, 6))
        targets = rng.integers(0, bc.vocab_size, (3, 6))
        mask = rng.random((3, 6)) < 0.3
        mask[:, 0] = True
        rows = model.loss_rows(mask)
        logits, cache = model.forward(params, ids, bc, rows=rows,
                                      drop_rng=derived_rng(5, 0xD0, 1))
        _, node = grad.cross_entropy_masked_fwd(logits, targets[rows], mask[rows])
        dlogits = grad.cross_entropy_masked_bwd(node, 1.0)["logits"]
        layers = list(cache["layers"])
        groups = [gc for lc in layers for gc in lc.get("groups", [])]
        assert len(groups) == (6 if attention == "dim" else 0)
        grads = model.backward_from_cache(cache, dlogits)
        assert cache["layers"] == []
        assert all(sorted(lc) == ["prefix", "rows"] for lc in layers)
        assert all(gc == {} for gc in groups)
        _, want = model.loss_and_grads(params, ids, targets, mask, bc,
                                       drop_rng=derived_rng(5, 0xD0, 1))
        assert list(grads) == list(want)
        for name in want:
            assert _same_bits(grads[name], want[name]), name

    @staticmethod
    def _tape_model(rng, attention, decoder, b, n):
        """The perfbench layer shapes at [b, n], with a loss mask and rows."""
        bc = RunConfig(vocab_size=30, d_model=128, layers=2, attention=attention,
                       heads=8, groups=1, convs=8, head_dim=32, ffn_width=256,
                       seq_len=n, dropout=0.1, norm_mode="softmax_rows_over_k")
        params = model.init_params(bc, 0)
        ids = rng.integers(0, bc.vocab_size, (b, n))
        mask = rng.random((b, n)) < 0.15
        mask[:, 0] = True
        rows = None if decoder else model.loss_rows(mask)
        return bc, params, ids, mask, rows

    @pytest.mark.parametrize("attention,decoder,b,n", [
        ("dim", False, 8, 100), ("token", False, 8, 100), ("dim", True, 1, 256),
    ], ids=["dim-encoder", "token-encoder", "dim-decoder"])
    def test_backward_peak_stays_near_the_tape(self, rng, attention, decoder, b, n):
        # every activation and gradient lives only while something reads
        # it, so the backward needs little beyond the tape the forward left:
        # at most 5 activations [B*N, ffn_width] (1.8 to 2.7 measured);
        # holding a layer's tape and gradients until its backward returns
        # takes 7.5 to 11.9
        bc, params, ids, mask, rows = self._tape_model(rng, attention, decoder, b, n)
        tracemalloc.start()
        try:
            logits, cache = model.forward(params, ids, bc, decoder=decoder, rows=rows,
                                          drop_rng=derived_rng(0, 0xD0, 0))
            picked = slice(None) if decoder else rows
            _, node = grad.cross_entropy_masked_fwd(logits, ids[picked], mask[picked])
            dlogits = grad.cross_entropy_masked_bwd(node, 1.0)["logits"]
            del logits, node
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model.backward_from_cache(cache, dlogits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess = (peak - live) / (b * n * bc.ffn_width * 8)
        assert excess <= 5.0, f"backward peak {excess:.1f} activations above the tape"

    @pytest.mark.parametrize("attention,decoder,b,n,bound", [
        ("dim", False, 8, 100, 7.5), ("token", False, 8, 100, 13.8),
        ("dim", True, 1, 256, 16.5), ("token", True, 1, 256, 19.5),
    ], ids=["dim-encoder", "token-encoder", "dim-decoder", "token-decoder"])
    def test_forward_tape_holds_each_fact_once(self, rng, attention, decoder, b, n, bound):
        # what the forward leaves live, in activations [B*N, d_model]: 7.0,
        # 12.0, 14.3 and 16.8 measured.  A token tape keeping its [B*h, N, N]
        # probabilities, linear nodes keeping their layer-norm inputs and
        # the dim tape keeping W_f * f(S) read 14.3, 23.2, 19.3 and 53.6; the
        # dim encoder's attn.wo node keeping the core's output read 9.5
        bc, params, ids, _, rows = self._tape_model(rng, attention, decoder, b, n)
        # once untraced, so the cached position table is not counted
        model.forward(params, ids, bc, decoder=decoder, rows=rows)
        tracemalloc.start()
        try:
            logits, cache = model.forward(params, ids, bc, decoder=decoder, rows=rows,
                                          drop_rng=derived_rng(0, 0xD0, 0))
            del logits
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        tape = live / (b * n * bc.d_model * 8)
        assert tape <= bound, f"forward tape {tape:.1f} activations"

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("attention,decoder", [
        ("dim", False), ("token", False), ("dim", True),
    ], ids=["dim-encoder", "token-encoder", "dim-decoder"])
    def test_rebuilt_inputs_are_the_forwards(self, rng, monkeypatch, attention, decoder,
                                             precision):
        # no node keeps a layer norm's output or the first layer's input:
        # the backward rebuilds them, and they must be the forward's bits
        bc = tiny_config(attention=attention, heads=2, layers=3, groups=2, dropout=0.1,
                         seq_len=12, precision=precision)
        # layer norms away from their init, so a rebuild must apply gamma and beta
        params = {k: (v + rng.standard_normal(v.shape)).astype(v.dtype) if ".ln" in k else v
                  for k, v in model.init_params(bc, 4).items()}
        ids = rng.integers(0, bc.vocab_size, (3, 12))
        rows = None if decoder else model.loss_rows(rng.random((3, 12)) < 0.2)
        made = {"ln": [], "x": []}

        def capture(key, fn):
            def wrapped(x, *args):
                out = fn(x, *args)
                made[key].append((out[0] if key == "ln" else x).copy())
                return out
            return wrapped

        monkeypatch.setattr(grad, "layer_norm_fwd", capture("ln", grad.layer_norm_fwd))
        monkeypatch.setattr(grad, "linear_fwd", capture("x", grad.linear_fwd))
        _, cache = model.forward(params, ids, bc, decoder=decoder, rows=rows,
                                 drop_rng=derived_rng(4, 0xD0, 1))
        layers = cache["layers"]
        rebuilt = [grad.layer_norm_out(lc[k]) for lc in layers for k in ("nln1", "nln2")]
        assert len(rebuilt) == len(made["ln"]) == 2 * bc.layers
        for i, (got, want) in enumerate(zip(rebuilt, made["ln"])):
            assert _same_bits(got, want), i
        assert _same_bits(model._layer_input(cache, 0), made["x"][0])
        for i in range(1, bc.layers):
            assert _same_bits(model._layer_input(cache, i), made["ln"][2 * i - 1]), i


class TestMlmLoss:
    def test_uniform_logits(self):
        logits = np.zeros((1, 3, 7))
        targets = np.array([[1, 2, 3]])
        mask = np.ones((1, 3), dtype=bool)
        assert abs(model.mlm_loss(logits, targets, mask) - math.log(7)) <= 1e-12

    def test_confident_correct_logits(self):
        logits = np.full((1, 2, 5), -50.0)
        targets = np.array([[2, 4]])
        logits[0, 0, 2] = 50.0
        logits[0, 1, 4] = 50.0
        mask = np.ones((1, 2), dtype=bool)
        assert model.mlm_loss(logits, targets, mask) <= 1e-12

    def test_two_class_closed_form(self):
        logits = np.array([[[0.0, math.log(3.0)]]])
        targets = np.array([[1]])
        mask = np.ones((1, 1), dtype=bool)
        # p(class 1) = 3/4, so the loss is ln(4/3)
        assert abs(model.mlm_loss(logits, targets, mask)
                   - math.log(4.0 / 3.0)) <= 1e-12

    def test_only_masked_positions_count(self, rng):
        logits = rng.standard_normal((1, 4, 6))
        targets = rng.integers(0, 6, (1, 4))
        mask = np.array([[True, False, False, False]])
        expected = model.mlm_loss(logits[:, :1], targets[:, :1],
                                  np.ones((1, 1), dtype=bool))
        assert abs(model.mlm_loss(logits, targets, mask) - expected) <= 1e-12


class TestTraining:
    def _batch(self, rng, bc, n=6, b=2):
        ids = rng.integers(0, bc.vocab_size, (b, n))
        targets = rng.integers(0, bc.vocab_size, (b, n))
        mask = np.ones((b, n), dtype=bool)
        return ids, targets, mask, None

    @pytest.mark.parametrize("decoder", [False, True], ids=["encoder", "decoder"])
    @pytest.mark.parametrize("kind", [dict(groups=1), dict(groups=2),
                                      dict(attention="token", heads=2)],
                             ids=["dim-g1", "dim-g2", "token"])
    def test_every_parameter_gets_one_gradient(self, rng, kind, decoder):
        # adam_update reads grads[name] for every parameter
        bc = tiny_config(layers=2, **kind)
        params = model.init_params(bc, 0)
        ids, targets, mask, _ = self._batch(rng, bc)
        _, grads = model.loss_and_grads(params, ids, targets, mask, bc, decoder=decoder)
        assert sorted(grads) == sorted(params)
        assert all(grads[name].shape == p.shape for name, p in params.items())

    def test_zero_lr_keeps_params(self, rng):
        bc = tiny_config(seed=0, batch_size=2, steps=1, lr=0.0, warmup=10,
                         eval_interval=1)
        params = model.init_params(bc, 0)
        before = {k: v.copy() for k, v in params.items()}
        model.train_step(self._batch(rng, bc), params, model.AdamState(), bc, 0)
        assert all(np.array_equal(before[k], params[k]) for k in params)

    def test_single_batch_overfit(self, corpus_path):
        vocab, ids = data.build_corpus(corpus_path, "char")
        win, pad = data.windows(ids[:32], 32)
        batch = data.mlm_batch(win, pad, vocab.size, 0, 0, 1)
        bc = RunConfig(vocab_size=vocab.size, d_model=32, layers=1,
                       attention="dim", groups=1, convs=2, head_dim=16,
                       ffn_width=64, seq_len=32, dropout=0.0, seed=0,
                       batch_size=1, steps=200, lr=3e-3, warmup=20, eval_interval=50)
        params = model.init_params(bc, 0)
        state = model.AdamState()
        loss = None
        for step in range(200):
            loss = model.train_step(
                (batch.inputs, batch.targets, batch.mask, batch.pad),
                params, state, bc, step)
        assert loss < 0.1

    def test_same_seed_same_trajectory(self, rng):
        bc = tiny_config(dropout=0.1, seed=3, batch_size=2, steps=5, lr=1e-3,
                         warmup=3, eval_interval=5)
        batch = self._batch(rng, bc)

        def run():
            params = model.init_params(bc, bc.seed)
            state = model.AdamState()
            return [model.train_step(batch, params, state, bc, s)
                    for s in range(5)]

        assert run() == run()

    def test_non_finite_loss_aborts(self, rng):
        bc = tiny_config(seed=0, batch_size=2, steps=1, lr=1e-3, warmup=1,
                         eval_interval=1)
        params = model.init_params(bc, 0)
        params["embed"][:] = 1e200
        with pytest.raises(FloatingPointError, match="step 0"):
            with np.errstate(invalid="ignore", over="ignore"):
                model.train_step(self._batch(rng, bc), params, model.AdamState(),
                                 bc, 0)

    def test_random_labels_keep_loss_at_chance(self):
        # nothing to learn from uniform noise: after warmup the masked NLL
        # must stay at >= 0.9 ln V (no leakage through the masking pipeline)
        vocab_size = 20
        stream = make_rng(77).integers(5, vocab_size, 6400)
        win, pad = data.windows(stream, 16)
        bc = RunConfig(vocab_size=vocab_size, d_model=16, layers=1,
                       attention="dim", groups=1, convs=2, head_dim=8,
                       ffn_width=32, seq_len=16, dropout=0.0, seed=1,
                       batch_size=4, steps=120, lr=1e-3, warmup=30, eval_interval=40)
        params = model.init_params(bc, 1)
        state = model.AdamState()
        tail = []
        for step in range(120):
            b = data.mlm_batch(win, pad, vocab_size, bc.seed, step, bc.batch_size)
            loss = model.train_step((b.inputs, b.targets, b.mask, b.pad),
                                    params, state, bc, step)
            if step >= 60:
                tail.append(loss)
        assert np.mean(tail) >= 0.9 * math.log(vocab_size)


class TestAdam:
    def test_schedule_shape(self):
        assert model.lr_schedule(1.0, 200, 400) == pytest.approx(0.5)
        assert model.lr_schedule(1.0, 400, 400) == pytest.approx(1.0)
        assert model.lr_schedule(1.0, 1600, 400) == pytest.approx(0.5)

    def test_clip_global_norm(self, rng):
        grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
        norm = model.clip_global_norm(grads, max_norm=1.0)
        assert norm == pytest.approx(math.sqrt(4 * 9 + 9 * 16))
        total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total == pytest.approx(1.0)

    def test_bad_betas_rejected(self):
        with pytest.raises(ValueError, match="betas"):
            RunConfig(beta1=1.0)

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_update_matches_one_line_formula(self, precision):
        # the one-line update adam_update replaced, bit for bit; the
        # gradients are read-only, so a write into one raises
        cfg = RunConfig(lr=0.01, warmup=2, precision=precision)
        r = make_rng(61)
        params = {"w": r.standard_normal((40, 30)).astype(cfg.dtype),
                  "b": r.standard_normal(30).astype(cfg.dtype)}
        ref = {k: p.copy() for k, p in params.items()}
        ref_m = {k: np.zeros_like(p) for k, p in params.items()}
        ref_v = {k: np.zeros_like(p) for k, p in params.items()}
        state = model.AdamState()
        for t in range(1, 4):
            grads = {k: r.standard_normal(p.shape).astype(cfg.dtype)
                     for k, p in params.items()}
            for g in grads.values():
                g.flags.writeable = False
            model.adam_update(params, grads, state, cfg)
            lr = model.lr_schedule(cfg.lr, t, cfg.warmup)
            bc1 = 1.0 - cfg.beta1 ** t
            bc2 = 1.0 - cfg.beta2 ** t
            for k, g in grads.items():
                p, m, v = ref[k], ref_m[k], ref_v[k]
                m *= cfg.beta1
                m += (1.0 - cfg.beta1) * g
                v *= cfg.beta2
                v += (1.0 - cfg.beta2) * g * g
                p -= lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
            for k in params:
                for got, want in ((params[k], ref[k]), (state.m[k], ref_m[k]),
                                  (state.v[k], ref_v[k])):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        bc = tiny_config()
        params = model.init_params(bc, 0)
        path = tmp_path / "model.ckpt"
        checkpoint.save_checkpoint(path, params, {"layers": 1, "note": "t"})
        loaded, cfg = checkpoint.load_checkpoint(path)
        assert cfg == {"layers": 1, "note": "t"}
        assert sorted(loaded) == sorted(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name])
            assert loaded[name].dtype == params[name].dtype

    def test_loaded_params_update_in_place(self, tmp_path, rng):
        params = {"w": rng.standard_normal((3, 2)),
                  "b": rng.standard_normal(2).astype(np.float32)}
        path = tmp_path / "p.ckpt"
        checkpoint.save_checkpoint(path, params, {})
        loaded, _ = checkpoint.load_checkpoint(path)
        loaded["w"] -= 1.0
        loaded["b"] *= 2.0
        assert np.array_equal(loaded["w"], params["w"] - 1.0)
        checkpoint.save_checkpoint(path, loaded, {})
        again, _ = checkpoint.load_checkpoint(path)
        for name in loaded:
            assert again[name].dtype == loaded[name].dtype
            assert again[name].tobytes() == loaded[name].tobytes()

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        params = {"w": rng.standard_normal((7, 3)),
                  "b": rng.standard_normal(3).astype(np.float32)}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        checkpoint.save_checkpoint(p1, params, {"x": 1})
        loaded, cfg = checkpoint.load_checkpoint(p1)
        checkpoint.save_checkpoint(p2, loaded, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_validated(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTCKPTxxxxxxx")
        with pytest.raises(ValueError, match="magic"):
            checkpoint.load_checkpoint(path)

    def test_offsets_are_absolute(self, tmp_path, rng):
        import json
        import struct
        params = {"m": rng.standard_normal((4, 4))}
        path = tmp_path / "c.ckpt"
        checkpoint.save_checkpoint(path, params, {})
        blob = path.read_bytes()
        (mlen,) = struct.unpack_from("<Q", blob, 6)
        manifest = json.loads(blob[14: 14 + mlen])
        entry = manifest["tensors"][0]
        raw = blob[entry["offset"]: entry["offset"] + entry["nbytes"]]
        assert np.array_equal(np.frombuffer(raw, "<f8").reshape(4, 4), params["m"])
