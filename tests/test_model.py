import math

import numpy as np
import pytest

from dimattn import attention, checkpoint, data, model
from dimattn.tensor import make_rng


def tiny_config(**over):
    base = dict(vocab_size=11, d_model=8, layers=1, attention="dim", groups=1,
                convs=2, head_dim=4, ffn_width=16, n_max=6, dropout=0.0)
    base.update(over)
    return model.BlockConfig(**base)


class TestForward:
    def test_no_layers_degenerate(self, rng):
        bc = tiny_config(layers=0)
        params = model.init_params(bc, 0)
        ids = rng.integers(0, 11, 4)
        logits = model.encoder_forward(ids, params, bc)
        x = params["embed"][ids] * math.sqrt(bc.d_model) \
            + model.sinusoidal_positions(bc.n_max, bc.d_model)[:4]
        assert np.allclose(logits, x @ params["embed"].T, atol=1e-12)

    def test_compositional_oracle(self, rng):
        # one layer, identity projections: the encoder must equal the same
        # pipeline hand-composed around the materialized-tensor oracle
        bc = tiny_config(d_model=4, head_dim=4, convs=1, ffn_width=8, n_max=2)
        params = model.init_params(bc, 1)
        params["l0.attn.wq0"] = np.eye(4)
        params["l0.attn.wk0"] = np.eye(4)
        params["l0.attn.wv0"] = np.eye(4)
        params["l0.attn.wo"] = np.eye(4)
        ids = rng.integers(0, 11, 2)
        logits = model.encoder_forward(ids, params, bc)

        def layer_norm(x, gamma, beta, eps=1e-6):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            return gamma * (x - mu) / np.sqrt(var + eps) + beta

        x0 = params["embed"][ids] * 2.0 \
            + model.sinusoidal_positions(bc.n_max, bc.d_model)[:2]
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
        a = model.encoder_forward(ids, model.init_params(bc, 5), bc)
        b = model.encoder_forward(ids, model.init_params(bc, 5), bc)
        assert np.array_equal(a, b)

    def test_out_of_vocab_rejected(self, rng):
        bc = tiny_config()
        params = model.init_params(bc, 0)
        with pytest.raises(ValueError, match="out of range"):
            model.encoder_forward(np.array([0, 11]), params, bc)

    def test_overlong_sequence_rejected(self, rng):
        bc = tiny_config()
        params = model.init_params(bc, 0)
        with pytest.raises(ValueError, match="exceeds"):
            model.encoder_forward(np.zeros(7, dtype=int), params, bc)


class TestDecoder:
    def test_perturb_last_token(self, rng):
        bc = tiny_config(layers=2)
        params = model.init_params(bc, 2)
        ids = rng.integers(0, 11, 6)
        ids2 = ids.copy()
        ids2[5] = (ids2[5] + 3) % 11
        a = model.decoder_forward(ids, params, bc)
        b = model.decoder_forward(ids2, params, bc)
        assert np.abs(a[:5] - b[:5]).max() <= 1e-12

    def test_position_zero_sees_only_itself(self, rng):
        bc = tiny_config()
        params = model.init_params(bc, 3)
        ids = rng.integers(0, 11, 6)
        ids2 = ids.copy()
        ids2[1:] = (ids2[1:] + 1) % 11
        a = model.decoder_forward(ids, params, bc)
        b = model.decoder_forward(ids2, params, bc)
        assert np.abs(a[0] - b[0]).max() <= 1e-12

    def test_token_kind_decoder_is_causal_too(self, rng):
        bc = tiny_config(attention="token", heads=2)
        params = model.init_params(bc, 4)
        ids = rng.integers(0, 11, 6)
        ids2 = ids.copy()
        ids2[4:] = (ids2[4:] + 5) % 11
        a = model.decoder_forward(ids, params, bc)
        b = model.decoder_forward(ids2, params, bc)
        assert np.abs(a[:4] - b[:4]).max() <= 1e-12

    def test_streaming_matches_naive_composition(self, rng):
        # one dim layer: swap the attention sublayer for the loop-oracle form
        from dimattn import masked
        bc = tiny_config(layers=1, convs=1)
        params = model.init_params(bc, 6)
        ids = rng.integers(0, 11, 5)
        logits = model.decoder_forward(ids, params, bc)

        def layer_norm(x, gamma, beta, eps=1e-6):
            mu = x.mean(axis=-1, keepdims=True)
            var = x.var(axis=-1, keepdims=True)
            return gamma * (x - mu) / np.sqrt(var + eps) + beta

        x0 = params["embed"][ids] * math.sqrt(8) \
            + model.sinusoidal_positions(bc.n_max, 8)[:5]
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
        bt = tiny_config(attention="token", heads=2, layers=2)
        bd = tiny_config(attention="dim", layers=2)
        lt, _ = model.forward(model.init_params(bt, 9), ids, bt, zero_attention=True)
        ld, _ = model.forward(model.init_params(bd, 9), ids, bd, zero_attention=True)
        assert np.array_equal(lt, ld)


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

    def test_zero_lr_keeps_params(self, rng):
        bc = tiny_config()
        tc = model.TrainConfig(seed=0, batch_size=2, steps=1, lr=0.0, warmup=10,
                               eval_interval=1)
        params = model.init_params(bc, 0)
        before = {k: v.copy() for k, v in params.items()}
        model.train_step(self._batch(rng, bc), params, model.AdamState(), bc, tc, 0)
        assert all(np.array_equal(before[k], params[k]) for k in params)

    def test_single_batch_overfit(self, corpus_path):
        vocab, ids = data.build_corpus(corpus_path, "char")
        win, pad = data.windows(ids[:32], 32)
        batch = data.mlm_batch(win, pad, vocab.size, 0, 0, 1)
        bc = model.BlockConfig(vocab_size=vocab.size, d_model=32, layers=1,
                               attention="dim", groups=1, convs=2, head_dim=16,
                               ffn_width=64, n_max=32, dropout=0.0)
        tc = model.TrainConfig(seed=0, batch_size=1, steps=200, lr=3e-3,
                               warmup=20, eval_interval=50)
        params = model.init_params(bc, 0)
        state = model.AdamState()
        loss = None
        for step in range(200):
            loss = model.train_step(
                (batch.inputs, batch.targets, batch.mask, batch.pad),
                params, state, bc, tc, step)
        assert loss < 0.1

    def test_same_seed_same_trajectory(self, rng):
        bc = tiny_config(dropout=0.1)
        tc = model.TrainConfig(seed=3, batch_size=2, steps=5, lr=1e-3, warmup=3,
                               eval_interval=5)
        batch = self._batch(rng, bc)

        def run():
            params = model.init_params(bc, tc.seed)
            state = model.AdamState()
            return [model.train_step(batch, params, state, bc, tc, s)
                    for s in range(5)]

        assert run() == run()

    def test_non_finite_loss_aborts(self, rng):
        bc = tiny_config()
        params = model.init_params(bc, 0)
        params["embed"][:] = 1e200
        tc = model.TrainConfig(seed=0, batch_size=2, steps=1, lr=1e-3, warmup=1,
                               eval_interval=1)
        with pytest.raises(FloatingPointError, match="step 0"):
            with np.errstate(invalid="ignore", over="ignore"):
                model.train_step(self._batch(rng, bc), params, model.AdamState(),
                                 bc, tc, 0)

    def test_random_labels_keep_loss_at_chance(self):
        # nothing to learn from uniform noise: after warmup the masked NLL
        # must stay at >= 0.9 ln V (no leakage through the masking pipeline)
        vocab_size = 20
        stream = make_rng(77).integers(5, vocab_size, 6400)
        win, pad = data.windows(stream, 16)
        bc = model.BlockConfig(vocab_size=vocab_size, d_model=16, layers=1,
                               attention="dim", groups=1, convs=2, head_dim=8,
                               ffn_width=32, n_max=16, dropout=0.0)
        tc = model.TrainConfig(seed=1, batch_size=4, steps=120, lr=1e-3,
                               warmup=30, eval_interval=40)
        params = model.init_params(bc, 1)
        state = model.AdamState()
        tail = []
        for step in range(120):
            b = data.mlm_batch(win, pad, vocab_size, tc.seed, step, tc.batch_size)
            loss = model.train_step((b.inputs, b.targets, b.mask, b.pad),
                                    params, state, bc, tc, step)
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
            model.TrainConfig(beta1=1.0)


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
