"""Encoder/decoder blocks, losses, Adam, and the training step.

Architecture follows the original post-layer-norm transformer layout; only
the attention sublayer differs between the two families:

    x   = embed(ids) * sqrt(d_model) + sinusoidal positions
    for each layer:
        x = LN1(x + dropout(attention(x)))
        x = LN2(x + dropout(ffn(x)))
    logits = x @ embedding^T

The output head is always tied to the embedding and positions are always
the fixed sinusoids; neither has parameters of its own.

attention is either multi-head token attention or grouped multi-filter
dimension-wise attention; the decoder uses the causal variants (prefix-sum
streaming for dimension-wise).  Parameters live in a flat name -> array
dict; every parameter is initialized from its own Philox stream keyed by
(seed, crc32(name)) so models that share non-attention parameters get
identical values for them regardless of attention kind.

The backward pass is written out explicitly: forward stores per-layer tape
nodes and `backward_from_cache` walks them in reverse.

Every function takes the one `config.RunConfig`: the model reads its shape
fields (`vocab_size` set from the corpus, `seq_len` as the longest
sequence), Adam and the training step its optimizer fields.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import grad
from .config import RunConfig
from .tensor import derived_rng

_STREAM_DROPOUT = 0xD0


def sinusoidal_positions(n_max: int, d_model: int) -> np.ndarray:
    pos = np.arange(n_max, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)
    div = np.exp(-math.log(10000.0) * idx / d_model)
    pe = np.zeros((n_max, d_model))
    pe[:, 0::2] = np.sin(pos * div)
    pe[:, 1::2] = np.cos(pos * div[: d_model // 2])
    return pe


@functools.lru_cache(maxsize=8)
def _position_table(n_max: int, d_model: int, dtype) -> np.ndarray:
    """sinusoidal_positions in the model's dtype, computed once per shape;
    read-only, since every forward pass shares it."""
    pe = sinusoidal_positions(n_max, d_model).astype(dtype)
    pe.flags.writeable = False
    return pe


def _param_specs(cfg: RunConfig):
    """Ordered (name, shape, init) triples.  init is "embed", "ones" or
    "zeros", or for a weight its xavier block (fan_in, fan_out): the tensor
    is drawn uniform within sqrt(6 / (fan_in + fan_out)), so the fused q|k|v
    projection starts as three side-by-side [d_model, d_model] xavier
    blocks and a filter stack [c, d, d] as c xavier [d, d] filters."""
    dm, ffn = cfg.d_model, cfg.ffn_width
    specs = [("embed", (cfg.vocab_size, dm), "embed")]
    for i in range(cfg.layers):
        p = f"l{i}."
        if cfg.attention == "token":
            specs += [
                (p + "attn.wqkv", (dm, 3 * dm), (dm, dm)),
                (p + "attn.wo", (dm, dm), (dm, dm)),
            ]
        else:
            d = cfg.head_dim
            for g in range(cfg.groups):
                specs += [
                    (p + f"attn.wq{g}", (dm, d), (dm, d)),
                    (p + f"attn.wk{g}", (dm, d), (dm, d)),
                    (p + f"attn.wv{g}", (dm, d), (dm, d)),
                    (p + f"attn.filters{g}", (cfg.convs, d, d), (d, d)),
                ]
            wo = (cfg.groups * cfg.convs * d, dm)
            specs.append((p + "attn.wo", wo, wo))
        specs += [
            (p + "ln1.gamma", (dm,), "ones"),
            (p + "ln1.beta", (dm,), "zeros"),
            (p + "ffn.w1", (dm, ffn), (dm, ffn)),
            (p + "ffn.b1", (ffn,), "zeros"),
            (p + "ffn.w2", (ffn, dm), (ffn, dm)),
            (p + "ffn.b2", (dm,), "zeros"),
            (p + "ln2.gamma", (dm,), "ones"),
            (p + "ln2.beta", (dm,), "zeros"),
        ]
    return specs


def init_params(cfg: RunConfig, seed: int) -> dict:
    params = {}
    for name, shape, init in _param_specs(cfg):
        rng = derived_rng(seed, zlib.crc32(name.encode()))
        if isinstance(init, tuple):
            bound = math.sqrt(6.0 / sum(init))
            arr = rng.uniform(-bound, bound, size=shape)
        elif init == "embed":
            # the forward pass scales embeddings by sqrt(d_model), so rows
            # come out at unit scale next to the O(1) positional encodings
            arr = rng.normal(0.0, 1.0 / math.sqrt(cfg.d_model), size=shape)
        elif init == "ones":
            arr = np.ones(shape)
        else:
            arr = np.zeros(shape)
        params[name] = arr.astype(cfg.dtype)
    return params


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def _split_heads(x, h):
    b, n, hd = x.shape
    d = hd // h
    return x.reshape(b, n, h, d).transpose(0, 2, 1, 3).reshape(b * h, n, d)


def _merge_heads(x, b, h):
    bh, n, d = x.shape
    return x.reshape(b, h, n, d).transpose(0, 2, 1, 3).reshape(b, n, h * d)


def forward(params, ids, cfg: RunConfig, decoder=False, train=False,
            drop_rng=None, pad=None, rows=None):
    """Run the model; returns (logits, cache) with cache holding the tape.

    ids is an int array [B, N]; pad is an optional bool array [B, N]
    marking padding positions (excluded from attention).  One sequence
    is a batch of one, ids[None].

    rows is an optional bool array [B, N] marking the positions whose
    logits are read; the logits are then [rows.sum(), V] in row-major
    order.  Everything after the last layer's attention is row-wise, so
    that layer gathers the rows right after its attention, whose keys and
    values still see every position, and runs the rest on them alone.
    The logits are bitwise those rows of the full [B, N, V] wherever BLAS
    sums each row of a product of fewer rows in the same order.  With
    OpenBLAS at the configs/tiny-*.cfg widths and N = 100, the loss and
    every gradient equal the all-rows ones bitwise at B = 8, 4 and 2 (200
    to 50 loss rows); at B = 1 (25 rows) all differ in the last bits.
    """
    ids = np.asarray(ids)
    if pad is not None and not np.any(pad):
        pad = None  # nothing to mask: skip the q/k and score masking
    b, n = ids.shape
    if n > cfg.seq_len:
        raise ValueError(f"sequence length {n} exceeds seq_len {cfg.seq_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError(
            f"token id out of range [0, {cfg.vocab_size}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    use_dropout = train and cfg.dropout > 0.0
    if use_dropout and drop_rng is None:
        raise ValueError("training with dropout requires a dropout rng")
    if rows is not None:
        rows = np.asarray(rows, dtype=bool)
    cache = {"cfg": cfg, "ids": ids, "decoder": decoder, "layers": [],
             "rows": rows}

    emb, emb_node = grad.embed_fwd(params["embed"], ids)
    emb_scale = math.sqrt(cfg.d_model)
    x = emb * emb_scale
    x += _position_table(cfg.seq_len, cfg.d_model, cfg.dtype)[:n]
    cache["embed_node"] = emb_node
    cache["emb_scale"] = emb_scale

    keep = None
    if pad is not None:
        keep = (~np.asarray(pad, dtype=bool)).astype(x.dtype)

    for i in range(cfg.layers):
        p = f"l{i}."
        lc = {"prefix": p, "rows": None}
        if cfg.attention == "token":
            h = cfg.heads
            qkv, lc["nqkv"] = grad.linear_fwd(x, params[p + "attn.wqkv"])
            # columns (q|k|v, head, j) -> [q|k|v, B*h, N, d]
            qkv = (qkv.reshape(b, n, 3, h, -1).transpose(2, 0, 3, 1, 4)
                   .reshape(3, b * h, n, -1))
            key_pad = None if pad is None else np.repeat(pad, h, axis=0)
            o, lc["nattn"] = grad.token_attention_fwd(*qkv, causal=decoder,
                                                      key_pad=key_pad)
            concat = _merge_heads(o, b, h)
        else:
            outs, groups = [], []
            for g in range(cfg.groups):
                gc = {}
                q, gc["nq"] = grad.linear_fwd(x, params[p + f"attn.wq{g}"])
                k, gc["nk"] = grad.linear_fwd(x, params[p + f"attn.wk{g}"])
                v, gc["nv"] = grad.linear_fwd(x, params[p + f"attn.wv{g}"])
                if keep is not None:
                    q = q * keep[:, :, None]
                    k = k * keep[:, :, None]
                ws = params[p + f"attn.filters{g}"]
                if decoder:
                    o, gc["nattn"] = grad.masked_attention_multi_fwd(q, k, v, ws)
                else:
                    o, gc["nattn"] = grad.dim_attention_multi_fwd(
                        q, k, v, ws, mode=cfg.norm_mode)
                outs.append(o)
                groups.append(gc)
            concat = np.concatenate(outs, axis=2) if len(outs) > 1 else outs[0]
            lc["groups"] = groups
        if rows is not None and i == cfg.layers - 1:
            x, concat = x[rows], concat[rows]
            lc["rows"] = rows
        a, lc["no"] = grad.linear_fwd(concat, params[p + "attn.wo"])
        if use_dropout:
            a, lc["ndrop1"] = grad.dropout_fwd(a, cfg.dropout, drop_rng, lc["rows"])
        x1, lc["nln1"] = grad.layer_norm_fwd(x + a, params[p + "ln1.gamma"],
                                             params[p + "ln1.beta"])

        h1, lc["nff1"] = grad.linear_fwd(x1, params[p + "ffn.w1"], params[p + "ffn.b1"])
        r, lc["nrelu"] = grad.relu_fwd(h1)
        f, lc["nff2"] = grad.linear_fwd(r, params[p + "ffn.w2"], params[p + "ffn.b2"])
        if use_dropout:
            f, lc["ndrop2"] = grad.dropout_fwd(f, cfg.dropout, drop_rng, lc["rows"])
        x, lc["nln2"] = grad.layer_norm_fwd(x1 + f, params[p + "ln2.gamma"],
                                            params[p + "ln2.beta"])
        cache["layers"].append(lc)

    # the tied head as one 2-D product, which reaches BLAS
    logits = (x.reshape(-1, cfg.d_model) @ params["embed"].T).reshape(
        x.shape[:-1] + (-1,))
    cache["x_final"] = x
    cache["head"] = params["embed"]
    return logits, cache


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward_from_cache(cache, dlogits) -> dict:
    """Parameter gradients for a forward pass, given d(loss)/d(logits)."""
    cfg = cache["cfg"]
    head, x_final, rows = cache["head"], cache["x_final"], cache["rows"]
    dx = (dlogits.reshape(-1, head.shape[0]) @ head).reshape(x_final.shape)
    if rows is not None:
        # the head's term over every row, as linear_bwd computes dW
        dlogits, x_final = grad.scatter_rows(dlogits, rows), grad.scatter_rows(x_final, rows)
    # the tied head's term; the table term is added last
    grads = {"embed": dlogits.reshape(-1, head.shape[0]).T
             @ x_final.reshape(-1, head.shape[1])}

    for lc in reversed(cache["layers"]):
        p, r = lc["prefix"], lc["rows"]
        g2 = grad.layer_norm_bwd(lc["nln2"], dx)
        grads[p + "ln2.gamma"] = g2["gamma"]
        grads[p + "ln2.beta"] = g2["beta"]
        dres2 = g2["x"]  # gradient of x1 + f
        df = dres2
        if "ndrop2" in lc:
            df = grad.dropout_bwd(lc["ndrop2"], df)["x"]
        gf2 = grad.linear_bwd(lc["nff2"], df, r)
        grads[p + "ffn.w2"] = gf2["w"]
        grads[p + "ffn.b2"] = gf2["b"]
        dr = grad.relu_bwd(lc["nrelu"], gf2["x"])["x"]
        gf1 = grad.linear_bwd(lc["nff1"], dr, r)
        grads[p + "ffn.w1"] = gf1["w"]
        grads[p + "ffn.b1"] = gf1["b"]
        dx1 = dres2 + gf1["x"]

        g1 = grad.layer_norm_bwd(lc["nln1"], dx1)
        grads[p + "ln1.gamma"] = g1["gamma"]
        grads[p + "ln1.beta"] = g1["beta"]
        # gradient of x + a; the attention input terms are added to it
        # once da, which may be this same array, has been consumed
        dx = g1["x"]
        da = dx
        if "ndrop1" in lc:
            da = grad.dropout_bwd(lc["ndrop1"], da)["x"]
        go = grad.linear_bwd(lc["no"], da, r)
        grads[p + "attn.wo"] = go["w"]
        dconcat = go["x"]
        if r is not None:
            # back to every position for the attention and the residual path
            dx, dconcat = grad.scatter_rows(dx, r), grad.scatter_rows(dconcat, r)
        if cfg.attention == "token":
            b, n, dm = dconcat.shape
            h = cfg.heads
            ga = grad.token_attention_bwd(lc["nattn"], _split_heads(dconcat, h))
            # dq|dk|dv straight into the fused projection's column layout
            dqkv = np.empty((b, n, 3, h, dm // h), dtype=dconcat.dtype)
            for j, t in enumerate("qkv"):
                dqkv[:, :, j] = ga[t].reshape(b, h, n, -1).transpose(0, 2, 1, 3)
            gl = grad.linear_bwd(lc["nqkv"], dqkv.reshape(b, n, 3 * dm))
            grads[p + "attn.wqkv"] = gl["w"]
            dx += gl["x"]
            # kept alive, they would raise the peak during the next layer's
            # attention backward
            del ga, dqkv, gl
        else:
            # forward zeroed q and k at padded positions, so their
            # gradients there are already zero
            width = cfg.convs * cfg.head_dim
            for g, gc in enumerate(lc["groups"]):
                du = dconcat[:, :, g * width:(g + 1) * width]
                ga = (grad.masked_attention_multi_bwd if cache["decoder"]
                      else grad.dim_attention_multi_bwd)(gc["nattn"], du)
                grads[p + f"attn.filters{g}"] = ga["ws"]
                for t in ("q", "k", "v"):
                    gl = grad.linear_bwd(gc["n" + t], ga[t])
                    grads[p + f"attn.w{t}{g}"] = gl["w"]
                    dx += gl["x"]

    ge = grad.embed_bwd(cache["embed_node"], dx * cache["emb_scale"])
    grads["embed"] += ge["table"]
    return grads


def mlm_loss(logits, targets, mask_positions) -> float:
    """Mean NLL of the original tokens over masked positions only."""
    loss, _ = grad.cross_entropy_masked_fwd(logits, targets, mask_positions)
    return loss


def loss_rows(loss_mask):
    """The positions whose logits the encoder computes for a loss over
    `loss_mask` [B, N]: the masked ones, then the first others up to a
    quarter of all.

    The masked-LM loss reads about 15% of the positions, a count that
    varies from batch to batch.  Arrays of varying size left holes in the
    heap that the next step's full-size arrays could not reuse, so steps
    page-faulted; a fixed count gives every step blocks of the same sizes.
    """
    loss_mask = np.asarray(loss_mask, dtype=bool)
    extra = loss_mask.size // 4 - np.count_nonzero(loss_mask)
    other = ~loss_mask
    return loss_mask | (other & (np.cumsum(other).reshape(other.shape) <= extra))


def loss_and_grads(params, ids, targets, loss_mask, cfg: RunConfig,
                   decoder=False, train=False, drop_rng=None, pad=None):
    """Masked-LM or causal loss and every parameter gradient.  The encoder
    computes logits at `loss_rows` only; the causal loss reads every
    position but the last, so the decoder computes them all."""
    rows = None
    if not decoder:
        rows = loss_rows(loss_mask)
        targets, loss_mask = np.asarray(targets)[rows], np.asarray(loss_mask)[rows]
    logits, cache = forward(params, ids, cfg, decoder=decoder, train=train,
                            drop_rng=drop_rng, pad=pad, rows=rows)
    loss, loss_node = grad.cross_entropy_masked_fwd(logits, targets, loss_mask)
    dlogits = grad.cross_entropy_masked_bwd(loss_node, 1.0)["logits"]
    return loss, backward_from_cache(cache, dlogits)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def lr_schedule(base_lr: float, step: int, warmup: int) -> float:
    """Linear warmup to base_lr, then inverse-sqrt decay (step counts from 1)."""
    return base_lr * min(step / warmup, math.sqrt(warmup / step))


def clip_global_norm(grads: dict, max_norm: float) -> float:
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def adam_update(params: dict, grads: dict, state: AdamState, cfg: RunConfig):
    state.t += 1
    lr = lr_schedule(cfg.lr, state.t, cfg.warmup)
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        scratch = (1.0 - cfg.beta2) * g
        scratch *= g
        v += scratch
        # lr * (m / bc1) / (sqrt(v / bc2) + eps), in that order
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += cfg.eps
        step = m / bc1
        step *= lr
        step /= scratch
        p -= step


def train_step(batch, params, state: AdamState, cfg: RunConfig, step: int,
               decoder=False) -> float:
    """One optimization step; deterministic given (seed, step).  Returns loss."""
    ids, targets, loss_mask, pad = batch
    drop_rng = derived_rng(cfg.seed, _STREAM_DROPOUT, step) if cfg.dropout > 0 else None
    loss, grads = loss_and_grads(params, ids, targets, loss_mask, cfg,
                                 decoder=decoder, train=True, drop_rng=drop_rng,
                                 pad=pad)
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss {loss!r} at step {step}")
    clip_global_norm(grads, cfg.clip)
    adam_update(params, grads, state, cfg)
    return loss
