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
nodes and `backward_from_cache` pops them node by node in reverse, so an
array lives only while something reads it.  No node keeps a layer's input
or a layer norm's output: the backward rebuilds each, bitwise, right before
the product that reads it (`_layer_input`, `grad.layer_norm_out`).  The dim
encoder's `attn.wo` node keeps no input at all: each core's backward takes
its gradient in d-space (`grad.dim_attention_multi_bwd`).  The
model writes in place only into arrays it owns and reads no more: a
sublayer's fresh output takes its residual (`a += x`), and by grad's `out=`
convention `relu_bwd(..., out=u)` runs in the upstream gradient.

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


def forward(params, ids, cfg: RunConfig, decoder=False, drop_rng=None,
            pad=None, rows=None):
    """Run the model; returns (logits, cache) with cache holding the tape.

    ids is an int array [B, N]; pad is an optional bool array [B, N]
    marking padding positions (excluded from attention).  One sequence
    is a batch of one, ids[None].  Dropout runs exactly when a generator
    `drop_rng` is given and cfg.dropout > 0: a training step passes one,
    evaluation none.

    rows is an optional bool array [B, N] marking the positions whose
    logits are read, the same count in every window (otherwise
    ValueError); the logits are then [rows.sum(), V] in row-major order.
    Output row i of attention reads query row i only, and everything
    after the attention core is row-wise, so the last layer runs on those
    rows alone from its core on.  A token layer gathers them as its query
    rows and scores only them against every key.  A dim layer projects V
    at those rows, and its core makes the output there; its scores
    S = Q^T K still sum over every position.  The causal token core
    takes no block of query rows, so the decoder takes no `rows`.
    The logits are bitwise those rows of the full [B, N, V] wherever BLAS
    sums each row of a product of fewer rows in the same order: with
    OpenBLAS at the configs/tiny-*.cfg widths and N = 100, at B = 8, 4
    and 2 (200 to 50 loss rows), not at B = 1 (25 rows).  The backward
    sums the last layer's weight gradients and the head's over those rows
    alone, and a dim core's backward takes its upstream there, with no
    [B, N, c*d] scatter; so with dropout off the gradients agree with the
    all-rows ones to rounding, not bitwise; with dropout on, each of the
    last layer's masks is drawn for its gathered elements only.
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
    drop_rng = drop_rng if cfg.dropout > 0.0 else None  # nothing to drop, nothing drawn
    if rows is not None:
        if decoder:
            raise ValueError("the decoder reads every position: it takes no rows")
        rows = np.asarray(rows, dtype=bool)
        counts = np.count_nonzero(rows, axis=-1)
        if rows.shape != ids.shape or counts.min() != counts.max():
            raise ValueError(f"rows must mark the same number of positions in "
                             f"each window of the [{b}, {n}] batch")
    cache = {"cfg": cfg, "decoder": decoder, "layers": [], "head": params["embed"]}

    # one name for the stream: each array is freed once the next is made
    x, cache["embed_node"] = grad.embed_fwd(params["embed"], ids)
    x = _embedded(x, cfg)
    for i in range(cfg.layers):
        p = f"l{i}."
        lc = {"prefix": p, "rows": rows if i == cfg.layers - 1 else None}
        x = _attention_fwd(params, x, lc, cfg, decoder, pad, drop_rng)
        x, lc["nln1"] = grad.layer_norm_fwd(x, params[p + "ln1.gamma"], params[p + "ln1.beta"])
        x = _ffn_fwd(params, x, lc, cfg, drop_rng)
        x, lc["nln2"] = grad.layer_norm_fwd(x, params[p + "ln2.gamma"], params[p + "ln2.beta"])
        cache["layers"].append(lc)

    # the tied head as one 2-D product, which reaches BLAS
    return (x.reshape(-1, cfg.d_model) @ params["embed"].T).reshape(
        x.shape[:-1] + (-1,)), cache


def _embedded(emb, cfg: RunConfig):
    """The first layer's input emb * sqrt(d_model) + positions, in emb."""
    emb *= math.sqrt(cfg.d_model)
    emb += _position_table(cfg.seq_len, cfg.d_model, cfg.dtype)[:emb.shape[1]]
    return emb


def _linear_of_rebuilt(x, w, b=None):
    """linear_fwd whose node keeps no x: the backward rebuilds it, or
    needs none."""
    out, node = grad.linear_fwd(x, w, b)
    del node.saved["x"]
    return out, node


def _layer_input(cache, i):
    """Layer i's input, rebuilt bitwise from the embed or layer-norm node
    that made it; parameters do not change before the backward."""
    if i:
        return grad.layer_norm_out(cache["layers"][i - 1]["nln2"])
    return _embedded(cache["head"][cache["embed_node"].saved["ids"]], cache["cfg"])


def _token_core_fwd(params, x, lc, cfg: RunConfig, decoder, pad):
    """Multi-head token attention of x [B, N, d_model], heads merged."""
    b, n, dm = x.shape
    h = cfg.heads
    qkv, lc["nqkv"] = _linear_of_rebuilt(x, params[lc["prefix"] + "attn.wqkv"])
    qkv = qkv.reshape(b, n, 3, dm)
    q = qkv[:, :, 0]
    if lc["rows"] is not None:
        q = q[lc["rows"]].reshape(b, -1, dm)
    # columns (k|v, head, j) -> [k|v, B*h, N, d]
    k, v = (qkv[:, :, 1:].reshape(b, n, 2, h, -1).transpose(2, 0, 3, 1, 4)
            .reshape(2, b * h, n, -1))
    q = _split_heads(q, h)
    del qkv  # copied into q, k and v
    key_pad = None if pad is None else np.repeat(pad, h, axis=0)
    o, lc["nattn"] = grad.token_attention_fwd(q, k, v, causal=decoder, key_pad=key_pad)
    return _merge_heads(o, b, h)


def _dim_core_fwd(params, x, lc, cfg: RunConfig, decoder, pad):
    """Dimension-wise attention of x [B, N, d_model], groups side by side."""
    p, rows = lc["prefix"], lc["rows"]
    keep = None if pad is None else (~np.asarray(pad, dtype=bool)).astype(x.dtype)[:, :, None]
    xv = x if rows is None else x[rows].reshape(x.shape[0], -1, x.shape[2])
    outs, lc["groups"] = [], []
    for g in range(cfg.groups):
        gc = {}
        q, gc["nq"] = _linear_of_rebuilt(x, params[p + f"attn.wq{g}"])
        k, gc["nk"] = _linear_of_rebuilt(x, params[p + f"attn.wk{g}"])
        v, gc["nv"] = _linear_of_rebuilt(xv, params[p + f"attn.wv{g}"])
        if keep is not None:
            q, k = q * keep, k * keep
        ws = params[p + f"attn.filters{g}"]
        o, gc["nattn"] = (grad.masked_attention_multi_fwd(q, k, v, ws) if decoder
                          else grad.dim_attention_multi_fwd(q, k, v, ws, mode=cfg.norm_mode))
        outs.append(o)
        lc["groups"].append(gc)
    return np.concatenate(outs, axis=2) if len(outs) > 1 else outs[0]


def _attention_fwd(params, x, lc, cfg: RunConfig, decoder, pad, drop_rng):
    """x + dropout(attention(x)), its tape nodes put in lc.  The last layer
    keeps lc["rows"] alone from the core's output on."""
    p, rows = lc["prefix"], lc["rows"]
    core = _token_core_fwd if cfg.attention == "token" else _dim_core_fwd
    concat = core(params, x, lc, cfg, decoder, pad)
    if rows is not None:
        x, concat = x[rows], concat.reshape(-1, concat.shape[-1])
    # the dim encoder's backward reads attn.wo's gradient from the core's
    # tape, in d-space, and never its input
    fold = cfg.attention == "dim" and not decoder
    a, lc["no"] = (_linear_of_rebuilt if fold else grad.linear_fwd)(
        concat, params[p + "attn.wo"])
    if drop_rng is not None:
        a, lc["ndrop1"] = grad.dropout_fwd(a, cfg.dropout, drop_rng)
    a += x  # a is this sublayer's own output, on no tape
    return a


def _ffn_fwd(params, x1, lc, cfg: RunConfig, drop_rng):
    """x1 + dropout(ffn(x1)), its tape nodes put in lc."""
    p = lc["prefix"]
    h1, lc["nff1"] = _linear_of_rebuilt(x1, params[p + "ffn.w1"], params[p + "ffn.b1"])
    r, lc["nrelu"] = grad.relu_fwd(h1)
    del h1
    f, lc["nff2"] = grad.linear_fwd(r, params[p + "ffn.w2"], params[p + "ffn.b2"])
    if drop_rng is not None:
        f, lc["ndrop2"] = grad.dropout_fwd(f, cfg.dropout, drop_rng)
    f += x1  # f is this sublayer's own output, on no tape
    return f


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward_from_cache(cache, dlogits) -> dict:
    """Parameter gradients for a forward pass, given d(loss)/d(logits).

    Consumes the cache: layers are popped from cache["layers"] last first
    and each tape node from its layer as its gradient is taken, so every
    activation and gradient is freed once nothing reads it.
    """
    cfg, head, layers = cache["cfg"], cache["head"], cache["layers"]
    dx = (dlogits.reshape(-1, head.shape[0]) @ head).reshape(dlogits.shape[:-1] + (-1,))
    # the tied head's term, over the rows the logits were computed for;
    # the table term is added last
    grads = {"embed": dlogits.reshape(-1, head.shape[0]).T
             @ grad.layer_norm_out(layers[-1]["nln2"]).reshape(-1, head.shape[1])}
    del dlogits

    while layers:
        lc = layers.pop()
        dx = _norm_bwd(lc, "ln2", dx, grads)  # gradient of x1 + f
        dx = _ffn_bwd(lc, dx, grads)  # of x1
        dx = _norm_bwd(lc, "ln1", dx, grads)  # of x + a
        dx = _attention_bwd(lc, dx, cfg, cache["decoder"], grads,  # of x
                            functools.partial(_layer_input, cache, len(layers)))

    ge = grad.embed_bwd(cache["embed_node"], dx * math.sqrt(cfg.d_model))
    grads["embed"] += ge["table"]
    return grads


def _norm_bwd(lc, ln, u, grads):
    """Gradient of layer norm `ln`'s input; its gamma and beta go to grads."""
    g = grad.layer_norm_bwd(lc.pop("n" + ln), u)
    grads[lc["prefix"] + ln + ".gamma"] = g["gamma"]
    grads[lc["prefix"] + ln + ".beta"] = g["beta"]
    return g["x"]


def _dropout_bwd(lc, key, u):
    """u through the dropout node `key`, where the sublayer dropped."""
    return grad.dropout_bwd(lc.pop(key), u)["x"] if key in lc else u


def _ffn_bwd(lc, dres, grads):
    """Gradient of x1 from that of x1 + f, f = dropout(ffn(x1))."""
    p = lc["prefix"]
    g = grad.linear_bwd(lc.pop("nff2"), _dropout_bwd(lc, "ndrop2", dres))
    grads[p + "ffn.w2"], grads[p + "ffn.b2"] = g["w"], g["b"]
    dr = grad.relu_bwd(lc.pop("nrelu"), g["x"], out=g["x"])["x"]
    g = grad.linear_bwd(lc.pop("nff1"), dr, x=grad.layer_norm_out(lc["nln1"]))
    grads[p + "ffn.w1"], grads[p + "ffn.b1"] = g["w"], g["b"]
    dx1 = g["x"]
    dx1 += dres
    return dx1


def _attention_bwd(lc, dres, cfg: RunConfig, decoder, grads, layer_input):
    """Gradient of x from that of x + a, a = dropout(attention(x)); x is
    rebuilt by calling layer_input() once its first product needs it."""
    p, r = lc["prefix"], lc["rows"]
    da = _dropout_bwd(lc, "ndrop1", dres)
    # dim group g reads columns g of attn.wo's input
    width = cfg.convs * cfg.head_dim
    cols = [slice(g * width, (g + 1) * width) for g in range(cfg.groups)]
    if cfg.attention == "dim" and not decoder:
        # attn.wo's gradient comes from each group's core, in d-space; one
        # group's projection is the parameter array itself, by which
        # perfbench's tracer names the product
        wo = lc.pop("no").saved["w"]
        gas = [grad.dim_attention_multi_bwd(gc.pop("nattn"), da,
                                            wo if cfg.groups == 1 else wo[g], rows=r)
               for gc, g in zip(lc["groups"], cols)]
        dwo = [ga.pop("wo") for ga in gas]
        grads[p + "attn.wo"] = dwo[0] if cfg.groups == 1 else np.concatenate(dwo)
    else:
        # the token core's backward reads attn.wo's input, its output
        go = grad.linear_bwd(lc["no"] if cfg.attention == "token" else lc.pop("no"), da)
        grads[p + "attn.wo"] = go["w"]
        dconcat = go.pop("x")
    del da
    # the residual term, back at every position in the last layer; the
    # core's input terms go into it now that da, which may be dres, is read
    dx = dres if r is None else grad.scatter_rows(dres, r)
    if cfg.attention == "token":
        (b, n, dm), h = dx.shape, cfg.heads
        heads = [_split_heads(a.reshape(b, -1, dm), h) for a in (dconcat, lc.pop("no").saved["x"])]
        del dconcat  # the core reads its split copy
        ga = grad.token_attention_bwd(lc.pop("nattn"), *heads)
        del heads  # before dqkv is made
        # dq|dk|dv straight into the fused projection's column layout
        dqkv = np.empty((b, n, 3, h, dm // h), dtype=dx.dtype)
        for j, t in enumerate("kv", start=1):
            dqkv[:, :, j] = ga.pop(t).reshape(b, h, n, -1).transpose(0, 2, 1, 3)
        dq = ga.pop("q").reshape(b, h, -1, dm // h).transpose(0, 2, 1, 3)
        if r is None:
            dqkv[:, :, 0] = dq
        else:
            # only the gathered queries have a gradient
            dqkv[:, :, 0] = 0.0
            dqkv[:, :, 0][r] = dq.reshape(-1, h, dm // h)
        del dq  # with dk and dv, before the input is rebuilt
        gl = grad.linear_bwd(lc.pop("nqkv"), dqkv.reshape(b, n, 3 * dm), x=layer_input())
        grads[p + "attn.wqkv"] = gl["w"]
        dx += gl["x"]
        return dx
    groups = lc.pop("groups")
    if decoder:
        gas = [grad.masked_attention_multi_bwd(gc.pop("nattn"), dconcat[:, :, g])
               for gc, g in zip(groups, cols)]
    # forward zeroed q and k at padded positions, so their gradients there
    # are already zero
    x = layer_input()
    for g, (gc, ga) in enumerate(zip(groups, gas)):
        grads[p + f"attn.filters{g}"] = ga.pop("ws")
        for t in ("q", "k", "v"):
            gl = grad.linear_bwd(gc.pop("n" + t), ga.pop(t), x=x)
            grads[p + f"attn.w{t}{g}"] = gl["w"]
            dx += gl["x"]
    return dx


def mlm_loss(logits, targets, mask_positions) -> float:
    """Mean NLL of the original tokens over masked positions only."""
    loss, _ = grad.cross_entropy_masked_fwd(logits, targets, mask_positions)
    return loss


def loss_rows(loss_mask):
    """The positions whose logits the encoder computes for a loss over
    `loss_mask` [B, N]: in every window its masked ones, then its first
    others, up to r = max(N // 4, the most masked in any window).

    The masked-LM loss reads about 15% of the positions, a count that
    varies from window to window and from batch to batch.  The last token
    layer scores r query rows per window, so every window needs the same
    count.  Arrays of varying size left holes in the heap that the next
    step's full-size arrays could not reuse, so steps page-faulted; a
    quota of N // 4, raised only for a window with more masked positions,
    gives most steps blocks of the same sizes.
    """
    loss_mask = np.asarray(loss_mask, dtype=bool)
    masked = np.count_nonzero(loss_mask, axis=-1, keepdims=True)
    quota = max(loss_mask.shape[-1] // 4, int(masked.max()))
    other = ~loss_mask
    return loss_mask | (other & (np.cumsum(other, axis=-1) <= quota - masked))


def loss_and_grads(params, ids, targets, loss_mask, cfg: RunConfig,
                   decoder=False, drop_rng=None, pad=None):
    """Masked-LM or causal loss and every parameter gradient.  The encoder
    computes logits at `loss_rows` only; the causal loss reads every
    position but the last, so the decoder computes them all."""
    rows = None
    if not decoder:
        rows = loss_rows(loss_mask)
        targets, loss_mask = np.asarray(targets)[rows], np.asarray(loss_mask)[rows]
    logits, cache = forward(params, ids, cfg, decoder=decoder, drop_rng=drop_rng,
                            pad=pad, rows=rows)
    loss, loss_node = grad.cross_entropy_masked_fwd(logits, targets, loss_mask)
    del logits  # d(loss)/d(logits) goes straight to the backward, which frees it
    return loss, backward_from_cache(cache, grad.cross_entropy_masked_bwd(loss_node, 1.0)["logits"])


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
        g = grads[name]
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


def train_step(batch, params, state: AdamState, cfg: RunConfig, step: int) -> float:
    """One optimization step of cfg.task; deterministic given (seed, step).
    Returns loss."""
    ids, targets, loss_mask, pad = batch
    loss, grads = loss_and_grads(params, ids, targets, loss_mask, cfg,
                                 decoder=cfg.task == "clm", pad=pad,
                                 drop_rng=derived_rng(cfg.seed, _STREAM_DROPOUT, step))
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss {loss!r} at step {step}")
    clip_global_norm(grads, cfg.clip)
    adam_update(params, grads, state, cfg)
    return loss
