"""Reverse-mode rules for every op the training loop composes.

No graph autodiff: the op set is small and closed, so each op is a
plain (`<op>_fwd`, `<op>_bwd`) pair that callers invoke directly.  Forward
returns the output plus a TapeNode holding whatever the backward rule
needs; backward maps an upstream cotangent to per-input gradients.
`fd_check` closes the loop with central finite differences against the
scalarizing loss sum(output).

The attention forwards here are the only fast implementation of each op:
training runs them, `dimattn bench` times them and the FLOPs tally counts
them (opcount conventions, multiplied by batch and filter count).
attention.py and masked.py keep the literal oracles they are checked
against.  Attention ops take batches [B, N, d] only (a caller holding one
sequence adds the batch axis); parameter gradients are summed over the
batch.  The causal one is a chunk-wise scan over position-major states
whose tape holds only each chunk's starting state.

Memory: an op writes in place only into arrays it allocated itself, never
into an input or an array held on a tape.  Within that rule the elementwise
ops build their results in place (`out += b`, `dx *= inv_std`) rather than
through chains of temporaries, with the same IEEE operations in the same
order as the one-line formulas, so results are bitwise those formulas'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .opcount import TALLY


@dataclass
class TapeNode:
    saved: dict


def _node(**saved):
    return TapeNode(saved=saved)


# ---------------------------------------------------------------------------
# elementary ops
# ---------------------------------------------------------------------------

def linear_fwd(x, w, b=None):
    """x[..., m] @ w[m, n] (+ b).  A stacked x runs as numpy's stacked
    product; only linear_bwd's dW flattens the leading axes."""
    out = x @ w
    if b is not None:
        out += b
    return out, _node(x=x, w=w, has_bias=b is not None)


def scatter_rows(a, rows):
    """The [M, w] rows of `a` at the M positions the bool `rows` [B, N]
    marks, in a new [B, N, w] array that is zero elsewhere."""
    out = np.zeros(rows.shape + a.shape[-1:], a.dtype)
    out[rows] = a
    return out


def linear_bwd(node, u, rows=None):
    """Gradients of linear_fwd; dW is one product over the flattened rows.

    With `rows`, x and u hold only the [M, ·] rows that the bool [B, N]
    marks.  dW is then still the product over all B*N rows, with the other
    rows zero in both operands: a product over the M rows alone sums in
    another order, so its bits would differ from those of the full batch
    whose upstream is zero off `rows`.
    """
    x, w = node.saved["x"], node.saved["w"]
    grads = {"x": u @ w.T}
    if node.saved["has_bias"]:
        grads["b"] = u.reshape(-1, u.shape[-1]).sum(axis=0)
    if rows is not None:
        x, u = scatter_rows(x, rows), scatter_rows(u, rows)
    grads["w"] = x.reshape(-1, x.shape[-1]).T @ u.reshape(-1, u.shape[-1])
    return grads


def relu_fwd(x):
    out = np.maximum(x, 0.0)
    return out, _node(mask=x > 0.0)


def relu_bwd(node, u):
    return {"x": u * node.saved["mask"]}


def embed_fwd(table, ids):
    out = table[ids]
    return out, _node(ids=ids, vocab=table.shape[0])


def embed_bwd(node, u):
    ids = node.saved["ids"]
    width = u.shape[-1]
    dtable = np.zeros((node.saved["vocab"], width), dtype=u.dtype)
    np.add.at(dtable, np.asarray(ids).reshape(-1), u.reshape(-1, width))
    return {"table": dtable}


def dropout_fwd(x, rate, rng, rows=None):
    """Inverted dropout.  With `rows`, x holds the [M, w] rows that the
    bool [B, N] marks; the mask is drawn for all of [B, N, w] and then
    gathered, so the generator's stream is that of the full batch."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rows is None:
        keep = rng.random(x.shape) >= rate
    else:
        keep = (rng.random(rows.shape + x.shape[-1:]) >= rate)[rows]
    scale = 1.0 / (1.0 - rate)
    out = x * keep
    out *= scale
    return out, _node(keep=keep, scale=scale)


def dropout_bwd(node, u):
    dx = u * node.saved["keep"]
    dx *= node.saved["scale"]
    return {"x": dx}


def layer_norm_fwd(x, gamma, beta, eps=1e-6):
    # centred once: the mean of its squares is bitwise x.var
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    out = gamma * xhat
    out += beta
    return out, _node(xhat=xhat, inv_std=inv_std, gamma=gamma)


def layer_norm_bwd(node, u):
    xhat, inv_std, gamma = (node.saved[k] for k in ("xhat", "inv_std", "gamma"))
    # inv_std * (dxhat - m1 - xhat * m2), built in dx with one scratch array
    dx = u * gamma
    m1 = dx.mean(axis=-1, keepdims=True)
    scratch = dx * xhat
    m2 = scratch.mean(axis=-1, keepdims=True)
    dx -= m1
    dx -= np.multiply(xhat, m2, out=scratch)
    dx *= inv_std
    axes = tuple(range(u.ndim - 1))
    return {
        "x": dx,
        "gamma": np.multiply(u, xhat, out=scratch).sum(axis=axes),
        "beta": u.sum(axis=axes),
    }


def softmax_fwd(x, axis=-1):
    """Softmax along `axis`, maximum subtracted first; the one softmax every
    op and oracle uses."""
    p = x - x.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    # a subnormal probability moves no result at this precision, but every
    # product that reads it runs many times slower
    p[p < np.finfo(p.dtype).tiny] = 0.0
    return p, _node(p=p, axis=axis)


def softmax_bwd(node, u):
    p, axis = node.saved["p"], node.saved["axis"]
    return {"x": p * (u - (u * p).sum(axis=axis, keepdims=True))}


# ---------------------------------------------------------------------------
# attention ops: the only fast implementation of each, which training runs,
# `dimattn bench` times and the FLOPs tally counts
# ---------------------------------------------------------------------------

NORM_MODES = ("none", "scale_inv_sqrt_N", "softmax_rows_over_k", "softmax_cols_over_j")

_SOFTMAX_AXIS = {"softmax_rows_over_k": -1, "softmax_cols_over_j": -2}


def _norm_fwd(s, mode, n):
    """f(S) for score matrices [..., d, d] made from n tokens, plus the
    softmax node its backward needs (None for the other modes)."""
    if mode == "none":
        return s, None
    if mode == "scale_inv_sqrt_N":
        return s / math.sqrt(n), None
    if mode in _SOFTMAX_AXIS:
        return softmax_fwd(s, _SOFTMAX_AXIS[mode])
    raise ValueError(f"unknown norm mode {mode!r}, expected one of {NORM_MODES}")


def _norm_bwd(dfs, mode, softmax, n):
    if mode == "scale_inv_sqrt_N":
        return dfs / math.sqrt(n)
    if softmax is not None:
        return softmax_bwd(softmax, dfs)["x"]
    return dfs


def token_attention_fwd(q, k, v, causal=False, key_pad=None):
    """Softmax attention over keys for q, k, v [B, N, d]; key_pad [B, N]
    marks keys excluded from every query.

    Without `causal` the query rows are independent, so q may be any block
    of rows [B, Nq, d] of the full query matrix against all N keys.
    """
    b, n, d = q.shape
    if TALLY.active:
        TALLY.matmul("scores", n, d, k.shape[1], batch=b)
        TALLY.matmul("attn_v", n, k.shape[1], d, batch=b)
    scale = 1.0 / math.sqrt(d)
    scores = q @ k.transpose(0, 2, 1)
    scores *= scale
    if causal:
        idx = np.arange(n)
        scores = np.where(idx[None, :, None] >= idx[None, None, :], scores, -np.inf)
    if key_pad is not None:
        scores = np.where(np.asarray(key_pad, dtype=bool)[:, None, :], -np.inf, scores)
    p, softmax = softmax_fwd(scores)
    out = p @ v
    return out, _node(p=p, softmax=softmax, q=q, k=k, v=v, scale=scale)


def token_attention_bwd(node, u):
    s = node.saved
    p, q, k, v, scale = s["p"], s["q"], s["k"], s["v"], s["scale"]
    dv = p.transpose(0, 2, 1) @ u
    dp = u @ v.transpose(0, 2, 1)
    ds = softmax_bwd(s["softmax"], dp)["x"]
    dq = (ds @ k) * scale
    dk = (ds.transpose(0, 2, 1) @ q) * scale
    return {"q": dq, "k": dk, "v": dv}


def dim_attention_multi_fwd(q, k, v, ws, mode="none"):
    """Factored dimension-wise attention O_f = V @ (W_f * f(S))^T, S = Q^T K.

    q, k, v are [B, N, d]; the c filters ws [c, d, d] share one normalized
    score matrix; one filter is ws[None].  Output layout is [B, N, c*d] with
    filter f occupying columns [f*d, (f+1)*d).
    """
    b, n, d = q.shape
    c = ws.shape[0]
    if TALLY.active:
        TALLY.matmul("scores", d, n, d, batch=b)
        TALLY.elemwise_mul("filter_gate", b * c * d * d)
        TALLY.matmul("filter_mix", n, d, d, batch=b * c)
    s = q.transpose(0, 2, 1) @ k
    fs, softmax = _norm_fwd(s, mode, n)
    a = ws[None, :, :, :] * fs[:, None, :, :]
    # columns (f, j) of the output: V @ A_f^T for every filter in one product
    out = v @ a.reshape(b, c * d, d).transpose(0, 2, 1)
    return out, _node(q=q, k=k, v=v, ws=ws, a=a, fs=fs, softmax=softmax, mode=mode)


def dim_attention_multi_bwd(node, u):
    s = node.saved
    q, k, v, ws, a = s["q"], s["k"], s["v"], s["ws"], s["a"]
    b, n, d = q.shape
    c = ws.shape[0]
    dv = u @ a.reshape(b, c * d, d)
    da = (u.transpose(0, 2, 1) @ v).reshape(b, c, d, d)
    dws = np.einsum("bjm,bcjm->cjm", s["fs"], da)
    dfs = np.einsum("cjm,bcjm->bjm", ws, da)
    ds = _norm_bwd(dfs, s["mode"], s["softmax"], n)
    dq = k @ ds.transpose(0, 2, 1)
    dk = q @ ds
    return {"q": dq, "k": dk, "v": dv, "ws": dws}


# positions per chunk of the causal scan; at d=32 on a 2-vCPU Xeon, chunks
# of 128 ran slower and chunks of 32 no faster
_CHUNK = 64


def _chunk_prefix(q, k, start, s0):
    """Prefix states [B, C, d_j, d_m] of the chunk at s0, continuing `start`.

    Position-major: the scan adds each position's contiguous d x d state
    onto the next, bitwise equal to a whole-sequence cumulative sum, where
    np.cumsum along the strided middle axis of [B, d_j, C, d_m] took about
    twice as long."""
    cum = q[:, s0:s0 + _CHUNK, :, None] * k[:, s0:s0 + _CHUNK, None, :]
    if s0:
        cum[:, 0] += start
    for i in range(1, cum.shape[1]):
        cum[:, i] += cum[:, i - 1]
    return cum


def masked_attention_multi_fwd(q, k, v, ws):
    """Causal dimension-wise attention as a chunk-wise scan, c filters.

    The running state G_i = sum_{n<=i} q_n k_n^T is the cumulative sum of
    per-token outer products; row i of filter f is (W_f * G_i) @ V[i, :].
    Chunks of _CHUNK positions carry the state from one to the next and are
    contracted with every filter in one product.  q, k, v are [B, N, d];
    one filter is ws[None].
    """
    b, n, d = q.shape
    c = ws.shape[0]
    if TALLY.active:
        TALLY.add("cum_outer", b * n * d * d, b * (n - 1) * d * d)
        TALLY.add("masked_mix", 2 * b * c * n * d * d, b * c * n * d * (d - 1))
    starts = np.zeros((b, -(-n // _CHUNK), d, d), np.result_type(q, k, v, ws))
    out = np.empty((b, n, c, d), starts.dtype)
    for t in range(starts.shape[1]):
        s0, s1 = t * _CHUNK, (t + 1) * _CHUNK
        cum = _chunk_prefix(q, k, starts[:, t], s0)
        if t + 1 < starts.shape[1]:
            starts[:, t + 1] = cum[:, -1]
        cum *= v[:, s0:s1, None]
        # [B, d_j, C, d_m] view @ [d_j, d_m, c]: one GEMM per (batch, j)
        out[:, s0:s1] = (cum.transpose(0, 2, 1, 3)
                         @ ws.transpose(1, 2, 0)).transpose(0, 2, 3, 1)
    return out.reshape(b, n, c * d), _node(q=q, k=k, v=v, ws=ws, starts=starts)


def masked_attention_multi_bwd(node, u):
    s = node.saved
    q, k, v, ws, starts = s["q"], s["k"], s["v"], s["ws"], s["starts"]
    b, n, d = q.shape
    c = ws.shape[0]
    u4 = u.reshape(b, n, c, d).transpose(0, 3, 1, 2)
    dq, dk, dv = (np.empty(q.shape, starts.dtype) for _ in range(3))
    dws = np.zeros((c, d, d), starts.dtype)
    # gradient of the next chunk's start state, which seeds the reverse scan
    dg = np.zeros((b, d, d), starts.dtype)
    for t in reversed(range(starts.shape[1])):
        s0, s1 = t * _CHUNK, (t + 1) * _CHUNK
        cum = _chunk_prefix(q, k, starts[:, t], s0)
        uc = u4[:, :, s0:s1]
        vc = v[:, s0:s1, None]
        # sum_f u_f W_f, written through a [B, d_j, C, d_m] view of y
        y = np.empty(cum.shape, np.result_type(u, ws))
        np.matmul(uc, ws.transpose(1, 0, 2), out=y.transpose(0, 2, 1, 3))
        dv[:, s0:s1] = np.einsum("bijm,bijm->bim", y, cum)
        cum *= vc
        dws += (uc.transpose(0, 1, 3, 2)
                @ cum.transpose(0, 2, 1, 3)).sum(axis=0).transpose(1, 0, 2)
        y *= vc                                         # d(state_i)
        y[:, -1] += dg
        # d(outer_n) collects every position i >= n: a reversed prefix sum
        for i in range(y.shape[1] - 2, -1, -1):
            y[:, i] += y[:, i + 1]
        dg = y[:, 0]
        dq[:, s0:s1] = (y @ k[:, s0:s1, :, None])[..., 0]
        dk[:, s0:s1] = (q[:, s0:s1, None, :] @ y)[:, :, 0]
    return {"q": dq, "k": dk, "v": dv, "ws": dws}


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def cross_entropy_masked_fwd(logits, targets, mask):
    """Mean negative log softmax probability of `targets` over masked positions.

    Targets outside the mask may carry ignore markers (e.g. -1); they are
    clamped to 0 internally and contribute nothing.
    """
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("empty mask set: no positions contribute to the loss")
    safe_targets = np.where(mask, np.asarray(targets), 0)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    picked = np.take_along_axis(logp, safe_targets[..., None], axis=-1)[..., 0]
    loss = -float(picked[mask].sum()) / count
    return loss, _node(logp=logp, targets=safe_targets, mask=mask, count=count)


def cross_entropy_masked_bwd(node, u):
    s = node.saved
    p = np.exp(s["logp"])
    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, np.asarray(s["targets"])[..., None], 1.0, axis=-1)
    dlogits = (p - onehot) * s["mask"][..., None] / s["count"]
    return {"logits": dlogits * u}


# ---------------------------------------------------------------------------
# the finite-difference oracle
# ---------------------------------------------------------------------------

def fd_check(op: str, inputs: dict, h: float = 1e-5, attrs: dict | None = None) -> float:
    """Max relative error of analytic vs central-difference gradients.

    `op` names the pair `<op>_fwd`/`<op>_bwd` of this module.  The
    scalarizing loss is the sum of the op's outputs.  Relative error per
    coordinate is |a - n| / max(|a|, |n|, 1e-8).  Inputs must be float64.
    """
    attrs = attrs or {}
    for name, arr in inputs.items():
        if np.asarray(arr).dtype != np.float64:
            raise ValueError(f"fd_check requires float64 inputs, {name} is "
                             f"{np.asarray(arr).dtype}")
    fwd, bwd = globals().get(op + "_fwd"), globals().get(op + "_bwd")
    if fwd is None or bwd is None:
        raise ValueError(f"unknown op id {op!r}")

    def loss(vals):
        out, _ = fwd(**vals, **attrs)
        return float(np.sum(out))

    out, node = fwd(**inputs, **attrs)
    upstream = np.ones_like(out) if np.ndim(out) else 1.0
    analytic = bwd(node, upstream)

    worst = 0.0
    for name in inputs:
        base = inputs[name]
        a_grad = analytic[name]
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = dict(inputs)
            plus = base.copy()
            plus[idx] += h
            bumped[name] = plus
            f_plus = loss(bumped)
            minus = base.copy()
            minus[idx] -= h
            bumped[name] = minus
            f_minus = loss(bumped)
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(a_grad[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
