"""Reverse-mode rules for every op the training loop composes.

No graph autodiff: the op set is small and closed, so each op is a
(forward, backward) pair.  Forward returns the output plus a TapeNode
holding whatever the backward rule needs; backward maps an upstream
cotangent to per-input gradients.  `fd_check` closes the loop with central
finite differences against the scalarizing loss sum(output).

The attention forwards here are the only fast implementation of each op:
training runs them, `dimattn bench` times them and the FLOPs tally counts
them (opcount conventions, multiplied by batch and filter count).
attention.py and masked.py keep the literal oracles they are checked
against.  Attention ops accept either a single sequence [N, d] or a batch
[B, N, d]; parameter gradients are summed over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .opcount import TALLY


@dataclass
class TapeNode:
    op: str
    saved: dict
    out_shape: tuple


def _node(op, out, **saved):
    return TapeNode(op=op, saved=saved, out_shape=tuple(np.shape(out)))


# ---------------------------------------------------------------------------
# elementary ops
# ---------------------------------------------------------------------------

def linear_fwd(x, w, b=None):
    """x[..., m] @ w[m, n] (+ b), leading axes flattened for the product."""
    out = x @ w
    if b is not None:
        out = out + b
    return out, _node("linear", out, x=x, w=w, has_bias=b is not None)


def linear_bwd(node, u):
    x, w = node.saved["x"], node.saved["w"]
    x2 = x.reshape(-1, x.shape[-1])
    u2 = u.reshape(-1, u.shape[-1])
    grads = {"x": u @ w.T, "w": x2.T @ u2}
    if node.saved["has_bias"]:
        grads["b"] = u2.sum(axis=0)
    return grads


def relu_fwd(x):
    out = np.maximum(x, 0.0)
    return out, _node("relu", out, mask=x > 0.0)


def relu_bwd(node, u):
    return {"x": u * node.saved["mask"]}


def embed_fwd(table, ids):
    out = table[ids]
    return out, _node("embed", out, ids=ids, vocab=table.shape[0])


def embed_bwd(node, u):
    ids = node.saved["ids"]
    width = u.shape[-1]
    dtable = np.zeros((node.saved["vocab"], width), dtype=u.dtype)
    np.add.at(dtable, np.asarray(ids).reshape(-1), u.reshape(-1, width))
    return {"table": dtable}


def dropout_fwd(x, rate, rng):
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out = x * keep * scale
    return out, _node("dropout", out, keep=keep, scale=scale)


def dropout_bwd(node, u):
    return {"x": u * node.saved["keep"] * node.saved["scale"]}


def layer_norm_fwd(x, gamma, beta, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    out = gamma * xhat + beta
    return out, _node("layer_norm", out, xhat=xhat, inv_std=inv_std, gamma=gamma)


def layer_norm_bwd(node, u):
    xhat, inv_std, gamma = (node.saved[k] for k in ("xhat", "inv_std", "gamma"))
    dxhat = u * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv_std * (dxhat - m1 - xhat * m2)
    axes = tuple(range(u.ndim - 1))
    return {
        "x": dx,
        "gamma": (u * xhat).sum(axis=axes),
        "beta": u.sum(axis=axes),
    }


def softmax_fwd(x, axis=-1):
    """Softmax along `axis`, maximum subtracted first; the one softmax every
    op and oracle uses."""
    p = x - x.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    return p, _node("softmax", p, p=p, axis=axis)


def softmax_bwd(node, u):
    p, axis = node.saved["p"], node.saved["axis"]
    return {"x": p * (u - (u * p).sum(axis=axis, keepdims=True))}


# ---------------------------------------------------------------------------
# attention ops: the only fast implementation of each, which training runs,
# `dimattn bench` times and the FLOPs tally counts
# ---------------------------------------------------------------------------

NORM_MODES = ("none", "scale_inv_sqrt_N", "softmax_rows_over_k", "softmax_cols_over_j")

_SOFTMAX_AXIS = {"softmax_rows_over_k": -1, "softmax_cols_over_j": -2}


def _batched(*arrays):
    """Promote [N, d] inputs to [1, N, d]; report whether promotion happened."""
    if arrays[0].ndim == 2:
        return [a[None] for a in arrays], True
    return list(arrays), False


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
    """Softmax attention over keys; key_pad marks keys excluded from every query.

    Without `causal` the query rows are independent, so q may be any block
    of rows [Nq, d] of the full query matrix against all N keys.
    """
    (qb, kb, vb), squeezed = _batched(q, k, v)
    b, n, d = qb.shape
    if TALLY.active:
        TALLY.matmul("scores", n, d, kb.shape[1], batch=b)
        TALLY.matmul("attn_v", n, kb.shape[1], d, batch=b)
    scale = 1.0 / math.sqrt(d)
    scores = np.einsum("bnd,bmd->bnm", qb, kb)
    scores *= scale
    if causal:
        idx = np.arange(n)
        scores = np.where(idx[None, :, None] >= idx[None, None, :], scores, -np.inf)
    if key_pad is not None:
        pad = np.asarray(key_pad, dtype=bool)
        if pad.ndim == 1:
            pad = pad[None]
        scores = np.where(pad[:, None, :], -np.inf, scores)
    p, softmax = softmax_fwd(scores)
    out = np.einsum("bnm,bmd->bnd", p, vb)
    if squeezed:
        out = out[0]
    return out, _node("token_attention", out, p=p, softmax=softmax, q=qb, k=kb,
                      v=vb, scale=scale, squeezed=squeezed)


def token_attention_bwd(node, u):
    s = node.saved
    ub = u[None] if s["squeezed"] else u
    p, q, k, v, scale = s["p"], s["q"], s["k"], s["v"], s["scale"]
    dv = np.einsum("bnm,bnd->bmd", p, ub)
    dp = np.einsum("bnd,bmd->bnm", ub, v)
    ds = softmax_bwd(s["softmax"], dp)["x"]
    dq = np.einsum("bnm,bmd->bnd", ds, k) * scale
    dk = np.einsum("bnm,bnd->bmd", ds, q) * scale
    if s["squeezed"]:
        dq, dk, dv = dq[0], dk[0], dv[0]
    return {"q": dq, "k": dk, "v": dv}


def dim_attention_multi_fwd(q, k, v, ws, mode="none"):
    """Factored dimension-wise attention O_f = V @ (W_f * f(S))^T, S = Q^T K.

    The c filters ws [c, d, d] share one normalized score matrix; one filter
    is ws[None].  Output layout is [..., N, c*d] with filter f occupying
    columns [f*d, (f+1)*d).
    """
    (qb, kb, vb), squeezed = _batched(q, k, v)
    b, n, d = qb.shape
    c = ws.shape[0]
    if TALLY.active:
        TALLY.matmul("scores", d, n, d, batch=b)
        TALLY.elemwise_mul("filter_gate", b * c * d * d)
        TALLY.matmul("filter_mix", n, d, d, batch=b * c)
    s = np.einsum("bni,bnj->bij", qb, kb)
    fs, softmax = _norm_fwd(s, mode, n)
    a = ws[None, :, :, :] * fs[:, None, :, :]
    o4 = np.einsum("bnm,bcjm->bcnj", vb, a)
    out = o4.transpose(0, 2, 1, 3).reshape(b, n, c * d)
    if squeezed:
        out = out[0]
    return out, _node("dim_attention_multi", out, q=qb, k=kb, v=vb, ws=ws,
                      a=a, fs=fs, softmax=softmax, mode=mode, squeezed=squeezed)


def dim_attention_multi_bwd(node, u):
    s = node.saved
    q, k, v, ws, a = s["q"], s["k"], s["v"], s["ws"], s["a"]
    b, n, d = q.shape
    c = ws.shape[0]
    ub = u[None] if s["squeezed"] else u
    u4 = ub.reshape(b, n, c, d).transpose(0, 2, 1, 3)
    dv = np.einsum("bcnj,bcjm->bnm", u4, a)
    da = np.einsum("bcnj,bnm->bcjm", u4, v)
    dws = np.einsum("bjm,bcjm->cjm", s["fs"], da)
    dfs = np.einsum("cjm,bcjm->bjm", ws, da)
    ds = _norm_bwd(dfs, s["mode"], s["softmax"], n)
    dq = np.einsum("bij,bnj->bni", ds, k)
    dk = np.einsum("bij,bni->bnj", ds, q)
    if s["squeezed"]:
        dq, dk, dv = dq[0], dk[0], dv[0]
    return {"q": dq, "k": dk, "v": dv, "ws": dws}


def masked_attention_multi_fwd(q, k, v, ws, scale_positions=False):
    """Causal dimension-wise attention via the prefix-sum scan, c filters.

    The running state G_i = sum_{n<=i} q_n k_n^T is the cumulative sum of
    per-token outer products; row i of filter f is (W_f * G_i) @ V[i, :],
    times 1/sqrt(i+1) with scale_positions.  One filter is ws[None].
    """
    (qb, kb, vb), squeezed = _batched(q, k, v)
    b, n, d = qb.shape
    c = ws.shape[0]
    if TALLY.active:
        TALLY.add("cum_outer", b * n * d * d, b * (n - 1) * d * d)
        TALLY.add("masked_mix", 2 * b * c * n * d * d, b * c * n * d * (d - 1))
    cum = np.cumsum(qb[:, :, :, None] * kb[:, :, None, :], axis=1)
    o4 = np.einsum("cjm,bijm,bim->bcij", ws, cum, vb)
    scales = None
    if scale_positions:
        scales = 1.0 / np.sqrt(np.arange(1, n + 1, dtype=qb.dtype))
        o4 = o4 * scales[None, None, :, None]
    out = o4.transpose(0, 2, 1, 3).reshape(b, n, c * d)
    if squeezed:
        out = out[0]
    return out, _node("masked_attention_multi", out, q=qb, k=kb, v=vb, ws=ws,
                      cum=cum, scales=scales, squeezed=squeezed)


def masked_attention_multi_bwd(node, u):
    s = node.saved
    q, k, v, ws, cum = s["q"], s["k"], s["v"], s["ws"], s["cum"]
    b, n, d = q.shape
    c = ws.shape[0]
    ub = u[None] if s["squeezed"] else u
    u4 = ub.reshape(b, n, c, d).transpose(0, 2, 1, 3)
    if s["scales"] is not None:
        u4 = u4 * s["scales"][None, None, :, None]
    dv = np.einsum("bcij,cjm,bijm->bim", u4, ws, cum)
    dws = np.einsum("bcij,bijm,bim->cjm", u4, cum, v)
    dcum = np.einsum("bcij,cjm,bim->bijm", u4, ws, v)
    # d(outer_n) collects every position i >= n: a reversed cumulative sum.
    douter = np.flip(np.cumsum(np.flip(dcum, axis=1), axis=1), axis=1)
    dq = np.einsum("bnjm,bnm->bnj", douter, k)
    dk = np.einsum("bnjm,bnj->bnm", douter, q)
    if s["squeezed"]:
        dq, dk, dv = dq[0], dk[0], dv[0]
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
    return loss, _node("cross_entropy_masked", loss, logp=logp, targets=safe_targets,
                       mask=mask, count=count)


def cross_entropy_masked_bwd(node, u):
    s = node.saved
    p = np.exp(s["logp"])
    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, np.asarray(s["targets"])[..., None], 1.0, axis=-1)
    dlogits = (p - onehot) * s["mask"][..., None] / s["count"]
    return {"logits": dlogits * u}


# ---------------------------------------------------------------------------
# dispatch and the finite-difference oracle
# ---------------------------------------------------------------------------

FORWARDS = {
    "linear": linear_fwd,
    "relu": relu_fwd,
    "embed": embed_fwd,
    "dropout": dropout_fwd,
    "layer_norm": layer_norm_fwd,
    "softmax": softmax_fwd,
    "token_attention": token_attention_fwd,
    "dim_attention_multi": dim_attention_multi_fwd,
    "masked_attention_multi": masked_attention_multi_fwd,
    "cross_entropy_masked": cross_entropy_masked_fwd,
}

BACKWARDS = {
    "linear": linear_bwd,
    "relu": relu_bwd,
    "embed": embed_bwd,
    "dropout": dropout_bwd,
    "layer_norm": layer_norm_bwd,
    "softmax": softmax_bwd,
    "token_attention": token_attention_bwd,
    "dim_attention_multi": dim_attention_multi_bwd,
    "masked_attention_multi": masked_attention_multi_bwd,
    "cross_entropy_masked": cross_entropy_masked_bwd,
}


def backward(node: TapeNode, upstream) -> dict:
    """Dispatch to the op's backward rule; upstream must match the output."""
    if node.op not in BACKWARDS:
        raise ValueError(f"unknown op id {node.op!r}")
    if tuple(np.shape(upstream)) != node.out_shape:
        raise ValueError(
            f"upstream shape {np.shape(upstream)} does not match output "
            f"{node.out_shape} of op {node.op!r}"
        )
    return BACKWARDS[node.op](node, upstream)


def fd_check(op: str, inputs: dict, h: float = 1e-5, attrs: dict | None = None) -> float:
    """Max relative error of analytic vs central-difference gradients.

    The scalarizing loss is the sum of the op's outputs.  Relative error per
    coordinate is |a - n| / max(|a|, |n|, 1e-8).  Inputs must be float64.
    """
    attrs = attrs or {}
    for name, arr in inputs.items():
        if np.asarray(arr).dtype != np.float64:
            raise ValueError(f"fd_check requires float64 inputs, {name} is "
                             f"{np.asarray(arr).dtype}")
    if op not in FORWARDS:
        raise ValueError(f"unknown op id {op!r}")

    def loss(vals):
        out, _ = FORWARDS[op](**vals, **attrs)
        return float(np.sum(out))

    out, node = FORWARDS[op](**inputs, **attrs)
    upstream = np.ones_like(out) if np.ndim(out) else 1.0
    analytic = backward(node, upstream)

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
