"""Reverse-mode rules for every op the training loop composes.

No graph autodiff: the op set is small and closed, so each op is a
plain (`<op>_fwd`, `<op>_bwd`) pair that callers invoke directly.  Forward
returns the output plus a TapeNode holding whatever the backward rule
needs; backward maps an upstream cotangent to per-input gradients.  This
module holds training ops only: `verify.fd_check` checks each pair against
central finite differences of the scalarizing loss sum(output).  Softmax
alone has no node: its callers keep p for `softmax_vjp`.  The token core
never forms p: it keeps each row's max and sum, and divides its output.

The attention forwards here are the only fast implementation of each op:
training runs them, `dimattn bench` times them and the FLOPs tally counts
them (opcount conventions, multiplied by batch and filter count); theirs
are the only tally hooks.  attention.py and masked.py keep the literal
oracles they are checked against.  Attention ops take batches [B, N, d]
only (a caller holding one sequence adds the batch axis); parameter
gradients are summed over the batch.  The causal one is a chunk-wise scan
over position-major states whose tape holds only each chunk's starting
state.  The other dim backward also takes the projection wo that reads its
output: O @ wo = V @ (A^T @ wo) sums over the d x d gates, not over N
positions, so wo's gradient and the core's need no [B, N, c*d] array.  The
token backward takes the output itself, which its caller keeps.

Memory: an op writes in place only into arrays it allocated itself, never
into an input or an array held on a tape, save relu_bwd's `out=`: there
the caller hands over the upstream gradient, which it reads no more, for
the result.  Within that rule the elementwise ops build their results in
place (`out += b`, `dx *= inv_std`) rather than through chains of
temporaries, with the same IEEE operations in the same order as the
one-line formulas, so results are bitwise those formulas'.  A tape holds
each fact once: the backward rebuilds, by the forward's own code, what one
cheap operation makes from what it keeps (the token core's exp(s - max),
W_f * f(S), a layer norm's output).  The token core walks tiles of heads
by query rows, so a tile's scores and their gradient stay in L2, in
buffers it owns.
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
    marks, in a new [B, N, w] array that is zero elsewhere: a gradient of
    gathered rows taken back to every position."""
    out = np.zeros(rows.shape + a.shape[-1:], a.dtype)
    out[rows] = a
    return out


def linear_bwd(node, u, x=None):
    """Gradients of linear_fwd; dW is one product over the flattened rows
    of x and u, as many as the forward ran on (the gathered [M, ·] loss
    rows, say).  A caller whose node keeps no x passes it, rebuilt."""
    w, x = node.saved["w"], node.saved["x"] if x is None else x
    grads = {"x": u @ w.T}
    if node.saved["has_bias"]:
        grads["b"] = u.reshape(-1, u.shape[-1]).sum(axis=0)
    grads["w"] = x.reshape(-1, x.shape[-1]).T @ u.reshape(-1, u.shape[-1])
    return grads


def relu_fwd(x):
    """max(x, 0); its node keeps that output, not a mask of x > 0."""
    out = np.maximum(x, 0.0)
    return out, _node(out=out)


def relu_bwd(node, u, out=None):
    """u * (x > 0), read from the output: max(x, 0) > 0 exactly where
    x > 0, NaN and -0.0 included.  With out=u it runs in place."""
    return {"x": np.multiply(u, node.saved["out"] > 0.0, out=out)}


def embed_fwd(table, ids):
    out = table[ids]
    return out, _node(ids=ids, vocab=table.shape[0])


def embed_bwd(node, u):
    """Rows of u summed into the table rows their ids name, as one
    bincount over (id, column) buckets.  Each bucket sums in row order, as
    np.add.at does, but in f64: bitwise np.add.at in f64, rounded once
    from f64 for an f32 u."""
    vocab, width = node.saved["vocab"], u.shape[-1]
    bucket = np.asarray(node.saved["ids"]).reshape(-1, 1) * width + np.arange(width)
    dtable = np.bincount(bucket.reshape(-1), weights=u.reshape(-1),
                         minlength=vocab * width)
    return {"table": dtable.reshape(vocab, width).astype(u.dtype, copy=False)}


def dropout_fwd(x, rate, rng):
    """Inverted dropout, x * keep / (1 - rate), drawn for the x.size = n
    elements it masks alone.  The mask takes ceil(n / 2) raw Philox words
    and reads each as two 32-bit lanes, low half first (its little-endian
    bytes); an element is kept where its lane is >= ceil(rate * 2**32), so
    it drops with probability ceil(rate * 2**32) / 2**32, within 2**-32 of
    rate."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    lanes = rng.bit_generator.random_raw(-(-x.size // 2)).astype("<u8", copy=False).view("<u4")
    keep = (lanes[:x.size] >= math.ceil(rate * 2.0 ** 32)).reshape(x.shape)
    del lanes  # freed before out is made: it lives only while read
    scale = 1.0 / (1.0 - rate)
    out = x * keep
    out *= scale
    return out, _node(keep=keep, scale=scale)


def dropout_bwd(node, u):
    dx = u * node.saved["keep"]
    dx *= node.saved["scale"]
    return {"x": dx}


_LN_EPS = 1e-6  # added to the variance before the square root


def layer_norm_fwd(x, gamma, beta):
    # centred once: the mean of its squares is bitwise x.var
    xhat = x - x.mean(axis=-1, keepdims=True)
    var = np.square(xhat).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv_std
    node = _node(xhat=xhat, inv_std=inv_std, gamma=gamma, beta=beta)
    return layer_norm_out(node), node


def layer_norm_out(node):
    """gamma * xhat + beta: the output of a layer_norm_fwd node, bitwise."""
    out = node.saved["gamma"] * node.saved["xhat"]
    out += node.saved["beta"]
    return out


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
    """Softmax along `axis`, maximum subtracted first; the one softmax of
    every op and oracle but the token core (token_attention_fwd).  Returns p
    alone: a caller that needs the backward keeps p for softmax_vjp."""
    p = x - x.max(axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=axis, keepdims=True)
    # a subnormal probability moves no result at this precision, but every
    # product that reads it runs many times slower
    p[p < np.finfo(p.dtype).tiny] = 0.0
    return p


def softmax_vjp(p, u, axis=-1):
    """p * (u - sum(u * p)) along `axis`, the one softmax backward.
    Subnormal results are flushed to zero, as softmax_fwd flushes its own."""
    dx = u - (u * p).sum(axis=axis, keepdims=True)
    dx *= p
    dx[np.abs(dx) < np.finfo(dx.dtype).tiny] = 0.0
    return dx


# ---------------------------------------------------------------------------
# attention ops: the only fast implementation of each, which training runs,
# `dimattn bench` times and the FLOPs tally counts
# ---------------------------------------------------------------------------

NORM_MODES = ("none", "scale_inv_sqrt_N", "softmax_rows_over_k", "softmax_cols_over_j")

_SOFTMAX_AXIS = {"softmax_rows_over_k": -1, "softmax_cols_over_j": -2}


def normalize_scores(s, mode, n):
    """The score normalization f applied to score matrices [..., d, d] made
    from n tokens; the one normalization the kernels and oracles use.

    It acts on S only, never on V or the assembled tensor.
    scale_inv_sqrt_N divides by sqrt(n), since every score entry is a sum
    of n products."""
    if mode == "none":
        return s
    if mode == "scale_inv_sqrt_N":
        return s / math.sqrt(n)
    if mode in _SOFTMAX_AXIS:
        return softmax_fwd(s, _SOFTMAX_AXIS[mode])
    raise ValueError(f"unknown norm mode {mode!r}, expected one of {NORM_MODES}")


def _norm_bwd(dfs, fs, mode, n):
    """Gradient of S from that of fs = normalize_scores(S, mode, n)."""
    if mode == "scale_inv_sqrt_N":
        return dfs / math.sqrt(n)
    if mode in _SOFTMAX_AXIS:
        return softmax_vjp(fs, dfs, _SOFTMAX_AXIS[mode])
    return dfs


# heads per block of the token core: a block's [8, 100, 100] scores take 640 KB,
# so they and their gradient `ds`, the only tile-sized arrays, stay in a 2 MB L2.
# On a 2-vCPU Xeon, blocks of 4, 16 or 32 ran slower, and unblocked slower still
_TOKEN_BLOCK = 8
# bytes of a tile's scores, which fix its rows: a block of the mlm-token
# core ([8, 100, 100] in f64) is one tile; one head at N = 4096 takes 32 rows
_TOKEN_TILE_BYTES = 1 << 20


def _token_tiles(s, count):
    """(heads, query rows, key count, `count` scratch arrays [heads, rows,
    keys]) for each tile of a token tape s: up to _TOKEN_BLOCK heads by the
    rows whose scores fit _TOKEN_TILE_BYTES.  A causal tile reads the keys
    up to its last row; a block's last rows come first and read every key."""
    (b, nq, _), n, dtype = s["q"].shape, s["k"].shape[1], s["peak"].dtype
    rows = max(1, _TOKEN_TILE_BYTES // (min(b, _TOKEN_BLOCK) * n * dtype.itemsize))
    bufs = [np.empty(min(b, _TOKEN_BLOCK) * min(rows, nq) * n, dtype) for _ in range(count)]
    for lo in range(0, b, _TOKEN_BLOCK):
        blk = slice(lo, min(lo + _TOKEN_BLOCK, b))
        for r0 in reversed(range(0, nq, rows)):
            r1 = min(r0 + rows, nq)
            shape = (blk.stop - lo, r1 - r0, r1 if s["causal"] else n)
            yield (blk, slice(r0, r1), shape[2],
                   *(a[:math.prod(shape)].reshape(shape) for a in bufs))


def _token_exp(s, blk, rows, keys, out, first=False):
    """A tile's e = exp(scores - row max) in out, flushed as softmax_fwd's;
    returns its queries times 1/sqrt(d), which make the scores.  The forward
    puts the row max on the tape, so the backward's e is its bit for bit."""
    qs = s["q"][blk, rows] * s["scale"]
    np.matmul(qs, s["k"][blk, :keys].transpose(0, 2, 1), out=out)
    if s["causal"]:  # the tile's row i is row rows.start + i
        np.copyto(out, -np.inf, where=np.triu(np.ones(out.shape[1:], bool), rows.start + 1))
    if s["key_pad"] is not None:
        np.copyto(out, -np.inf, where=s["key_pad"][blk, :, :keys])
    if first:
        np.max(out, axis=-1, keepdims=True, out=s["peak"][blk, rows])
    out -= s["peak"][blk, rows]
    np.exp(out, out=out)
    out[out < np.finfo(out.dtype).tiny] = 0.0
    return qs


def _matmul_into(a, b, out, add):
    """a @ b into out, or added to it with `add`."""
    if add:
        out += a @ b
    else:
        np.matmul(a, b, out=out)


def token_attention_fwd(q, k, v, causal=False, key_pad=None):
    """Softmax attention over keys for q, k, v [B, N, d]; key_pad [B, N]
    marks keys excluded from every query.

    Without `causal` the query rows are independent, so q may be any rows
    [B, Nq, d] of the full query matrix against all N keys.  Per tile of
    _token_tiles (a causal row reads its tile's keys alone), the output is
    (e @ v) / rowsum(e), e = exp(s - row max), divided over d columns, not
    N keys.  The tape keeps q, k, v, the masks and each row's max and sum."""
    (b, nq, d), dtype = q.shape, np.result_type(q, k, v)
    key_pad = None if key_pad is None else np.asarray(key_pad, dtype=bool)[:, None, :]
    s = dict(q=q, k=k, v=v, scale=1.0 / math.sqrt(d), causal=causal, key_pad=key_pad,
             peak=np.empty((b, nq, 1), dtype), total=np.empty((b, nq, 1), dtype))
    out = np.empty((b, nq, v.shape[2]), dtype)
    for blk, rows, keys, et in _token_tiles(s, 1):
        if TALLY.active:
            TALLY.matmul("scores", et.shape[1], d, keys, batch=et.shape[0])
            TALLY.matmul("attn_v", et.shape[1], keys, d, batch=et.shape[0])
        _token_exp(s, blk, rows, keys, et, first=True)
        # not BLAS's e @ ones, which sums a row by its place in the tile
        np.einsum("hrk,k->hr", et, np.ones(keys, dtype), out=s["total"][blk, rows, 0])
        np.matmul(et, v[blk, :keys], out=out[blk, rows])
        out[blk, rows] /= s["total"][blk, rows]
    return out, TapeNode(saved=s)


def token_attention_bwd(node, u, out):
    """Gradients of token_attention_fwd for upstream u, given its output
    `out`, which the caller keeps (the model as attn.wo's input).  The
    softmax backward's row term sum(p * (u @ v^T)) is delta = sum(u * out),
    so a tile rebuilds e alone (FlashAttention-2): dv = e^T (u / sum) and
    ds = e * ((u / sum) @ v^T - delta / sum), its subnormals flushed."""
    s = node.saved
    q, k, v, total = s["q"], s["k"], s["v"], s["total"]
    delta = np.einsum("bnd,bnd->bn", u, out)[..., None] / total
    dq, dk, dv = (np.empty(a.shape, total.dtype) for a in (q, k, v))
    for blk, rows, keys, et, ds in _token_tiles(s, 2):
        qs = _token_exp(s, blk, rows, keys, et)
        add = rows.stop < q.shape[1]  # rows above a block's first tile add to its dk, dv
        ut = u[blk, rows] / total[blk, rows]
        _matmul_into(et.transpose(0, 2, 1), ut, dv[blk, :keys], add)
        np.matmul(ut, v[blk, :keys].transpose(0, 2, 1), out=ds)
        ds -= delta[blk, rows]
        ds *= et
        ds[np.abs(ds, out=et) < np.finfo(ds.dtype).tiny] = 0.0  # e is read no more
        np.matmul(ds, k[blk, :keys], out=dq[blk, rows])
        _matmul_into(ds.transpose(0, 2, 1), qs, dk[blk, :keys], add)
    dq *= s["scale"]
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
    fs = normalize_scores(s, mode, n)
    # columns (f, j) of the output: V @ A_f^T for every filter in one product
    out = v @ _filter_gate(ws, fs).reshape(b, c * d, d).transpose(0, 2, 1)
    return out, _node(q=q, k=k, v=v, ws=ws, fs=fs, mode=mode)


def _filter_gate(ws, fs):
    """A = W_f * f(S) [B, c, d, d], which the backward rebuilds."""
    return ws[None, :, :, :] * fs[:, None, :, :]


def dim_attention_multi_bwd(node, u, wo, rows=None):
    """Gradients of Y = O @ wo, O = dim_attention_multi_fwd's [B, N, c*d]
    output and wo [c*d, w] the projection that reads it (np.eye(c*d) where
    none does), from u = dY [B, N, w]; "wo" is wo's gradient.

    Taken in d-space: Y = V @ M with M = A^T @ wo [B, d, w], A^T the
    filters' gates side by side [B, d, c*d].  So dM = V^T @ u, and
    linear_bwd of M gives dA^T and, as one product over B*d rows, dwo;
    dV = u @ M^T.  No [B, N, c*d] array is made.  With rows, a bool
    [B, N] marking the same count r in every window, Y was read at those
    rows alone: u holds their upstream [B*r, w] in row-major order, dM
    sums over them and dV is zero elsewhere.
    """
    s = node.saved
    q, k, v, ws = s["q"], s["k"], s["v"], s["ws"]
    b, n, d = q.shape
    c = ws.shape[0]
    at = _filter_gate(ws, s["fs"]).reshape(b, c * d, d).transpose(0, 2, 1)
    u = u.reshape(b, -1, u.shape[-1])
    vr = v if rows is None else v[rows].reshape(b, -1, d)
    gm = linear_bwd(_node(x=at, w=wo, has_bias=False), vr.transpose(0, 2, 1) @ u)
    dv = u @ (at @ wo).transpose(0, 2, 1)
    if rows is not None:
        dv = scatter_rows(dv.reshape(-1, d), rows)
    da = gm["x"].transpose(0, 2, 1).reshape(b, c, d, d)
    dws = np.einsum("bjm,bcjm->cjm", s["fs"], da)
    dfs = np.einsum("cjm,bcjm->bjm", ws, da)
    ds = _norm_bwd(dfs, s["fs"], s["mode"], n)
    dq = k @ ds.transpose(0, 2, 1)
    dk = q @ ds
    return {"q": dq, "k": dk, "v": dv, "ws": dws, "wo": gm["w"]}


# positions per chunk of the causal scan; at d=32 on a 2-vCPU Xeon, chunks
# of 128 ran slower and chunks of 32 no faster
_CHUNK = 64


def _chunk_prefix(q, k, start, s0):
    """Prefix states [B, C, d_j, d_m] of the chunk at s0, continuing `start`.

    Position-major: the scan adds each position's contiguous d x d state
    onto the next, bitwise equal to a whole-sequence cumulative sum, where
    np.cumsum along the strided middle axis of [B, d_j, C, d_m] took about
    twice as long."""
    # each entry one multiply, as in the broadcast product, in about a
    # quarter less time
    cum = np.einsum("bcj,bcm->bcjm", q[:, s0:s0 + _CHUNK], k[:, s0:s0 + _CHUNK])
    if s0:
        cum[:, 0] += start
    # one view per position, made once: re-indexing cum[:, i] on every
    # pass took a quarter to a third of a chunk's scan at d = 32
    states = list(cum.swapaxes(0, 1))
    for prev, cur in zip(states, states[1:]):
        np.add(cur, prev, out=cur)
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
        states = list(y.swapaxes(0, 1))
        for nxt, cur in zip(states[:0:-1], states[-2::-1]):
            np.add(cur, nxt, out=cur)
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
