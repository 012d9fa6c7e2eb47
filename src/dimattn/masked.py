"""Causal dimension-wise attention for decoding.

Position k may only use tokens at positions n <= k (inclusive diagonal: a
token sees itself, otherwise position 0 would have nothing to attend to).
The masked score tensor stacks one d x d score matrix per position,

    S3[i, j, k] = sum_n Q[n, i] * K[n, j] * M[n, k],

where M is the upper-triangular mask M[n, k] = 1 for n <= k.  Because slice
k differs from slice k-1 by exactly the outer product q_k k_k^T, the whole
tensor is a running prefix sum and can be evaluated in O(N d^2) instead of
the O(N^2 d^2) the literal sum costs.

This module holds the literal four-index-loop forms, the correctness
oracles, plus the prefix-sum score tensor as a checked identity.  The fast
causal kernel is `grad.masked_attention_multi_fwd`.  The output contraction
applies a shared d x d filter exactly as in the encoder:

    O[i, j] = sum_m W[j, m] * S3[j, m, i] * V[i, m].
"""

from __future__ import annotations

import numpy as np

from .opcount import TALLY


def causal_mask(n: int) -> np.ndarray:
    """Upper-triangular mask with inclusive diagonal: M[n, k] = 1 iff n <= k."""
    if n < 1:
        raise ValueError("sequence length must be >= 1")
    idx = np.arange(n)
    return (idx[:, None] <= idx[None, :]).astype(np.float64)


def _check_pair(q, k):
    if q.shape != k.shape:
        raise ValueError(f"Q/K shapes differ: {q.shape} vs {k.shape}")
    if q.ndim != 2:
        raise ValueError(f"expected N x d matrices, got order {q.ndim}")


def masked_score_naive(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Literal four-index evaluation of the masked score tensor (d x d x N).

    Every term including the masked-off ones is multiplied out, which is the
    point: this is the slow, obviously-correct oracle the streaming form is
    checked against.
    """
    _check_pair(q, k)
    n, d = q.shape
    m = causal_mask(n)
    if TALLY.active:
        TALLY.add("masked_scores_naive", 2 * d * d * n * n, d * d * n * (n - 1))
    out = np.zeros((d, d, n))
    for i in range(d):
        qi = q[:, i]
        for j in range(d):
            qk = qi * k[:, j]
            for kk in range(n):
                acc = 0.0
                for nn in range(n):
                    acc += qk[nn] * m[nn, kk]
                out[i, j, kk] = acc
    return out


def masked_score_streaming(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Prefix-sum evaluation of the masked score tensor; O(N d^2) total.

    Slice k is the running sum of the per-token outer products q_n k_n^T
    for n <= k, the state the causal kernel carries.
    """
    _check_pair(q, k)
    cum = np.cumsum(q[:, :, None] * k[:, None, :], axis=0)
    return np.ascontiguousarray(cum.transpose(1, 2, 0))


def masked_kr_tensor(s3: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Broadcast product of per-position score slices with rows of V.

    X[i, j, k] = S3[j, k, i] * V[i, k]: slice i of the score tensor (sliced
    by its last index) is scaled columnwise by token i's value row.
    """
    if s3.ndim != 3 or v.ndim != 2:
        raise ValueError(f"expected order-3 scores and N x d values, got {s3.shape}, {v.shape}")
    d, d2, n = s3.shape
    if d != d2 or v.shape != (n, d):
        raise ValueError(f"extent mismatch: scores {s3.shape} vs values {v.shape}")
    if TALLY.active:
        TALLY.elemwise_mul("masked_kr", n * d * d)
    return s3.transpose(2, 0, 1) * v[:, None, :]


def masked_output(q, k, v, w):
    """Causal dimension-wise attention O[i, j] = sum_m W[j,m] S3[j,m,i] V[i,m].

    Composes the literal oracle pieces and sums the filter contraction in
    explicit loops; the oracle for `grad.masked_attention_multi_fwd`.
    """
    _check_pair(q, k)
    n, d = q.shape
    if v.shape != (n, d):
        raise ValueError(f"V shape {v.shape} does not match Q/K {q.shape}")
    if w.shape != (d, d):
        raise ValueError(f"filter must be {d}x{d}, got {w.shape}")
    x = masked_kr_tensor(masked_score_naive(q, k), v)
    if TALLY.active:
        TALLY.add("masked_conv", n * d * d, n * d * (d - 1))
    out = np.zeros((n, d))
    for i in range(n):
        for j in range(d):
            acc = 0.0
            for m in range(d):
                acc += w[j, m] * x[i, j, m]
            out[i, j] = acc
    return out


def masked_output_vectorized_naive(q, k, v, w):
    """Literal masked sum evaluated with library kernels, still O(N^2 d^2).

    Used only for benchmarking, where comparing a C-speed quadratic kernel
    against the C-speed linear one is the fair contest; the loop oracle above
    stays the correctness reference.
    """
    _check_pair(q, k)
    n, d = q.shape
    m = causal_mask(n)
    if TALLY.active:
        TALLY.add("masked_scores_naive", 2 * d * d * n * n, d * d * n * (n - 1))
        TALLY.elemwise_mul("masked_kr", n * d * d)
        TALLY.add("masked_conv", n * d * d, n * d * (d - 1))
    s3 = np.einsum("ni,nj,nk->ijk", q, k, m)
    return np.einsum("jm,jmi,im->ij", w, s3, v)
