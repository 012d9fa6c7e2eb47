"""Encoder-side dimension-wise attention: the literal oracle and its identities.

Token-wise attention relates token pairs through an N x N softmax weight
matrix, so its cost grows quadratically with sequence length N.  The
dimension-wise form instead scores pairs of embedding dimensions with the
d x d matrix S = Q^T K, which costs O(N d^2).

From S and V one can build a third-order tensor X with
X[i, j, k] = f(S)[j, k] * V[i, k] (slice X[:, :, k] is the outer product of
V's column k with f(S)'s column k, a matching-columnwise construction).
Summing X over j gives V scaled by column sums of f(S); summing over k gives
V @ f(S)^T.  A learned d x d filter W slid along the token axis generalizes
both: O[i, j] = sum_m W[j, m] * X[i, j, m].

This module builds that tensor literally: it is the oracle the factored
kernel O = V @ (W * f(S))^T in `grad.dim_attention_multi_fwd`, which never
allocates the tensor, is checked against.  The fast token-wise and
dimension-wise kernels live in `grad`.
"""

from __future__ import annotations

import numpy as np

# re-exported: the oracles use the normalization the kernels use
from .grad import NORM_MODES, normalize_scores  # noqa: F401


def dim_score(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Dimension-pair score matrix S = Q^T K (d x d), linear cost in N."""
    if q.shape != k.shape:
        raise ValueError(f"Q/K shapes differ: {q.shape} vs {k.shape}")
    if q.ndim != 2:
        raise ValueError(f"expected N x d matrices, got order {q.ndim}")
    return q.T @ k


def covariance_identity_check(h: np.ndarray, wq: np.ndarray, wk: np.ndarray) -> float:
    """Max deviation of dim_score(H Wq, H Wk) from Wq^T (H^T H) Wk.

    For column-centered H, H^T H is proportional to the covariance matrix of
    the inputs, so the score matrix is that covariance sandwiched between the
    two coefficient matrices.  The identity is exact algebra; the return
    value only measures floating-point evaluation-order differences.
    """
    col_means = h.mean(axis=0)
    worst = float(np.max(np.abs(col_means)))
    if worst > 1e-12:
        raise ValueError(f"input columns are not centered (max |mean| = {worst:.3e})")
    s = dim_score(h @ wq, h @ wk)
    ref = wq.T @ (h.T @ h) @ wk
    return float(np.max(np.abs(s - ref)))


def kr_tensor(s: np.ndarray, v: np.ndarray, mode: str = "none") -> np.ndarray:
    """Materialize the N x d x d tensor X[i, j, k] = f(S)[j, k] * V[i, k]."""
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"score matrix must be square, got {s.shape}")
    if v.ndim != 2 or v.shape[1] != s.shape[0]:
        raise ValueError(f"V width {v.shape} does not match scores {s.shape}")
    fs = normalize_scores(s, mode, v.shape[0])
    return fs[None, :, :] * v[:, None, :]


def explicit_rep(x: np.ndarray) -> np.ndarray:
    """Sum the tensor over its second index: out[i, k] = sum_j X[i, j, k].

    Each output coefficient sits under a single basis vector, the same output
    form token-wise attention produces.  With column-normalized scores the
    column sums are 1 and the result is exactly V.
    """
    if x.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got order {x.ndim}")
    return x.sum(axis=1)


def implicit_rep(x: np.ndarray) -> np.ndarray:
    """Sum the tensor over its third index: out[i, j] = sum_k X[i, j, k].

    Each token is a weighted mix over all basis vectors; equals V @ f(S)^T.
    """
    if x.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got order {x.ndim}")
    return x.sum(axis=2)


def conv_extract(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Slide a shared d x d filter along the token axis of the tensor.

    O[i, j] = sum_m W[j, m] * X[i, j, m]; each output column j has its own
    weight row, and the filter is shared across all N slices.  An all-ones
    filter reduces to implicit_rep.
    """
    if x.ndim != 3:
        raise ValueError(f"expected an order-3 tensor, got order {x.ndim}")
    if w.shape != x.shape[1:]:
        raise ValueError(f"filter {w.shape} does not match tensor slices {x.shape[1:]}")
    # Broadcast-multiply then sum so an all-ones filter reproduces
    # implicit_rep bit for bit (same reduction path).
    return (w[None, :, :] * x).sum(axis=2)


def dim_attention_materialized(q, k, v, w, mode: str = "none") -> np.ndarray:
    """Literal pipeline: scores -> tensor -> filter.  The equivalence oracle."""
    return conv_extract(kr_tensor(dim_score(q, k), v, mode), w)
