"""Analytic FLOPs accounting and wall-clock scaling sweeps.

Each analytic report is an `opcount.OpTally` filled with the calls the
kernel hooks make, under the same counting convention: a length-L dot
product is L multiplies and L-1 adds; elementwise products count one
multiply per entry; softmax exponentials/divisions and scalar scaling are
excluded.  The token, dim and streaming causal reports equal the `grad`
kernels' counters integer for integer, save a causal token kernel's,
which counts the fewer keys its tiles read; the naive causal report
alone states the cost of the literal oracles, which carry no hooks.

Scaling identities used by the verification suites (exact, not asymptotic):

  * dimension-wise attention is affine in N, so f(2N) - f(N) doubles when N
    doubles, and the V @ (W*f(S))^T component is purely linear in N;
  * token-wise attention is quadratic plus linear in N, so f(2N) - 2 f(N)
    isolates the quadratic part, which quadruples; the score component
    N^2 (2d - 1) is purely quadratic already;
  * naive causal score multiplies quadruple when N doubles, streaming ones double.

Benchmarks time the `grad` forward kernels that training runs (one filter
is ws[None]) on identical seeded inputs and report the median of k >= 5
timed repeats after three discarded warmup runs.  The token kernel walks
tiles of query rows, so long-N timings never hold the full N x N matrix.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import grad, masked
from .opcount import OpTally
from .tensor import make_rng


def flops_token_attention(n: int, d: int, h: int = 1,
                          include_projections: bool = False) -> OpTally:
    """Token-wise attention cost: h heads of scores Q K^T and the P V mix.

    With include_projections, the three input projections (d_model x d per
    head, d_model = h*d) and the output projection are added.
    """
    if n < 1 or d < 1 or h < 1:
        raise ValueError("N, d and h must be positive")
    d_model = h * d
    rep = OpTally()
    if include_projections:
        for name in ("proj_q", "proj_k", "proj_v"):
            rep.matmul(name, n, d_model, d, batch=h)
    rep.matmul("scores", n, d, n, batch=h)
    rep.matmul("attn_v", n, n, d, batch=h)
    if include_projections:
        rep.matmul("proj_out", n, d_model, d_model)
    return rep


def flops_dim_attention(n: int, d: int, g: int = 1, c: int = 1,
                        include_projections: bool = False) -> OpTally:
    """Dimension-wise attention cost: per group one Q^T K, per filter the
    elementwise gate W * f(S) and the mix V @ (.)^T.

    With include_projections, each group's three input projections
    (d_model x d, d_model = g*c*d) and the shared output projection are added.
    """
    if n < 1 or d < 1 or g < 1 or c < 1:
        raise ValueError("N, d, g and c must be positive")
    d_model = g * c * d
    rep = OpTally()
    if include_projections:
        for name in ("proj_q", "proj_k", "proj_v"):
            rep.matmul(name, n, d_model, d, batch=g)
    rep.matmul("scores", d, n, d, batch=g)
    rep.elemwise_mul("filter_gate", g * c * d * d)
    rep.matmul("filter_mix", n, d, d, batch=g * c)
    if include_projections:
        rep.matmul("proj_out", n, d_model, d_model)
    return rep


def flops_masked(n: int, d: int, streaming: bool) -> OpTally:
    """Causal dimension-wise cost for one filter, naive vs prefix-sum form."""
    if n < 1 or d < 1:
        raise ValueError("N and d must be positive")
    rep = OpTally()
    if streaming:
        rep.add("cum_outer", n * d * d, (n - 1) * d * d)
        rep.add("masked_mix", 2 * n * d * d, n * d * (d - 1))
    else:
        rep.add("masked_scores_naive", 2 * d * d * n * n, d * d * n * (n - 1))
        rep.elemwise_mul("masked_kr", n * d * d)
        rep.add("masked_conv", n * d * d, n * d * (d - 1))
    return rep


# ---------------------------------------------------------------------------
# wall-clock sweeps
# ---------------------------------------------------------------------------

def _bench_one(variant: str, n: int, d: int, rng) -> tuple:
    q = rng.standard_normal((n, d))
    k = rng.standard_normal((n, d))
    v = rng.standard_normal((n, d))
    w = rng.standard_normal((d, d))
    if variant == "token_encoder":
        fn = lambda: grad.token_attention_fwd(q[None], k[None], v[None])
        flops = flops_token_attention(n, d).total
    elif variant == "dim_encoder":
        fn = lambda: grad.dim_attention_multi_fwd(q[None], k[None], v[None], w[None],
                                                  "softmax_rows_over_k")
        flops = flops_dim_attention(n, d).total
    elif variant == "masked_naive":
        fn = lambda: masked.masked_output_vectorized_naive(q, k, v, w)
        flops = flops_masked(n, d, streaming=False).total
    elif variant == "masked_streaming":
        fn = lambda: grad.masked_attention_multi_fwd(q[None], k[None], v[None], w[None])
        flops = flops_masked(n, d, streaming=True).total
    else:
        raise ValueError(f"unknown bench variant {variant!r}")
    return fn, flops


@dataclass
class SweepResult:
    rows: list = field(default_factory=list)  # dicts with the CSV columns

    def to_csv(self) -> str:
        lines = ["variant,N,d,groups,convs,median_seconds,flops"]
        for r in self.rows:
            lines.append(
                f"{r['variant']},{r['N']},{r['d']},{r['groups']},{r['convs']},"
                f"{r['median_seconds']:.6e},{r['flops']}"
            )
        return "\n".join(lines) + "\n"

    def times(self, variant: str) -> dict:
        return {r["N"]: r["median_seconds"] for r in self.rows
                if r["variant"] == variant}


def bench_sweep(variants, n_list, d_list, repeats: int = 7, seed: int = 0,
                min_sample_seconds: float = 0.1) -> SweepResult:
    """Median wall-clock per (variant, N, d) on identical seeded inputs.

    Each timed sample loops the kernel until it covers at least
    `min_sample_seconds` and records the per-call time, so scheduler jitter
    amortizes away for fast kernels; the reported figure is the median over
    `repeats` such samples.  Rows come out in deterministic order (variants,
    then N, then d); the group/conv columns echo the single-filter core
    being timed.
    """
    if repeats < 5:
        raise ValueError("repeats must be >= 5 for a stable median")
    points = []
    for variant in variants:
        for n in n_list:
            for d in d_list:
                rng = make_rng(seed)
                fn, flops = _bench_one(variant, int(n), int(d), rng)
                for _ in range(3):  # warmup runs, discarded
                    fn()
                t0 = time.perf_counter()
                fn()
                once = max(time.perf_counter() - t0, 1e-9)
                loops = max(1, int(math.ceil(min_sample_seconds / once)))
                points.append({"variant": variant, "N": int(n), "d": int(d),
                               "fn": fn, "loops": loops, "flops": flops,
                               "samples": []})
    # Interleave the repeats across all grid points so a noisy burst on a
    # shared machine lands on every point alike instead of skewing one size.
    for _ in range(repeats):
        for pt in points:
            t0 = time.perf_counter()
            for _ in range(pt["loops"]):
                pt["fn"]()
            pt["samples"].append((time.perf_counter() - t0) / pt["loops"])
    result = SweepResult()
    for pt in points:
        samples = sorted(pt["samples"])
        result.rows.append({
            "variant": pt["variant"], "N": pt["N"], "d": pt["d"],
            "groups": 1, "convs": 1,
            "median_seconds": samples[repeats // 2],
            "flops": pt["flops"],
        })
    return result


def doubling_ratios(result: SweepResult, variant: str) -> list:
    """Time ratios between consecutive N doublings for one variant."""
    times = result.times(variant)
    ns = sorted(times)
    return [times[b] / times[a] for a, b in zip(ns, ns[1:]) if b == 2 * a]
