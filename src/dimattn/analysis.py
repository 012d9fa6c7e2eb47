"""Analytic FLOPs accounting and wall-clock scaling sweeps.

Counting convention (the same one the kernel tally uses, see opcount):
a length-L dot product is L multiplies and L-1 adds; elementwise products
count one multiply per entry; softmax exponentials/divisions and scalar
scaling are excluded.  Under this convention every analytic component below
reproduces the instrumented kernel counters exactly, integer for integer.

Scaling identities used by the verification suites (exact, not asymptotic):

  * dimension-wise attention is affine in N, so f(2N) - f(N) doubles when N
    doubles, and the V @ (W*f(S))^T component is purely linear in N;
  * token-wise attention is quadratic plus linear in N, so f(2N) - 2 f(N)
    isolates the quadratic part, which quadruples; the score component
    N^2 (2d - 1) is purely quadratic already.

Benchmarks time the `grad` forward kernels that training runs (one filter
is ws[None]) on identical seeded inputs and report the median of k >= 5
timed repeats after three discarded warmup runs.  Token-wise attention is
called on blocks of query rows, which are independent without a causal
mask, so long-N timings never hold the full N x N matrix; the arithmetic
per row is identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import grad, masked
from .tensor import make_rng


@dataclass(frozen=True)
class Counts:
    mults: int = 0
    adds: int = 0

    @property
    def total(self) -> int:
        return self.mults + self.adds

    def __add__(self, other):
        return Counts(self.mults + other.mults, self.adds + other.adds)

    def times(self, k: int):
        return Counts(self.mults * k, self.adds * k)


def matmul_counts(m: int, k: int, n: int) -> Counts:
    """(m x k) @ (k x n): m*n dot products of length k."""
    return Counts(m * n * k, m * n * (k - 1))


@dataclass
class FlopsReport:
    variant: str
    config: dict
    components: dict = field(default_factory=dict)

    @property
    def mults(self) -> int:
        return sum(c.mults for c in self.components.values())

    @property
    def adds(self) -> int:
        return sum(c.adds for c in self.components.values())

    @property
    def total(self) -> int:
        return self.mults + self.adds


def flops_token_attention(n: int, d: int, h: int = 1,
                          include_projections: bool = False) -> FlopsReport:
    """Token-wise attention cost: h heads of scores Q K^T and the P V mix.

    With include_projections, the three input projections (d_model x d per
    head, d_model = h*d) and the output projection are added.
    """
    if n < 1 or d < 1 or h < 1:
        raise ValueError("N, d and h must be positive")
    comps = {
        "scores": matmul_counts(n, d, n).times(h),
        "attn_v": matmul_counts(n, n, d).times(h),
    }
    if include_projections:
        d_model = h * d
        proj = matmul_counts(n, d_model, d).times(h)
        comps = {
            "proj_q": proj, "proj_k": proj, "proj_v": proj,
            **comps,
            "proj_out": matmul_counts(n, h * d, d_model),
        }
    return FlopsReport("token", {"N": n, "d": d, "h": h,
                                 "projections": include_projections}, comps)


def flops_dim_attention(n: int, d: int, g: int = 1, c: int = 1,
                        include_projections: bool = False) -> FlopsReport:
    """Dimension-wise attention cost: per group one Q^T K, per filter the
    elementwise gate W * f(S) and the mix V @ (.)^T.

    With include_projections, each group's three input projections
    (d_model x d, d_model = g*c*d) and the shared output projection are added.
    """
    if n < 1 or d < 1 or g < 1 or c < 1:
        raise ValueError("N, d, g and c must be positive")
    comps = {
        "scores": matmul_counts(d, n, d).times(g),
        "filter_gate": Counts(d * d, 0).times(g * c),
        "filter_mix": matmul_counts(n, d, d).times(g * c),
    }
    if include_projections:
        d_model = g * c * d
        proj = matmul_counts(n, d_model, d).times(g)
        comps = {
            "proj_q": proj, "proj_k": proj, "proj_v": proj,
            **comps,
            "proj_out": matmul_counts(n, g * c * d, d_model),
        }
    return FlopsReport("dim", {"N": n, "d": d, "g": g, "c": c,
                               "projections": include_projections}, comps)


def flops_masked(n: int, d: int, streaming: bool) -> FlopsReport:
    """Causal dimension-wise cost for one filter, naive vs prefix-sum form."""
    if streaming:
        comps = {
            "cum_outer": Counts(n * d * d, (n - 1) * d * d),
            "masked_mix": Counts(2 * n * d * d, n * d * (d - 1)),
        }
        return FlopsReport("masked_streaming", {"N": n, "d": d}, comps)
    comps = {
        "masked_scores_naive": Counts(2 * d * d * n * n, d * d * n * (n - 1)),
        "masked_kr": Counts(n * d * d, 0),
        "masked_conv": Counts(n * d * d, n * d * (d - 1)),
    }
    return FlopsReport("masked_naive", {"N": n, "d": d}, comps)


# ---------------------------------------------------------------------------
# wall-clock sweeps
# ---------------------------------------------------------------------------

BENCH_VARIANTS = ("token_encoder", "dim_encoder", "masked_naive", "masked_streaming")

# Rows per token-attention call: a 32 x N score block is 1 MB at N = 4096,
# small enough to stay in a 2 MB L2 through the softmax passes over it;
# at 128 rows it spills from N = 2048 on and the timings scale faster than N^2.
_TOKEN_ROW_BLOCK = 32


def token_attention_rows(q, k, v, row_block: int = _TOKEN_ROW_BLOCK) -> np.ndarray:
    """Non-causal `grad.token_attention_fwd` evaluated on blocks of query rows."""
    out = np.empty_like(v)
    for lo in range(0, q.shape[0], row_block):
        out[lo:lo + row_block] = grad.token_attention_fwd(q[lo:lo + row_block], k, v)[0]
    return out


def _bench_one(variant: str, n: int, d: int, rng) -> tuple:
    q = rng.standard_normal((n, d))
    k = rng.standard_normal((n, d))
    v = rng.standard_normal((n, d))
    w = rng.standard_normal((d, d))
    if variant == "token_encoder":
        fn = lambda: token_attention_rows(q, k, v)
        flops = flops_token_attention(n, d).total
    elif variant == "dim_encoder":
        fn = lambda: grad.dim_attention_multi_fwd(q, k, v, w[None], "softmax_rows_over_k")
        flops = flops_dim_attention(n, d).total
    elif variant == "masked_naive":
        fn = lambda: masked.masked_output_vectorized_naive(q, k, v, w)
        flops = flops_masked(n, d, streaming=False).total
    elif variant == "masked_streaming":
        fn = lambda: grad.masked_attention_multi_fwd(q, k, v, w[None])
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
