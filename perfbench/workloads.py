"""The three workloads: model shapes, training length and corpus size.

Shapes follow `configs/tiny-mlm.cfg`, `configs/tiny-clm.cfg` and
`configs/tiny-token-mlm.cfg`; the training length is cut to one short round
so a benchmark run can repeat it several times.  The warmup is short so the
model learns past unigram statistics within the round, which the benchmark
checks.  eval_batches covers every held-out window of the 200k-character
corpus (about 400 windows of 100, or 39 of 1024), so one evaluation lasts
a few seconds.
"""

from __future__ import annotations

CORPUS_CHARS = 200_000

_SHARED = dict(
    tokenizer="char", d_model=128, layers=2, groups=1, convs=8, head_dim=32,
    heads=8, ffn_width=256, norm_mode="softmax_rows_over_k", dropout=0.1,
    lr=0.003, warmup=10, valid_fraction=0.2, eval_batches=64,
    precision="f64",
)

# Why each workload is here (also in BENCHMARK.json):
#   mlm-dim       dim encoder kernels and the shared layers; no causal scan
#   clm-dim-long  the prefix-sum causal scan at N=1024, its [B, N, d, d] state
#   mlm-token     token attention baseline; no dim kernel runs, so a
#                 dim-kernel change must leave it flat
WORKLOADS = {
    "mlm-dim": dict(task="mlm", attention="dim", seq_len=100, batch_size=8,
                    steps=40),
    # one window per step: twice the optimizer steps of B=2 for the same
    # tokens, which the unigram check needs within one round
    "clm-dim-long": dict(task="clm", attention="dim", seq_len=1024,
                         batch_size=1, steps=60),
    "mlm-token": dict(task="mlm", attention="token", seq_len=100,
                      batch_size=8, steps=40),
}


def run_config_fields(name: str, corpus: str, seed: int) -> dict:
    """Every RunConfig field the benchmark sets for one round of `name`."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    spec = dict(_SHARED, **WORKLOADS[name])
    # a single evaluation, after the last step
    spec.update(data=corpus, seed=seed, eval_interval=spec["steps"])
    return spec


def eval_windows(spec: dict, valid_windows: int) -> int:
    """Held-out windows one evaluation pass scores (see train._eval_nll)."""
    return min(spec["eval_batches"] * spec["batch_size"], valid_windows)
