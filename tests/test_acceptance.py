"""Acceptance criteria, one test per criterion, each printing a PASS line.

The desk-scale training surrogate (criterion 10) trains two 2,000-step
models and dominates the suite's runtime; run with `-s` to watch progress.
It and the wall-clock sweep (criterion 8) are marked `slow`; every other
criterion runs in the fast loop, `pytest -m "not slow"`.
"""

import math
import time

import numpy as np
import pytest

from dimattn import analysis, data, verify
from dimattn.config import RunConfig
from dimattn.train import run_training


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_factored_equivalence():
    t0 = time.time()
    ok, detail = verify.suite_factored_equivalence(seed=0)
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 10.0, f"{detail}; ran in {elapsed:.1f}s (< 10 s)")


def test_criterion_2_masked_equivalence():
    t0 = time.time()
    ok, detail = verify.suite_masked_equivalence(seed=0)
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 30.0, f"{detail}; ran in {elapsed:.1f}s (< 30 s)")


def test_criterion_3_causality():
    ok, detail = verify.suite_causality(seed=0)
    _report(3, ok, detail)


def test_criterion_4_covariance_identity():
    ok, detail = verify.suite_covariance_identity(seed=0)
    _report(4, ok, detail)


def test_criterion_5_representation_identities():
    ok, detail = verify.suite_tensor_representations(seed=0)
    _report(5, ok, detail)


def test_criterion_6_gradient_suite():
    ok1, d1 = verify.suite_gradient_ops(seed=0)
    ok2, d2 = verify.suite_gradient_end_to_end(seed=0)
    _report(6, ok1 and ok2, f"{d1}; {d2}")


def test_criterion_7_flops_consistency():
    ok, detail = verify.suite_flops_consistency(seed=0)
    _report(7, ok, detail)


@pytest.mark.slow
def test_criterion_8_wall_clock_separation():
    t0 = time.time()
    result = analysis.bench_sweep(["token_encoder", "dim_encoder"],
                                  [1024, 2048, 4096], [64], repeats=15, seed=0,
                                  min_sample_seconds=0.25)
    elapsed = time.time() - t0
    dim_ratios = analysis.doubling_ratios(result, "dim_encoder")
    token_ratios = analysis.doubling_ratios(result, "token_encoder")
    dim_ok = all(1.5 <= r <= 3.0 for r in dim_ratios)
    token_ok = all(3.0 <= r <= 5.5 for r in token_ratios)
    # the median seconds at each N name the grid point a failing ratio moved
    medians = "; ".join(
        f"{variant} median s " + ", ".join(f"N={n}: {t:.4g}"
                                           for n, t in sorted(result.times(variant).items()))
        for variant in ("dim_encoder", "token_encoder"))
    _report(8, dim_ok and token_ok and elapsed < 300.0,
            f"dim doubling ratios {[f'{r:.2f}' for r in dim_ratios]} in [1.5, 3.0]; "
            f"token ratios {[f'{r:.2f}' for r in token_ratios]} in [3.0, 5.5]; "
            f"{medians}; bench took {elapsed:.0f}s (< 5 min)")


def test_criterion_9_flops_ordering():
    token = analysis.flops_token_attention(100, 64, 8, include_projections=True)
    dim = analysis.flops_dim_attention(100, 64, 8, 1, include_projections=True)
    core_token = analysis.flops_token_attention(100, 64, 8)
    core_dim = analysis.flops_dim_attention(100, 64, 8, 1)
    ratio = token.total / dim.total
    core_ratio = core_token.total / core_dim.total
    _report(9, dim.total < token.total,
            f"dim {dim.total:,} < token {token.total:,} at N=100, d_model=512 "
            f"(ratio {ratio:.3f} with projections, {core_ratio:.2f} core-only; "
            f"qualitative 2-4 range not gated, counting convention documented)")


@pytest.fixture(scope="module")
def mlm_runs(tmp_path_factory, corpus_path):
    """Criterion 10 workhorse: both 2,000-step trainings, timed."""
    root = tmp_path_factory.mktemp("accept-mlm")
    base = dict(
        task="mlm", data=corpus_path, tokenizer="char", seq_len=100,
        d_model=128, layers=2, ffn_width=256, batch_size=8, steps=2000,
        lr=3e-3, warmup=200, eval_interval=500, eval_batches=8,
        valid_fraction=0.05, dropout=0.1, seed=0,
    )
    t0 = time.time()
    quiet = lambda *_: None
    dim = run_training(
        RunConfig(**base, attention="dim", groups=1, convs=8, head_dim=32),
        str(root / "dim"), log=quiet)
    token = run_training(
        RunConfig(**base, attention="token", heads=8),
        str(root / "token"), log=quiet)
    return {"dim": dim, "token": token, "elapsed": time.time() - t0}


@pytest.mark.slow
def test_criterion_10_mlm_surrogate(mlm_runs, corpus_path):
    import os
    corpus_bytes = os.path.getsize(corpus_path)
    vocab_size = mlm_runs["dim"]["vocab_size"]
    target = 0.8 * math.log(vocab_size)
    nll_dim = mlm_runs["dim"]["final_valid_nll"]
    nll_token = mlm_runs["token"]["final_valid_nll"]
    gap = abs(nll_token - nll_dim) / nll_dim
    elapsed_min = mlm_runs["elapsed"] / 60.0

    stats_ok, stats_detail = verify.suite_masking_statistics(seed=0)

    ok = (corpus_bytes >= 200_000
          and nll_dim < target
          and gap <= 0.15
          and elapsed_min < 30.0
          and stats_ok)
    _report(10, ok,
            f"corpus {corpus_bytes:,} B (>= 200 KB); dim valid NLL {nll_dim:.3f} "
            f"< 0.8 ln {vocab_size} = {target:.3f}; token baseline {nll_token:.3f} "
            f"within {gap * 100:.1f}% (<= 15%); both runs took {elapsed_min:.1f} "
            f"min (< 30); masking stats: {stats_detail}")


@pytest.mark.slow
def test_criterion_10_training_curve(mlm_runs):
    # smoothed train NLL strictly decreases across the first 500 steps
    with open(mlm_runs["dim"]["metrics_path"], encoding="utf-8") as f:
        lines = f.read().strip().split("\n")[1:]
    train = [float(line.split(",")[2]) for line in lines
             if line.split(",")[1] == "train"]
    buckets = [np.mean(train[i: i + 100]) for i in range(0, 500, 100)]
    ok = all(b > a for a, b in zip(buckets[1:], buckets))
    _report(10.1, ok,
            "smoothed train NLL over the first 500 steps strictly decreasing: "
            + " > ".join(f"{b:.3f}" for b in buckets))


def test_criterion_11_byte_determinism(tmp_path, corpus_path):
    from dimattn import cli
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        f"data = {corpus_path}\n"
        "seq_len = 48\nd_model = 32\nlayers = 1\nconvs = 2\nhead_dim = 16\n"
        "ffn_width = 64\nbatch_size = 4\nsteps = 60\nwarmup = 20\n"
        "eval_interval = 30\neval_batches = 2\nseed = 13\n", encoding="utf-8")
    outs = []
    for name in ("run-a", "run-b"):
        ckpt_dir = tmp_path / name
        assert cli.main(["train-mlm", "--config", str(cfg),
                         "--ckpt-dir", str(ckpt_dir)]) == 0
        outs.append(((ckpt_dir / "metrics.csv").read_bytes(),
                     (ckpt_dir / "final.ckpt").read_bytes()))
    metrics_same = outs[0][0] == outs[1][0]
    ckpt_same = outs[0][1] == outs[1][1]
    _report(11, metrics_same and ckpt_same,
            f"two seeded runs: metrics CSV byte-identical: {metrics_same}, "
            f"checkpoints byte-identical: {ckpt_same}")
