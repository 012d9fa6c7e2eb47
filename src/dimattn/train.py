"""Training loop for the masked-LM and causal-LM tasks.

Runs are deterministic: batch selection, masking, and dropout all derive
from the run seed plus step counters, metric rows are accumulated and
written once with fixed formatting, and checkpoints serialize with sorted
tensor names.  Two runs with the same config and seed produce byte-identical
metrics CSV and checkpoint files.
"""

from __future__ import annotations

import os
from dataclasses import fields

import numpy as np

from . import data, model
from .checkpoint import save_checkpoint
from .config import RunConfig
from .grad import cross_entropy_masked_fwd


def _load_windows(cfg: RunConfig):
    vocab, ids = data.build_corpus(cfg.data, cfg.tokenizer, cfg.vocab_cap)
    win, pad = data.windows(ids, cfg.seq_len)
    train_split, valid_split = data.split_windows(win, pad, cfg.valid_fraction)
    return vocab, train_split, valid_split


def _eval_nll(params, bc, cfg: RunConfig, valid_split, decoder: bool) -> float:
    win, pad = valid_split
    if win.shape[0] == 0:
        return float("nan")
    num_batches = min(cfg.eval_batches,
                      (win.shape[0] + cfg.batch_size - 1) // cfg.batch_size)
    total, count = 0.0, 0
    for step in range(num_batches):
        if cfg.task == "mlm":
            batch = data.mlm_batch(win, pad, bc.vocab_size, cfg.seed, step,
                                   cfg.batch_size, eval_mode=True)
        else:
            batch = data.clm_batch(win, pad, cfg.seed, step, cfg.batch_size,
                                   eval_mode=True)
        if batch.inputs.shape[0] == 0 or not batch.mask.any():
            continue
        logits, _ = model.forward(params, batch.inputs, bc, decoder=decoder,
                                  pad=batch.pad)
        loss, _ = cross_entropy_masked_fwd(logits, batch.targets, batch.mask)
        n = int(batch.mask.sum())
        total += loss * n
        count += n
    return total / count if count else float("nan")


def run_training(cfg: RunConfig, ckpt_dir: str, metrics_path: str | None = None,
                 log=print) -> dict:
    """Train per the config; returns {'final_valid_nll', 'metrics_path', ...}."""
    os.makedirs(ckpt_dir, exist_ok=True)
    if metrics_path is None:
        metrics_path = os.path.join(ckpt_dir, "metrics.csv")
    vocab, train_split, valid_split = _load_windows(cfg)
    bc = cfg.block_config(vocab.size)
    tc = cfg.train_config()
    decoder = cfg.task == "clm"
    params = model.init_params(bc, tc.seed)
    state = model.AdamState()

    log_lines = [f"{line}" for line in cfg.echo_lines()]
    log_lines.append(f"vocab_size={vocab.size}")
    log_lines.append(f"train_windows={train_split[0].shape[0]}")
    log_lines.append(f"valid_windows={valid_split[0].shape[0]}")
    for line in log_lines:
        log(line)

    win, pad = train_split
    rows = []
    valid_nll = float("nan")
    for step in range(tc.steps):
        if cfg.task == "mlm":
            batch = data.mlm_batch(win, pad, bc.vocab_size, tc.seed, step,
                                   tc.batch_size)
        else:
            batch = data.clm_batch(win, pad, tc.seed, step, tc.batch_size)
        loss = model.train_step(
            (batch.inputs, batch.targets, batch.mask, batch.pad),
            params, state, bc, tc, step, decoder=decoder)
        rows.append(f"{step},train,{loss:.12g}")
        if (step + 1) % tc.eval_interval == 0 or step + 1 == tc.steps:
            valid_nll = _eval_nll(params, bc, cfg, valid_split, decoder)
            rows.append(f"{step},valid,{valid_nll:.12g}")
            log(f"step {step + 1}/{tc.steps} train_nll={loss:.4f} "
                f"valid_nll={valid_nll:.4f}")

    with open(metrics_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("step,split,nll\n")
        f.write("\n".join(rows) + "\n")
    ckpt_path = os.path.join(ckpt_dir, "final.ckpt")
    save_checkpoint(ckpt_path, params, cfg.as_dict())
    with open(os.path.join(ckpt_dir, "run.log"), "w", encoding="utf-8") as f:
        f.write("\n".join(log_lines) + "\n")
        f.write(f"final_valid_nll={valid_nll:.12g}\n")
    return {
        "final_valid_nll": valid_nll,
        "metrics_path": metrics_path,
        "checkpoint_path": ckpt_path,
        "vocab_size": vocab.size,
        "params": params,
        "block_config": bc,
    }


def _check_param_shapes(params: dict, bc: model.BlockConfig):
    """Every tensor the config implies, with its shape, and nothing else."""
    want = {name: tuple(shape) for name, shape, _ in model._param_specs(bc)}
    got = {name: arr.shape for name, arr in params.items()}
    for name in sorted(set(want) | set(got)):
        if want.get(name) != got.get(name):
            raise ValueError(
                f"checkpoint does not fit the config and corpus (vocab_size "
                f"{bc.vocab_size}): tensor {name!r} has shape {got.get(name)} "
                f"in the file, {want.get(name)} expected")


def evaluate_checkpoint(ckpt_path: str, override_data: str | None = None) -> dict:
    """Reload a checkpoint and report NLL on the held-out split."""
    from .checkpoint import load_checkpoint

    params, cfg_dict = load_checkpoint(ckpt_path)
    unknown = sorted(set(cfg_dict) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"checkpoint config has unknown keys {unknown}")
    cfg = RunConfig(**cfg_dict)
    if override_data:
        cfg.data = override_data
    vocab, _, valid_split = _load_windows(cfg)
    bc = cfg.block_config(vocab.size)
    _check_param_shapes(params, bc)
    params = {k: v.astype(bc.dtype) for k, v in params.items()}
    nll = _eval_nll(params, bc, cfg, valid_split, decoder=cfg.task == "clm")
    return {"valid_nll": nll, "vocab_size": vocab.size, "task": cfg.task}
