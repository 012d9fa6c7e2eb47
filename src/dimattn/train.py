"""Training loop for the masked-LM and causal-LM tasks.

Runs are deterministic: batch selection, masking, and dropout all derive
from the run seed plus step counters, metric rows are accumulated and
written once with fixed formatting, and checkpoints serialize with sorted
tensor names.  Two runs with the same config and seed produce byte-identical
metrics CSV and checkpoint files.

The run's `RunConfig` gets its `vocab_size` from the corpus; that config,
echoed into `run.log`, is also the checkpoint's manifest, which `eval`
rebuilds and checks through the same dataclass.  The manifest also keeps
the corpus vocabulary, so `eval` refuses a corpus whose tokens differ even
when their number matches.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import fields, replace

import numpy as np

from . import data, model
from .checkpoint import save_checkpoint
from .config import RunConfig
from .grad import cross_entropy_masked_fwd


def _load_windows(cfg: RunConfig):
    vocab, ids = data.build_corpus(cfg.data, cfg.tokenizer, cfg.vocab_cap)
    win, pad = data.windows(ids, cfg.seq_len)
    train_split, valid_split = data.split_windows(win, pad, cfg.valid_fraction)
    if valid_split[0].shape[0] == 0:
        raise ValueError(f"empty held-out split: {win.shape[0]} window(s) of "
                         f"{cfg.seq_len} tokens, valid_fraction {cfg.valid_fraction}")
    return vocab, train_split, valid_split


def _eval_nll(params, cfg: RunConfig, valid_split, decoder: bool) -> float:
    win, pad = valid_split
    num_batches = min(cfg.eval_batches,
                      (win.shape[0] + cfg.batch_size - 1) // cfg.batch_size)
    total, count = 0.0, 0
    for step in range(num_batches):
        if cfg.task == "mlm":
            batch = data.mlm_batch(win, pad, cfg.vocab_size, cfg.seed, step,
                                   cfg.batch_size, eval_mode=True)
        else:
            batch = data.clm_batch(win, pad, cfg.seed, step, cfg.batch_size,
                                   eval_mode=True)
        if not batch.mask.any():
            continue
        targets, mask, rows = batch.targets, batch.mask, None
        if not decoder:
            rows = model.loss_rows(batch.mask)
            targets, mask = targets[rows], mask[rows]
        logits, _ = model.forward(params, batch.inputs, cfg, decoder=decoder,
                                  pad=batch.pad, rows=rows)
        loss, _ = cross_entropy_masked_fwd(logits, targets, mask)
        n = int(batch.mask.sum())
        total += loss * n
        count += n
    if not count:
        raise ValueError("no held-out token was scored; check eval_batches")
    return total / count


# glibc mallopt parameters, and the values the training process sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES = 512 << 20
_MMAP_THRESHOLD_BYTES = 256 << 20


@functools.cache
def _retain_heap() -> str:
    """Keep freed memory in this process's heap, once per process; returns
    the policy for `run.log`.

    Every training or eval step frees and reallocates the same 0.5-2 MB
    arrays.  With glibc's defaults those go back to the OS, by munmap or by
    trimming the heap top, and the next step faults every page in again.
    Raising both thresholds keeps them in the heap for the next step to
    reuse.  Where there is no mallopt this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return "default (no mallopt)"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    ok = (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1
          and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1)
    return "retained" if ok else "default (mallopt failed)"


def _environment_lines() -> list:
    """numpy and BLAS versions, the BLAS thread pins and the heap policy,
    for `run.log`."""
    from .cli import THREAD_VARS

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lines = [f"numpy={np.__version__}",
             f"blas={blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"]
    lines += [f"{var}={os.environ.get(var, 'unset')}" for var in THREAD_VARS]
    return lines + [f"heap={_retain_heap()}"]


def run_training(cfg: RunConfig, ckpt_dir: str, metrics_path: str | None = None,
                 log=print) -> dict:
    """Train per the config; returns {'final_valid_nll', 'metrics_path', ...}."""
    _retain_heap()
    vocab, train_split, valid_split = _load_windows(cfg)
    cfg = cfg.block_config(vocab.size)
    decoder = cfg.task == "clm"
    params = model.init_params(cfg, cfg.seed)
    state = model.AdamState()
    os.makedirs(ckpt_dir, exist_ok=True)
    if metrics_path is None:
        metrics_path = os.path.join(ckpt_dir, "metrics.csv")

    log_lines = cfg.echo_lines()
    log_lines.append(f"train_windows={train_split[0].shape[0]}")
    log_lines.append(f"valid_windows={valid_split[0].shape[0]}")
    for line in log_lines:
        log(line)

    win, pad = train_split
    rows = []
    for step in range(cfg.steps):
        if cfg.task == "mlm":
            batch = data.mlm_batch(win, pad, cfg.vocab_size, cfg.seed, step,
                                   cfg.batch_size)
        else:
            batch = data.clm_batch(win, pad, cfg.seed, step, cfg.batch_size)
        loss = model.train_step(
            (batch.inputs, batch.targets, batch.mask, batch.pad),
            params, state, cfg, step, decoder=decoder)
        rows.append(f"{step},train,{loss:.12g}")
        if (step + 1) % cfg.eval_interval == 0 or step + 1 == cfg.steps:
            valid_nll = _eval_nll(params, cfg, valid_split, decoder)
            rows.append(f"{step},valid,{valid_nll:.12g}")
            log(f"step {step + 1}/{cfg.steps} train_nll={loss:.4f} "
                f"valid_nll={valid_nll:.4f}")

    with open(metrics_path, "w", encoding="utf-8", newline="\n") as f:
        f.write("step,split,nll\n")
        f.write("\n".join(rows) + "\n")
    ckpt_path = os.path.join(ckpt_dir, "final.ckpt")
    save_checkpoint(ckpt_path, params, dict(cfg.as_dict(), vocab=vocab.tokens))
    with open(os.path.join(ckpt_dir, "run.log"), "w", encoding="utf-8") as f:
        f.write("\n".join(log_lines + _environment_lines()) + "\n")
        f.write(f"final_valid_nll={valid_nll:.12g}\n")
    return {
        "final_valid_nll": valid_nll,
        "metrics_path": metrics_path,
        "checkpoint_path": ckpt_path,
        "vocab_size": vocab.size,
        "params": params,
    }


def _check_param_shapes(params: dict, cfg: RunConfig):
    """Every tensor the config implies, with its shape, and nothing else."""
    want = {name: tuple(shape) for name, shape, _ in model._param_specs(cfg)}
    got = {name: arr.shape for name, arr in params.items()}
    bad = [f"tensor {name!r} has shape {got.get(name)} in the file, "
           f"{want.get(name)} expected"
           for name in sorted(set(want) | set(got)) if want.get(name) != got.get(name)]
    if bad:
        raise ValueError(f"checkpoint does not fit the config and corpus (vocab_size "
                         f"{cfg.vocab_size}): " + "; ".join(bad))


def evaluate_checkpoint(ckpt_path: str, override_data: str | None = None) -> dict:
    """Reload a checkpoint and report NLL on the held-out split."""
    from .checkpoint import load_checkpoint

    _retain_heap()
    params, cfg_dict = load_checkpoint(ckpt_path)
    tokens = cfg_dict.pop("vocab", None)
    if not isinstance(tokens, list):
        raise ValueError("checkpoint config has no vocab list")
    unknown = sorted(set(cfg_dict) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ValueError(f"checkpoint config has unknown keys {unknown}")
    cfg = RunConfig(**cfg_dict)
    if override_data:
        cfg = replace(cfg, data=override_data)
    vocab, _, valid_split = _load_windows(cfg)
    cfg = cfg.block_config(vocab.size)
    _check_param_shapes(params, cfg)
    if vocab.tokens != tokens:
        other = sum(ours != theirs for ours, theirs in zip(vocab.tokens, tokens))
        raise ValueError(f"the corpus vocabulary differs from the checkpoint's: "
                         f"{other} of {vocab.size} ids name another token")
    params = {k: v.astype(cfg.dtype) for k, v in params.items()}
    nll = _eval_nll(params, cfg, valid_split, decoder=cfg.task == "clm")
    return {"valid_nll": nll, "vocab_size": vocab.size, "task": cfg.task}
