"""One benchmark round in its own process.

A round is one call of `train.run_training` (set-up, the training steps and
the held-out evaluation, then the checkpoint save) followed by a checkpoint
load.  Running each round in a fresh process makes set-up time include the
interpreter and imports, and makes peak memory the round's own.  With
--setup-only the process stops at the first training step, which gives
set-up time alone.

    python3 perfbench/worker.py --workload mlm-dim --seed 1 \
        --corpus <corpus.txt> --out <round dir> --launched <monotonic s> --trace 0

prints one JSON object (see `run_round`) as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import program


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _bitwise_equal(saved: dict, loaded: dict) -> bool:
    if sorted(saved) != sorted(loaded):
        return False
    return all(saved[k].dtype == loaded[k].dtype and saved[k].shape == loaded[k].shape
               and saved[k].tobytes() == loaded[k].tobytes() for k in saved)


def _train_losses(metrics_path) -> list:
    with open(metrics_path, encoding="utf-8") as f:
        rows = [line.split(",") for line in f.read().splitlines()[1:]]
    return [float(nll) for _, split, nll in rows if split == "train"]


def run_round(prog, spec: dict, out_dir, launched: float, trace: bool) -> dict:
    """Run one round in this process and return its measurements and checks.

    launched is the time.monotonic() at which the round's process was
    started; set-up time runs from it to the first training step.
    """
    from perfbench import workloads
    from perfbench.tracer import Tracer

    cfg = prog.config.RunConfig(**spec)
    log_lines = []
    with Tracer(prog, detail=trace) as tracer:
        result = prog.train.run_training(cfg, str(out_dir), log=log_lines.append)
        loaded, _ = prog.checkpoint.load_checkpoint(result["checkpoint_path"])
    fields = dict(line.split("=", 1) for line in log_lines if "=" in line)
    eval_tokens = workloads.eval_windows(spec, int(fields["valid_windows"])) * cfg.seq_len
    losses = _train_losses(result["metrics_path"])
    return {
        "setup_s": tracer.first_step_at - launched,
        "step_s": tracer.step_s,
        "tokens_per_step": cfg.batch_size * cfg.seq_len,
        "eval_s": tracer.save_at - tracer.last_step_end,
        "eval_tokens": eval_tokens,
        "save_s": tracer.self_s["checkpoint.save"],
        "load_s": tracer.self_s["checkpoint.load"],
        "valid_nll": result["final_valid_nll"],
        "train_losses_finite": len(losses) == cfg.steps and all(map(math.isfinite, losses)),
        "checkpoint_bitwise": _bitwise_equal(result["params"], loaded),
        "metrics_sha256": _sha256(result["metrics_path"]),
        "checkpoint_sha256": _sha256(result["checkpoint_path"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "trace": tracer.summary() if trace else None,
    }


class _FirstStep(Exception):
    pass


def measure_setup(prog, spec: dict, out_dir, launched: float) -> dict:
    """Run run_training up to its first training step only; returns setup_s."""
    def first_step(*args, **kwargs):
        raise _FirstStep

    cfg = prog.config.RunConfig(**spec)
    prog.model.train_step = first_step  # this process ends right after
    try:
        prog.train.run_training(cfg, str(out_dir), log=lambda line: None)
    except _FirstStep:
        return {"setup_s": time.monotonic() - launched}
    raise RuntimeError("run_training never reached a training step")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first training step; report setup_s")
    args = parser.parse_args(argv)
    from perfbench import workloads
    prog = program.load()
    spec = workloads.run_config_fields(args.workload, args.corpus, args.seed)
    os.makedirs(args.out, exist_ok=True)
    if args.setup_only:
        out = json.dumps(measure_setup(prog, spec, args.out, args.launched))
    else:
        out = json.dumps(run_round(prog, spec, args.out, args.launched, bool(args.trace)))
    Path(args.out, "round.json").write_text(out + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    program.pin_threads()
    sys.exit(main())
