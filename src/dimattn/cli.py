"""Command-line interface: verify, bench, flops, train-mlm, train-clm, eval.

BLAS threading is pinned to one thread before numpy is first imported so
that verification is reproducible and benchmark doubling ratios measure the
kernels rather than the thread pool.  Heavy imports are deferred into the
command handlers for the same reason.

Exit codes: 0 success, 1 verification failure, 2 bad usage, config or input,
or a run that cannot produce a finite number: one stderr line, from `main`.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _pin_threads():
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")


def _int_list(text: str):
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimattn",
        description="Dimension-wise attention: verification, benchmarks, "
                    "FLOPs accounting, and small LM training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run every property suite")
    p.set_defaults(func=_cmd_verify)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="wall-clock scaling sweep, CSV output")
    p.set_defaults(func=_cmd_bench)
    p.add_argument("--variants", default="token_encoder,dim_encoder",
                   help="comma list from: token_encoder,dim_encoder,"
                        "masked_naive,masked_streaming")
    p.add_argument("--N", default="1024,2048,4096", help="comma list of lengths")
    p.add_argument("--d", default="64", help="comma list of head widths")
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("flops", help="analytic cost of both attention families")
    p.set_defaults(func=_cmd_flops)
    p.add_argument("--N", type=int, default=100)
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--groups", type=int, default=8)
    p.add_argument("--convs", type=int, default=1)
    p.add_argument("--projections", action="store_true",
                   help="include the input/output projections")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    for task in ("mlm", "clm"):
        p = sub.add_parser(f"train-{task}", help=f"train the {task} task")
        p.set_defaults(func=_cmd_train, task=task)
        p.add_argument("--config", required=True, help="key=value config file")
        p.add_argument("--ckpt-dir", default=None)
        p.add_argument("--metrics", default=None, help="metrics CSV path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")

    p = sub.add_parser("eval", help="reload a checkpoint and report held-out NLL")
    p.set_defaults(func=_cmd_eval)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", default=None, help="override the corpus path")
    return parser


def check_out(path) -> None:
    """ValueError, before any work, unless a file can be made at `path`."""
    if path and (os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or ".")):
        raise ValueError(f"cannot write {path}: it is a directory or its directory is missing")


def _write_csv(csv: str, path) -> None:
    """Write to `path`, or to stdout when it is None."""
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(csv)
    else:
        sys.stdout.write(csv)


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"seed must be >= 0, got {args.seed}")
    from . import verify
    return verify.run_all(seed=args.seed)


def _cmd_bench(args) -> int:
    from . import analysis
    variants = [v for v in args.variants.split(",") if v]
    check_out(args.out)
    result = analysis.bench_sweep(variants, _int_list(args.N), _int_list(args.d),
                                  repeats=args.repeats, seed=args.seed)
    _write_csv(result.to_csv(), args.out)
    return 0


def _cmd_flops(args) -> int:
    from . import analysis
    check_out(args.out)
    token = analysis.flops_token_attention(args.N, args.d, args.heads,
                                           include_projections=args.projections)
    dim = analysis.flops_dim_attention(args.N, args.d, args.groups, args.convs,
                                       include_projections=args.projections)
    lines = ["variant,N,d,heads,groups,convs,component,mults,adds,total"]
    for variant, rep, h, g, c in (("token", token, args.heads, "", ""),
                                  ("dim", dim, "", args.groups, args.convs)):
        rows = list(rep.by_component.items()) + [("total", (rep.mults, rep.adds))]
        for comp, (mults, adds) in rows:
            lines.append(f"{variant},{args.N},{args.d},{h},{g},{c},"
                         f"{comp},{mults},{adds},{mults + adds}")
    _write_csv("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_train(args) -> int:
    from .config import load_config
    from .train import run_training
    cfg = load_config(args.config)
    cfg = replace(cfg, task=args.task, seed=cfg.seed if args.seed is None else args.seed)
    ckpt_dir = args.ckpt_dir or os.path.join("runs", args.task)
    summary = run_training(cfg, ckpt_dir, metrics_path=args.metrics)
    print(f"final valid nll: {summary['final_valid_nll']:.6f}")
    print(f"metrics: {summary['metrics_path']}")
    print(f"checkpoint: {summary['checkpoint_path']}")
    return 0


def _cmd_eval(args) -> int:
    from .train import evaluate_checkpoint
    report = evaluate_checkpoint(args.ckpt, override_data=args.data)
    print(f"task: {report['task']}")
    print(f"vocab size: {report['vocab_size']}")
    print(f"valid nll: {report['valid_nll']:.6f}")
    return 0


def main(argv=None) -> int:
    _pin_threads()
    args = build_parser().parse_args(argv)
    import numpy as np  # this and the rest load numpy, so only after the pins
    from .config import ConfigError
    if args.command != "bench":
        # training steps, verify's among them, reuse the heap they freed;
        # bench times its kernels under the allocator's defaults
        from .train import _retain_heap
        _retain_heap()
    try:
        with np.errstate(all="ignore"):  # the finiteness checks report divergence
            return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
    except (ValueError, OSError, FloatingPointError) as e:
        print(f"cannot run {args.command}: {e}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
