"""Training benchmark: drives train.run_training on a workload and checks it.

    python3 perfbench/run.py --workload mlm-dim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Generates a synthetic corpus from --seed, then runs whole rounds (see
worker.py), each in a fresh process, until --seconds have passed.  With
--trace 1, rounds alternate untraced and traced, and the per-layer metrics
come from the traced ones.  Afterwards it checks the attention kernels,
the gradient and (for the decoder) causality in this process.

Prints one line per check and metric, then, as the last line, a JSON object
with the keys correct, attempted, failed and metrics.  Exits 2 without a
result when the program's source is not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import program

OUT_DIR = ".perfbench_out"
ROUND_TIMEOUT_S = 120
# Extra processes that stop at the first training step; setup_s is the
# median over them and the rounds.
SETUP_LAUNCHES = 3
# Rounds started after this much time risk the run's 180 s limit.
LAST_START_S = 110

END_TO_END = {
    "train_tok_s": "tokens/s",
    "step_ms_p50": "ms",
    "eval_tok_s": "tokens/s",
    "valid_nll": "nats/token",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit."""
    from perfbench import tracer
    units = {}
    for layer in tracer.STEP_LAYERS + (tracer.BATCH_LAYER,) + tracer.ROUND_LAYERS:
        units[f"{layer}.ms"] = "ms"
        units[f"{layer}.calls"] = "count"
    units["step.ms"] = "ms"
    units["step.unattributed.ms"] = "ms"
    units["trace.overhead_ms"] = "ms"
    for op in tracer.ATTENTION_OPS:
        units[f"grad.{op}.tape_mb"] = "MB"
        units[f"grad.{op}.fwd.gflops"] = "GFLOP/s"
        units[f"grad.{op}.bwd.gflops"] = "GFLOP/s"
    units["model.tape_mb"] = "MB"
    return units


def _spawn_round(workload, seed, corpus, out, traced, setup_only=False) -> dict | None:
    """Run worker.py once; returns its result or None if it failed."""
    env = dict(os.environ, **{var: "1" for var in program.THREAD_VARS})
    launched = time.monotonic()
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--corpus", str(corpus),
           "--out", str(out), "--launched", repr(launched),
           "--trace", str(int(traced))] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"round in {out} timed out after {ROUND_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"round in {out} failed with exit code {proc.returncode}:\n"
              f"{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(rounds: list, setups: list) -> dict:
    steps = [s for r in rounds for s in r["step_s"]]
    return {
        "train_tok_s": rounds[0]["tokens_per_step"] * len(steps) / sum(steps),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "eval_tok_s": statistics.median(r["eval_tokens"] / r["eval_s"] for r in rounds),
        "valid_nll": rounds[0]["valid_nll"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in rounds + setups),
    }


def _per_layer(traced: list, untraced: list) -> dict:
    from perfbench import tracer

    def med(get):
        return statistics.median(get(r["trace"]) for r in traced)

    summary = traced[0]["trace"]
    values = {}
    for layer in summary["layers"]:
        for key in ("ms", "calls"):
            values[f"{layer}.{key}"] = med(lambda t: t["layers"][layer][key])
    for name in summary["gflops"]:
        values[f"{name}.gflops"] = med(lambda t: t["gflops"][name])
    for op in tracer.ATTENTION_OPS:
        values[f"grad.{op}.tape_mb"] = med(lambda t: t["tape_mb"].get(op, 0.0))
    values["model.tape_mb"] = med(lambda t: t["tape_mb"].get("model", 0.0))
    values["step.unattributed.ms"] = med(lambda t: t["unattributed_ms"])
    traced_ms = 1e3 * statistics.median(s for r in traced for s in r["step_s"])
    values["step.ms"] = traced_ms
    values["trace.overhead_ms"] = traced_ms - 1e3 * statistics.median(
        s for r in untraced for s in r["step_s"])
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object the last line prints."""
    from perfbench import checks, workloads
    prog = program.load()
    out = program.ROOT / OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    corpus = out / "corpus.txt"
    prog.data.synth_corpus(str(corpus), workloads.CORPUS_CHARS, seed=seed)
    spec = workloads.run_config_fields(workload, str(corpus), seed)

    setups = [] if trace else [
        _spawn_round(workload, seed, corpus, out / f"setup{i}", False, setup_only=True)
        for i in range(SETUP_LAUNCHES)]
    rounds = []  # (traced, result or None)
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append((traced, _spawn_round(workload, seed, corpus,
                                            out / f"round{len(rounds)}", traced)))
        elapsed = time.monotonic() - start
        if rounds[-1][1] is None or elapsed >= LAST_START_S:
            break
        if elapsed >= seconds and (not trace or len(rounds) >= 2):
            break

    results = []
    attempted = failed = 0
    ok_rounds = [r for _, r in rounds if r is not None]
    unigram = None
    if ok_rounds:
        windows = ok_rounds[0]["eval_tokens"] // spec["seq_len"]
        unigram = checks.unigram_ce(corpus, spec, windows)
    for index, (_, r) in enumerate(rounds):
        if r is None:
            # its steps count as failed, the round itself as one failed check
            attempted += spec["steps"]
            failed += spec["steps"]
            results.append(checks.Check(f"round[{index}]", False, "worker failed"))
            continue
        attempted += len(r["step_s"])
        results += checks.round_checks(index, r, ok_rounds[0], unigram)
    results += [checks.Check(f"setup[{i}]", r is not None, "")
                for i, r in enumerate(setups)]

    setup = checks.load_setup(prog, spec)
    results += checks.kernel_reference(prog, setup)
    results.append(checks.grad_direction(prog, setup, seed))
    if setup.decoder:
        results += checks.causality(prog, setup, seed)
    attempted += len(results)
    failed += sum(not c.ok for c in results)
    # later rounds' checkpoints were checked equal to round 0's; drop them
    for index in range(1, len(rounds)):
        (out / f"round{index}" / "final.ckpt").unlink(missing_ok=True)
    for c in results:
        print(f"{workload} check {c.name}: {'ok' if c.ok else 'FAILED'} {c.detail}")

    metrics = {}
    untraced = [r for t, r in rounds if r is not None and not t]
    traced_rounds = [r for t, r in rounds if r is not None and t]
    if trace and traced_rounds and untraced:
        units = per_layer_units()
        values = _per_layer(traced_rounds, untraced)
    elif not trace and untraced:
        units = END_TO_END
        values = _end_to_end(untraced, [r for r in setups if r is not None])
    else:
        units, values = {}, {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{workload} {name} = {values[name]:.6g} {unit}")
    print(f"{workload} rounds={len(rounds)} attempted={attempted} failed={failed}")
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    from perfbench import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        program.load()
    except program.ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    program.pin_threads()
    sys.exit(main())
