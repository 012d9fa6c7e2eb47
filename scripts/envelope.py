"""Trajectory envelope: how far one-ulp init perturbations spread a run.

Trains K trajectories of one config through `train.run_training`.  Run 0 is
the config as given.  In run k >= 1 the middle entry of the k-th tensor
moves up one ulp (`np.nextafter`) after init.  Tensors count in
`model._param_specs` order, those drawn at random first: one ulp above a
zero is a subnormal, and a bias or beta moved by it trains the same bits as
run 0.  Prints:

- per 100-step bucket of train NLL: median, minimum, maximum;
- acceptance criterion 10.1 over the first five buckets: each run's four
  gaps between consecutive bucket means, their minimum and maximum, and
  how many runs keep all four positive;
- the final held-out NLL: median and range;
- with --metrics, where that run's buckets, gaps and held-out NLL fall.

A change that moves training bits is one more draw from this envelope, so
its criterion-10 numbers are judged against the spread, not against one
run.  Example, the criterion-10 dim config at 500 steps:

    python3 -c "from dimattn.data import synth_corpus; synth_corpus('corpus.txt', 220_000)"
    python3 scripts/envelope.py --config configs/tiny-mlm.cfg --runs 16 \\
        --set steps=500 --jobs 2
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import statistics
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from dimattn import cli  # noqa: E402  (imports no numpy)

cli._pin_threads()

import numpy as np  # noqa: E402

from dimattn import config, model, train  # noqa: E402

_INIT = model.init_params

# criterion 10.1 compares the means of the first five 100-step buckets
_BUCKET = 100
_CRITERION_BUCKETS = 5


def run_one(cfg, k, out_dir):
    """Train run k; returns (tensor moved, train NLLs, final held-out NLL),
    the NLLs as its metrics.csv has them."""
    moved = ["unperturbed"]

    def init(block_cfg, seed):
        params = _INIT(block_cfg, seed)
        if k:
            specs = model._param_specs(block_cfg)
            drawn = [name for name, _, how in specs if how not in ("ones", "zeros")]
            moved[0] = (drawn + [name for name, _, _ in specs if name not in drawn])[k - 1]
            flat = params[moved[0]].reshape(-1)
            flat[flat.size // 2] = np.nextafter(flat[flat.size // 2], np.inf)
        return params

    model.init_params = init
    try:
        result = train.run_training(cfg, os.path.join(out_dir, f"run{k}"), log=lambda _: None)
    finally:
        model.init_params = _INIT
    return (moved[0], *read_metrics(result["metrics_path"]))


def read_metrics(path):
    """(train NLLs in step order, last held-out NLL) of a metrics.csv."""
    train_nll, valid = [], None
    with open(path, encoding="utf-8") as f:
        for line in f.read().strip().split("\n")[1:]:
            _, split, nll = line.split(",")
            if split == "train":
                train_nll.append(float(nll))
            else:
                valid = float(nll)
    return train_nll, valid


def buckets(train_nll, size):
    return [float(np.mean(train_nll[i:i + size]))
            for i in range(0, len(train_nll) - size + 1, size)]


def gaps(means):
    """Criterion 10.1's gaps: each bucket mean minus the next, first five."""
    first = means[:_CRITERION_BUCKETS]
    return [a - b for a, b in zip(first, first[1:])]


def where(value, values):
    """'inside' the range of values, or how far outside it."""
    lo, hi = min(values), max(values)
    if value < lo:
        return f"below by {lo - value:.4f}"
    if value > hi:
        return f"above by {value - hi:.4f}"
    return f"inside, {sum(v < value for v in values)} of {len(values)} runs below"


def report(runs, size, metrics=None, out=print):
    names, curves, valids = zip(*runs)
    means = [buckets(c, size) for c in curves]
    out(f"{len(runs)} runs; per run: tensor moved, 10.1 gaps, held-out NLL")
    for k, (name, m, v) in enumerate(zip(names, means, valids)):
        g = gaps(m)
        verdict = "pass" if all(x > 0 for x in g) else "FAIL"
        out(f"  run {k:2d} {name:18s} " + " / ".join(f"{x:+.3f}" for x in g)
            + f"  {verdict}  valid {v:.4f}")
    out(f"train NLL per {size}-step bucket: median [min, max] max - min")
    for i in range(min(len(m) for m in means)):
        col = [m[i] for m in means]
        out(f"  steps {i * size:5d}-{(i + 1) * size - 1:5d}: {statistics.median(col):.4f} "
            f"[{min(col):.4f}, {max(col):.4f}] {max(col) - min(col):.1e}")
    all_gaps = [gaps(m) for m in means]
    out("criterion 10.1 gaps: [min, max]")
    for i in range(min(len(g) for g in all_gaps)):
        col = [g[i] for g in all_gaps]
        out(f"  gap {i + 1}: [{min(col):+.4f}, {max(col):+.4f}]")
    passing = sum(all(x > 0 for x in g) for g in all_gaps)
    out(f"criterion 10.1 passes in {passing} of {len(runs)} runs")
    out(f"final held-out NLL: median {statistics.median(valids):.4f} "
        f"[{min(valids):.4f}, {max(valids):.4f}] {max(valids) - min(valids):.1e}")
    if metrics is not None:
        train_nll, valid = read_metrics(metrics)
        theirs = buckets(train_nll, size)
        out(f"{metrics}:")
        for i, value in enumerate(theirs[:min(len(m) for m in means)]):
            out(f"  bucket {i}: {value:.4f} {where(value, [m[i] for m in means])}")
        for i, value in enumerate(gaps(theirs)[:min(len(g) for g in all_gaps)]):
            out(f"  gap {i + 1}: {value:+.4f} {where(value, [g[i] for g in all_gaps])}")
        out(f"  held-out NLL {valid:.4f} {where(valid, valids)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--runs", type=int, default=16, help="K, run 0 included")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key, e.g. steps=500, data=other.txt "
                        "or precision=f32; may repeat")
    p.add_argument("--metrics", help="a metrics.csv to place in the envelope")
    p.add_argument("--jobs", type=int, default=1, help="runs trained at once")
    args = p.parse_args(argv)

    try:  # a later key=value line overrides an earlier one
        cfg = config.parse_config(Path(args.config).read_text(encoding="utf-8")
                                  + "\n" + "\n".join(args.set))
    except (OSError, config.ConfigError) as e:
        p.error(str(e))
    tensors = len(model._param_specs(cfg))  # a count the vocabulary does not change
    if not 1 <= args.runs <= tensors + 1:
        p.error(f"--runs must be in [1, {tensors + 1}]: run 0 and one run per tensor")
    with tempfile.TemporaryDirectory() as out_dir:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(args.jobs, mp_context=spawn) as pool:
            runs = list(pool.map(run_one, [cfg] * args.runs, range(args.runs),
                                 [out_dir] * args.runs))
    report(runs, _BUCKET, args.metrics)


if __name__ == "__main__":
    main()
