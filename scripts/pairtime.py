"""Paired step timing: two source trees' training steps, interleaved in one process.

Imports the `dimattn` package of two source trees side by side, as the
packages `tree_a` and `tree_b`, with BLAS pinned to one thread and the heap
retained (`train._retain_heap`).  Each tree trains its own run of one config:
its own windows, parameters and Adam state, from the same seed.  A round
runs --steps calls of `model.train_step` on tree a and as many on tree b, a
first in even rounds and b first in odd ones, each continuing its run from
the step the last round reached.  One warm-up round comes first and is not
kept.  Prints each tree's median ms per step with its quartiles, and the
paired ratio b / a of each round's two times: its median, its quartiles and
the rounds in which b was faster.

Both trees run at the same moment of the machine's drift, so the ratio
resolves differences well under 1% where separate benchmark processes do
not.  Example, a parent commit against the working tree at the token
encoder's shapes:

    python3 -c "from dimattn.data import synth_corpus; synth_corpus('corpus.txt', 220_000)"
    mkdir ../parent && git archive HEAD | tar -x -C ../parent
    python3 scripts/pairtime.py --config configs/tiny-token-mlm.cfg \\
        --a ../parent/src --b src --rounds 30 --steps 10

--set overrides a config key in both trees, e.g. `--set task=clm --set
seq_len=1024 --set batch_size=1` for the token decoder at N = 1,024.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace


def load_tree(src, name):
    """The `dimattn` package under `src`, imported as the package `name`,
    with the modules a training step needs."""
    pkg = Path(src).resolve() / "dimattn"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(name + ".cli")._pin_threads()  # before numpy loads
    return SimpleNamespace(path=str(pkg.parent), **{
        m: importlib.import_module(f"{name}.{m}") for m in ("config", "model", "train")})


class Run:
    """One tree's training run of the config text, stepped on demand."""

    def __init__(self, tree, text):
        tree.train._retain_heap()
        cfg = tree.config.parse_config(text)
        vocab, self.split, _ = tree.train._load_windows(cfg)
        self.tree, self.cfg = tree, cfg.block_config(vocab.size)
        self.params = tree.model.init_params(self.cfg, self.cfg.seed)
        self.state = tree.model.AdamState()
        self.step = 0

    def ms_per_step(self, steps):
        """Run the next `steps` training steps; their mean ms per step."""
        train, model = self.tree.train, self.tree.model
        batches = [train._batch(self.cfg, self.split, self.step + i) for i in range(steps)]
        start = time.perf_counter()
        for i, b in enumerate(batches):
            model.train_step((b.inputs, b.targets, b.mask, b.pad), self.params,
                             self.state, self.cfg, self.step + i)
        elapsed = time.perf_counter() - start
        self.step += steps
        return 1e3 * elapsed / steps


def quartiles(values):
    """(first quartile, median, third quartile) of at least one value."""
    if len(values) == 1:
        return values * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def pair_rounds(runs, rounds, steps):
    """Each run's ms per step over the rounds after the warm-up round, the
    order alternating."""
    times = ([], [])
    for r in range(1 + rounds):
        for i in ((0, 1) if r % 2 == 0 else (1, 0)):
            ms = runs[i].ms_per_step(steps)
            if r > 0:
                times[i].append(ms)
    return times


def report(paths, times, out=print):
    for tag, path, ts in zip("ab", paths, times):
        q1, med, q3 = quartiles(ts)
        out(f"{tag} {path}: median {med:.3f} ms/step [{q1:.3f}, {q3:.3f}]")
    ratios = [b / a for a, b in zip(*times)]
    q1, med, q3 = quartiles(ratios)
    faster = sum(x < 1.0 for x in ratios)
    out(f"b / a: median {med:.4f} [{q1:.4f}, {q3:.4f}], "
        f"b faster in {faster} of {len(ratios)} rounds")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--config", required=True, help="key=value config file")
    p.add_argument("--a", required=True, help="source tree a: the directory holding dimattn/")
    p.add_argument("--b", required=True, help="source tree b")
    p.add_argument("--rounds", type=int, default=30, help="rounds kept")
    p.add_argument("--steps", type=int, default=10, help="training steps per tree per round")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key in both trees; may repeat")
    args = p.parse_args(argv)
    if args.rounds < 1 or args.steps < 1:
        p.error("--rounds and --steps must be at least 1")
    for src in (args.a, args.b):
        if not (Path(src) / "dimattn" / "__init__.py").is_file():
            p.error(f"no dimattn package in {src}")
    try:  # a later key=value line overrides an earlier one
        text = Path(args.config).read_text(encoding="utf-8") + "\n" + "\n".join(args.set)
    except OSError as e:
        p.error(str(e))
    trees = [load_tree(src, f"tree_{tag}") for src, tag in ((args.a, "a"), (args.b, "b"))]
    try:
        runs = [Run(tree, text) for tree in trees]
    except (OSError, ValueError) as e:  # ConfigError is a ValueError
        p.error(str(e))
    print(f"{args.config} {' '.join(args.set)}: {args.rounds} rounds of {args.steps} "
          "steps per tree after a warm-up round, a first in even rounds")
    report([t.path for t in trees], pair_rounds(runs, args.rounds, args.steps))


if __name__ == "__main__":
    main()
