"""The benchmark's set-up and output checks, run against this program.

`perfbench/` builds each workload's config, model and first batch through
the program's public functions, and its tracer wraps the `grad` ops by name
and reads their tape nodes.  Running its checks and its tracer here makes a
config, model or op signature change that breaks the benchmark fail in this
suite.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, program, tracer, workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_checks_pass(name, corpus_path):
    prog = program.load()
    setup = checks.load_setup(prog, workloads.run_config_fields(name, corpus_path, 1))
    results = checks.kernel_reference(prog, setup) + [checks.grad_direction(prog, setup, 1)]
    if name == "clm-dim-long":
        results += checks.causality(prog, setup, 1)
    failed = [c for c in results if not c.ok]
    assert not failed, failed


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracer_attributes_two_steps(name, corpus_path, tmp_path):
    """Every layer the tracer reports is seen, with its calls per step.

    `attn.wo`'s backward is one `grad.linear_bwd` per layer on every
    workload: the token and causal layers call it on the projection's own
    node, the dim encoder from inside each group's core backward, which
    hands it the parameter array itself.  With groups > 1 the dim encoder
    passes each group's slice of `attn.wo`, which the tracer, naming a
    linear by its weight array, reads as `linear.other`; no workload runs
    more than one group.
    """
    prog = program.load()
    spec = dict(workloads.run_config_fields(name, corpus_path, 1), steps=2,
                eval_batches=1)
    cfg = prog.config.RunConfig(**spec)
    with tracer.Tracer(prog, detail=True) as t:
        prog.train.run_training(cfg, str(tmp_path), log=lambda line: None)
    summary = t.summary()
    attention = next(op for op in tracer.ATTENTION_OPS
                     if checks.attention_op(cfg).startswith(op))
    for layer in (attention, "linear.attn_in", "linear.attn_out", "linear.ffn"):
        for direction in ("fwd", "bwd"):
            assert summary["layers"][f"grad.{layer}.{direction}"]["calls"] > 0, layer
    assert not [span for span in t.calls if span.startswith("grad.linear.other")]
    # one fused q|k|v projection per token layer, 3 per group for dim
    per_layer = 1 if cfg.attention == "token" else 3 * cfg.groups
    assert summary["layers"]["grad.linear.attn_in.fwd"]["calls"] == per_layer * cfg.layers
    for direction in ("fwd", "bwd"):
        assert summary["layers"][f"grad.linear.attn_out.{direction}"]["calls"] == cfg.layers
    assert summary["tape_mb"][attention] > 0
