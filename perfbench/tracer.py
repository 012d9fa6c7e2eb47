"""Spans around the program's public functions, installed from outside it.

A Tracer swaps module attributes of `dimattn` for timing wrappers and puts
the originals back on exit, so the program's code is never edited.  Every
span adds its duration to its parent's child time; a layer's self time is
its duration minus that child time.  Spans are aggregated per name in
memory as they close.

With detail=False only the boundaries the end-to-end metrics need are
wrapped: the training step, the checkpoint save (whose start marks the end
of the held-out evaluation) and the checkpoint load.  With detail=True
every layer below is wrapped as well.

Layer names:
  grad.<op>.fwd/.bwd       one grad.py op; linear calls are split by the
                           parameter array they receive (attn_in, attn_out,
                           ffn)
  model.forward.self       model.forward minus its timed children: the tied
                           output head, positions, concat
  model.backward.self      model.backward_from_cache minus its timed
                           children: the head gradient and accumulation
  eval.forward             model.forward and the loss on held-out batches,
                           children included
  setup.corpus             data.build_corpus, data.windows, data.split_windows
  setup.init               model.init_params
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

ATTENTION_OPS = ("dim_attention", "masked_attention", "token_attention")
_ELEMENTWISE_OPS = ("layer_norm", "dropout", "relu", "embed", "cross_entropy")
_LINEAR_PARTS = ("attn_in", "attn_out", "ffn")

# Layers timed inside model.train_step, reported per training step.
STEP_LAYERS = (
    tuple(f"grad.{op}.{d}" for op in ATTENTION_OPS for d in ("fwd", "bwd"))
    + tuple(f"grad.linear.{p}.{d}" for p in _LINEAR_PARTS for d in ("fwd", "bwd"))
    + tuple(f"grad.{op}.{d}" for op in _ELEMENTWISE_OPS for d in ("fwd", "bwd"))
    + ("model.forward.self", "model.backward.self", "model.clip_global_norm",
       "model.adam_update")
)
# Per training step, but outside the step span.
BATCH_LAYER = "data.batch"
# Reported per round: one run_training call plus the checkpoint reload.
ROUND_LAYERS = ("eval.forward", "eval.batch", "setup.corpus", "setup.init",
                "checkpoint.save", "checkpoint.load")
_STEP = "step"


def attention_flops(op: str, direction: str, shape: tuple, filters: int) -> float:
    """Analytic multiply-add count (2 per MAC) of one attention call.

    shape is the batched [B, N, d] of q (for token attention B counts heads
    too); filters is c.  Counts the math, not one implementation of it, so
    a faster rewrite of the same math shows as more GFLOP/s.
    """
    b, n, d = shape
    c = filters
    if op == "dim_attention":
        # S = Q^T K; W_c * f(S); V (W_c * f(S))^T
        fwd = 2 * b * n * d * d + b * c * d * d + 2 * b * c * n * d * d
        # dV, dA, dW, df(S), softmax backward, dQ, dK
        bwd = 4 * b * c * n * d * d + 4 * b * c * d * d + 4 * b * d * d + 4 * b * n * d * d
    elif op == "masked_attention":
        # outer products + prefix sum; G_i * v_i; per-filter contraction
        fwd = 2 * b * n * d * d + b * n * d * d + 2 * b * c * n * d * d
        # sum_c u W_c; dv; G*v; dW; dG; reverse prefix sum; dQ, dK
        bwd = 4 * b * c * n * d * d + 9 * b * n * d * d
    elif op == "token_attention":
        fwd = 4 * b * n * n * d
        bwd = 8 * b * n * n * d
    else:
        raise ValueError(f"no FLOP formula for {op!r}")
    return float(fwd if direction == "fwd" else bwd)


def _root(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_bytes(nodes) -> int:
    """Bytes of the distinct arrays the tape nodes keep alive (views count
    their base once)."""
    seen = {}
    for node in nodes:
        for value in node.saved.values():
            if isinstance(value, np.ndarray):
                root = _root(value)
                seen[id(root)] = root.nbytes
    return sum(seen.values())


def _batched_shape(arr) -> tuple:
    shape = np.shape(arr)
    return shape if len(shape) == 3 else (1,) + tuple(shape)


class Tracer:
    """Context manager; install on a program namespace from program.load()."""

    def __init__(self, prog, detail: bool):
        self.prog = prog
        self.detail = detail
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.flops = defaultdict(float)
        self.tape = defaultdict(int)
        self.step_s = []
        self.first_step_at = None   # time.monotonic(), comparable across processes
        self.last_step_end = None   # time.perf_counter()
        self.save_at = None         # time.perf_counter()
        self._stack = []
        self._saved = []
        self._param_names = {}
        self._step_nodes = []
        self._in_step = False
        self._in_eval = False

    # -- span bookkeeping ------------------------------------------------

    def _span(self, name, fn, args, kwargs, count=True):
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += dt
            self.self_s[name] += dt - frame[0]
            if count:
                self.calls[name] += 1
        return out, dt

    def _patch(self, module, attr, make):
        orig = getattr(module, attr)
        self._saved.append((module, attr, orig))
        setattr(module, attr, make(orig))

    def __enter__(self):
        p = self.prog
        self._patch(p.model, "train_step", self._wrap_step)
        self._patch(p.train, "save_checkpoint", self._wrap_save)
        self._patch(p.checkpoint, "load_checkpoint",
                    lambda fn: self._simple(fn, "checkpoint.load"))
        if self.detail:
            self._install_detail()
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()
        return False

    def _simple(self, fn, name):
        def wrapper(*args, **kwargs):
            return self._span(name, fn, args, kwargs)[0]
        return wrapper

    # -- the boundaries every run needs ----------------------------------

    def _wrap_step(self, fn):
        def train_step(*args, **kwargs):
            if self.first_step_at is None:
                self.first_step_at = time.monotonic()
            self._in_step = True
            try:
                out, dt = self._span(_STEP, fn, args, kwargs)
            finally:
                self._in_step = False
            self.step_s.append(dt)
            self.last_step_end = time.perf_counter()
            if self.detail:
                self.tape["model"] += tape_bytes(self._step_nodes)
                self._step_nodes.clear()
            return out
        return train_step

    def _wrap_save(self, fn):
        def save_checkpoint(*args, **kwargs):
            self.save_at = time.perf_counter()
            return self._span("checkpoint.save", fn, args, kwargs)[0]
        return save_checkpoint

    # -- per-layer spans ---------------------------------------------------

    def _install_detail(self):
        p = self.prog
        for fn_name in ("build_corpus", "windows", "split_windows"):
            self._patch(p.data, fn_name, lambda fn: self._simple(fn, "setup.corpus"))
        for fn_name in ("mlm_batch", "clm_batch"):
            self._patch(p.data, fn_name, self._wrap_batch)
        self._patch(p.model, "init_params", self._wrap_init)
        self._patch(p.model, "forward", self._wrap_forward)
        self._patch(p.model, "backward_from_cache",
                    lambda fn: self._simple(fn, "model.backward.self"))
        for fn_name in ("clip_global_norm", "adam_update"):
            self._patch(p.model, fn_name,
                        lambda fn, n=fn_name: self._simple(fn, f"model.{n}"))
        self._patch(p.train, "cross_entropy_masked_fwd", self._wrap_eval_loss)
        grad_ops = {
            "embed": "embed", "relu": "relu", "dropout": "dropout",
            "layer_norm": "layer_norm", "cross_entropy_masked": "cross_entropy",
            "linear": "linear", "token_attention": "token_attention",
            "dim_attention_multi": "dim_attention",
            "masked_attention_multi": "masked_attention",
        }
        for fn_prefix, layer in grad_ops.items():
            self._patch(p.grad, fn_prefix + "_fwd",
                        lambda fn, l=layer: self._wrap_grad(fn, l, "fwd"))
            self._patch(p.grad, fn_prefix + "_bwd",
                        lambda fn, l=layer: self._wrap_grad(fn, l, "bwd"))

    def _wrap_init(self, fn):
        def init_params(*args, **kwargs):
            params = self._span("setup.init", fn, args, kwargs)[0]
            # Adam updates in place, so array identity names a parameter
            # for the whole run.
            self._param_names = {id(arr): name for name, arr in params.items()}
            return params
        return init_params

    def _wrap_batch(self, fn):
        def batch(*args, **kwargs):
            name = "eval.batch" if kwargs.get("eval_mode") else BATCH_LAYER
            return self._span(name, fn, args, kwargs)[0]
        return batch

    def _wrap_forward(self, fn):
        def forward(*args, **kwargs):
            if self._in_step:
                return self._span("model.forward.self", fn, args, kwargs)[0]
            self._in_eval = True
            try:
                return self._span("eval.forward", fn, args, kwargs)[0]
            finally:
                self._in_eval = False
        return forward

    def _wrap_eval_loss(self, fn):
        def cross_entropy_masked_fwd(*args, **kwargs):
            return self._span("eval.forward", fn, args, kwargs, count=False)[0]
        return cross_entropy_masked_fwd

    def _linear_part(self, w) -> str:
        name = self._param_names.get(id(w), "")
        if ".attn.wo" in name:
            return "attn_out"
        if ".attn.w" in name:
            return "attn_in"
        if ".ffn." in name:
            return "ffn"
        return "other"

    def _wrap_grad(self, fn, layer, direction):
        attention = layer in ATTENTION_OPS

        def op(*args, **kwargs):
            if not self._in_step:
                return fn(*args, **kwargs)
            if layer == "linear":
                w = args[1] if direction == "fwd" else args[0].saved["w"]
                name = f"grad.linear.{self._linear_part(w)}.{direction}"
            else:
                name = f"grad.{layer}.{direction}"
            out = self._span(name, fn, args, kwargs)[0]
            if direction == "fwd":
                node = out[1]
                self._step_nodes.append(node)
                if attention:
                    self.tape[layer] += tape_bytes([node])
            if attention:
                saved = out[1].saved if direction == "fwd" else args[0].saved
                filters = saved["ws"].shape[0] if "ws" in saved else 1
                self.flops[name] += attention_flops(
                    layer, direction, _batched_shape(saved["q"]), filters)
            return out
        return op

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer ms and calls: per training step for step layers, per
        round for round layers; also tape MB per step and attention GFLOP/s."""
        steps = max(len(self.step_s), 1)
        layers = {}
        for name in STEP_LAYERS + (BATCH_LAYER,):
            layers[name] = {"ms": 1e3 * self.self_s.get(name, 0.0) / steps,
                            "calls": self.calls.get(name, 0) / steps}
        for name in ROUND_LAYERS:
            layers[name] = {"ms": 1e3 * self.self_s.get(name, 0.0),
                            "calls": float(self.calls.get(name, 0))}
        mean_step_ms = 1e3 * sum(self.step_s) / steps
        attributed = sum(layers[name]["ms"] for name in STEP_LAYERS)
        gflops = {}
        for op in ATTENTION_OPS:
            for d in ("fwd", "bwd"):
                name = f"grad.{op}.{d}"
                busy = self.self_s.get(name, 0.0)
                gflops[name] = self.flops[name] / busy / 1e9 if busy else 0.0
        tape_mb = {k: v / steps / 1e6 for k, v in self.tape.items()}
        return {"layers": layers, "unattributed_ms": mean_step_ms - attributed,
                "gflops": gflops, "tape_mb": tape_mb}
