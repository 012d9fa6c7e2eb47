"""Output checks: references the benchmark computes itself, and properties
the method must have.  None compares against stored program output.

Every check returns Check(name, ok, detail); each counts as one attempted
operation, and as failed when ok is False.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

KERNEL_RTOL = 1e-9      # f64 kernels against the plain references
# Central difference against <grad L, u>.  The loss has kinks where a ReLU
# input crosses zero; an interval [-eps, eps] that contains one gives an
# O(1) error at any eps (seen: 1.6e-4 relative at eps = 1e-6 on one seed in
# ten of clm-dim-long).  So eps shrinks tenfold, at most GRAD_SHRINKS times,
# until no ReLU input changes sign across the interval.  Round-off of the
# difference is about 1e-16 * |L| / eps; GRAD_ROUNDOFF / eps bounds it with
# a 20x margin over what was seen.
GRAD_EPS = 1e-6
GRAD_SHRINKS = 2
GRAD_RTOL = 1e-4
GRAD_ROUNDOFF = 1e-14
CAUSAL_ATOL = 1e-12     # relative to the largest logit
CAUSAL_CUTS = (0.25, 0.5, 0.75)
EOS = "<eos>"


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


class Setup(NamedTuple):
    cfg: object
    bc: object
    params: dict
    batch: object

    @property
    def decoder(self) -> bool:
        return self.cfg.task == "clm"


def load_setup(prog, spec: dict) -> Setup:
    """Initial parameters and the first training batch of a round."""
    cfg = prog.config.RunConfig(**spec)
    vocab, ids = prog.data.build_corpus(cfg.data, cfg.tokenizer, cfg.vocab_cap)
    win, pad = prog.data.windows(ids, cfg.seq_len)
    (tw, tp), _ = prog.data.split_windows(win, pad, cfg.valid_fraction)
    bc = cfg.block_config(vocab.size)
    params = prog.model.init_params(bc, cfg.seed)
    if cfg.task == "mlm":
        batch = prog.data.mlm_batch(tw, tp, bc.vocab_size, cfg.seed, 0, cfg.batch_size)
    else:
        batch = prog.data.clm_batch(tw, tp, cfg.seed, 0, cfg.batch_size)
    return Setup(cfg, bc, params, batch)


# ---------------------------------------------------------------------------
# attention kernels against plain numpy
# ---------------------------------------------------------------------------

def _softmax_rows(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def reference_dim(q, k, v, ws, mode):
    """Per filter c: V (W_c * softmax_k(Q^T K))^T."""
    if mode != "softmax_rows_over_k":
        raise ValueError(f"no reference for norm mode {mode!r}")
    b, n, d = q.shape
    c = ws.shape[0]
    out = np.empty((b, n, c * d))
    for bi in range(b):
        p = _softmax_rows(q[bi].T @ k[bi])
        for ci in range(c):
            out[bi, :, ci * d:(ci + 1) * d] = v[bi] @ (ws[ci] * p).T
    return out


def reference_masked(q, k, v, ws, scale_positions=False):
    """Per position i and filter c: (W_c * sum_{n<=i} q_n k_n^T) v_i."""
    b, n, d = q.shape
    c = ws.shape[0]
    out = np.empty((b, n, c * d))
    for bi in range(b):
        g = np.zeros((d, d))
        for i in range(n):
            g += np.outer(q[bi, i], k[bi, i])
            row = ((ws * g) @ v[bi, i]).reshape(c * d)
            out[bi, i] = row / math.sqrt(i + 1) if scale_positions else row
    return out


def reference_token(q, k, v, causal=False, key_pad=None):
    """softmax(Q K^T / sqrt(d)) V with future and padded keys excluded."""
    b, n, d = q.shape
    allowed = np.tril(np.ones((n, n), dtype=bool)) if causal else np.ones((n, n), bool)
    out = np.empty_like(q)
    for bi in range(b):
        keep = allowed if key_pad is None else allowed & ~key_pad[bi][None, :]
        s = np.where(keep, q[bi] @ k[bi].T / math.sqrt(d), -np.inf)
        out[bi] = _softmax_rows(s) @ v[bi]
    return out


def attention_op(cfg) -> str:
    """The grad.py forward that training runs for this config."""
    if cfg.attention == "token":
        return "token_attention_fwd"
    return "masked_attention_multi_fwd" if cfg.task == "clm" else "dim_attention_multi_fwd"


def _reference(op, args, kwargs):
    if op == "token_attention_fwd":
        return reference_token(*args, causal=kwargs.get("causal", False),
                               key_pad=kwargs.get("key_pad"))
    if op == "masked_attention_multi_fwd":
        return reference_masked(*args, **kwargs)
    return reference_dim(*args, mode=kwargs.get("mode", "none"))


def kernel_reference(prog, setup: Setup) -> list:
    """Run the model on a real batch and check every attention call it made."""
    op = attention_op(setup.cfg)
    orig = getattr(prog.grad, op)
    calls = []

    def capture(*args, **kwargs):
        out = orig(*args, **kwargs)
        calls.append((args, kwargs, out[0]))
        return out

    setattr(prog.grad, op, capture)
    try:
        prog.model.forward(setup.params, setup.batch.inputs, setup.bc,
                           decoder=setup.decoder, pad=setup.batch.pad)
    finally:
        setattr(prog.grad, op, orig)
    checks = []
    for i, (args, kwargs, out) in enumerate(calls):
        ref = _reference(op, args, kwargs)
        err = float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))
        checks.append(Check(f"kernel_reference.{op}[{i}]", err <= KERNEL_RTOL,
                            f"rel_err={err:.3e} tol={KERNEL_RTOL:g}"))
    if not calls:
        checks.append(Check(f"kernel_reference.{op}", False, "op was never called"))
    return checks


# ---------------------------------------------------------------------------
# gradients and causality
# ---------------------------------------------------------------------------

def grad_direction(prog, setup: Setup, seed: int) -> Check:
    """Central difference of the loss along a random unit direction u must
    match <grad L, u> from model.loss_and_grads (dropout off)."""
    bc = dataclasses.replace(setup.bc, dropout=0.0)
    batch = setup.batch
    _, grads = prog.model.loss_and_grads(setup.params, batch.inputs, batch.targets,
                                         batch.mask, bc, decoder=setup.decoder,
                                         pad=batch.pad)
    rng = np.random.default_rng([seed, 0x6D])
    u = {name: rng.standard_normal(p.shape) for name, p in sorted(setup.params.items())}
    norm = math.sqrt(sum(float(np.sum(x * x)) for x in u.values()))
    analytic = sum(float(np.vdot(grads[name], x)) for name, x in u.items()
                   if name in grads) / norm

    def loss_at(step):
        """Loss at params + step * u and the sign of every ReLU input."""
        shifted = {name: p + step * u[name] / norm for name, p in setup.params.items()}
        orig, signs = prog.grad.relu_fwd, []

        def relu_fwd(x):
            signs.append(x > 0)
            return orig(x)

        prog.grad.relu_fwd = relu_fwd
        try:
            logits, _ = prog.model.forward(shifted, batch.inputs, bc,
                                           decoder=setup.decoder, pad=batch.pad)
        finally:
            prog.grad.relu_fwd = orig
        return prog.model.mlm_loss(logits, batch.targets, batch.mask), signs

    eps = GRAD_EPS
    for shrink in range(GRAD_SHRINKS + 1):
        (plus, signs_plus), (minus, signs_minus) = loss_at(eps), loss_at(-eps)
        crossed = sum(int(np.count_nonzero(a != b)) for a, b in zip(signs_plus, signs_minus))
        if not crossed or shrink == GRAD_SHRINKS:
            break
        eps /= 10
    numeric = (plus - minus) / (2 * eps)
    err = abs(numeric - analytic)
    ok = err <= GRAD_RTOL * max(abs(numeric), abs(analytic)) + GRAD_ROUNDOFF / eps
    return Check("grad_direction", ok,
                 f"analytic={analytic:.9e} numeric={numeric:.9e} abs_err={err:.3e} "
                 f"eps={eps:g} relu_sign_changes={crossed}")


def causality(prog, setup: Setup, seed: int) -> list:
    """Changing the tokens after position i leaves logits at <= i unchanged."""
    batch, bc = setup.batch, setup.bc
    ids = batch.inputs
    base, _ = prog.model.forward(setup.params, ids, bc, decoder=True, pad=batch.pad)
    scale = float(np.max(np.abs(base)))
    rng = np.random.default_rng([seed, 0xCA])
    n = ids.shape[1]
    checks = []
    for frac in CAUSAL_CUTS:
        i = int(n * frac)
        alt = ids.copy()
        # an offset in [1, V-1] guarantees every later token changes
        offset = rng.integers(1, bc.vocab_size, size=alt[:, i + 1:].shape)
        alt[:, i + 1:] = (alt[:, i + 1:] + offset) % bc.vocab_size
        logits, _ = prog.model.forward(setup.params, alt, bc, decoder=True, pad=batch.pad)
        before = float(np.max(np.abs(logits[:, :i + 1] - base[:, :i + 1])))
        after = float(np.max(np.abs(logits[:, i + 1] - base[:, i + 1])))
        ok = before <= CAUSAL_ATOL * scale and after > 0.0
        checks.append(Check(f"causality[i={i}]", ok,
                            f"max_change_before={before:.3e} at_next={after:.3e}"))
    return checks


# ---------------------------------------------------------------------------
# learning and the rounds' outputs
# ---------------------------------------------------------------------------

def _char_tokens(text: str) -> list:
    tokens = []
    for j, line in enumerate(text.split("\n")):
        if j:
            tokens.append(EOS)
        tokens.extend(line)
    return tokens


def unigram_ce(corpus_path, spec: dict, eval_windows: int) -> float:
    """Held-out cross-entropy (nats/token) under the train split's add-one
    smoothed unigram frequencies, over the windows one evaluation scores.

    Computed from the text alone: the trailing valid_fraction of
    seq_len-token windows is held out, as in the program.  Masked-LM scores
    every non-reserved token; causal-LM scores every token that has a
    predecessor in its window.
    """
    if spec["tokenizer"] != "char":
        raise ValueError("unigram reference is written for the char tokenizer")
    with open(corpus_path, encoding="utf-8") as f:
        tokens = _char_tokens(f.read())
    n = spec["seq_len"]
    num = -(-len(tokens) // n)
    n_valid = min(max(1, int(round(num * spec["valid_fraction"]))), num - 1)
    cut = num - n_valid
    counts = Counter(tokens[:cut * n])
    total = sum(counts.values())
    vocab = len(set(tokens))
    scored = []
    for w in range(cut, cut + eval_windows):
        window = tokens[w * n:(w + 1) * n]
        scored += [t for t in window if t != EOS] if spec["task"] == "mlm" else window[1:]
    return -sum(math.log((counts[t] + 1) / (total + vocab)) for t in scored) / len(scored)


def round_checks(index: int, result: dict, first: dict, unigram: float) -> list:
    """Checks on one round's outputs; `first` is round 0's result."""
    nll = result["valid_nll"]
    checks = [
        Check(f"train_losses_finite[{index}]", result["train_losses_finite"], ""),
        Check(f"valid_nll_below_unigram[{index}]", math.isfinite(nll) and nll < unigram,
              f"valid_nll={nll:.6f} unigram={unigram:.6f}"),
        Check(f"checkpoint_bitwise[{index}]", result["checkpoint_bitwise"], ""),
    ]
    if index:
        same = all(result[k] == first[k] for k in
                   ("metrics_sha256", "checkpoint_sha256", "valid_nll"))
        checks.append(Check(f"deterministic[{index}]", same,
                            "metrics.csv, final.ckpt and valid_nll equal round 0"))
    return checks
