"""Property suites behind the `verify` CLI command: the nine that the
acceptance criteria call (criteria 1-7 and 10), each a seeded sweep of one
claim of the paper or of the training path against its oracle.

Each suite returns (ok, detail).  Identities stated as exact are checked
bitwise.  Checks of one function on hand-made or edge inputs are unit
tests, not suites; `scan_states` and `fd_check` serve both.
"""

from __future__ import annotations

import numpy as np

from . import analysis, attention, data, grad, masked, model
from .config import RunConfig
from .opcount import counting
from .tensor import make_rng


def suite_factored_equivalence(seed=0):
    """200 seeded cases, N <= 64, d <= 16, every normalization mode."""
    rng = make_rng(seed)
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(1, 65))
        d = int(rng.integers(1, 17))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        w = rng.standard_normal((d, d))
        mode = attention.NORM_MODES[case % len(attention.NORM_MODES)]
        lit = attention.dim_attention_materialized(q, k, v, w, mode)
        fac = grad.dim_attention_multi_fwd(q[None], k[None], v[None], w[None], mode)[0][0]
        worst = max(worst, float(np.abs(lit - fac).max()))
    ok = worst <= 1e-10
    return ok, f"200 cases, materialized vs factored max diff {worst:.2e} (<= 1e-10)"


def suite_covariance_identity(seed=0):
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 33))
        d = int(rng.integers(1, 9))
        h = rng.standard_normal((n, d))
        h -= h.mean(axis=0)
        std = h.std(axis=0)
        h /= np.where(std > 0, std, 1.0)
        h -= h.mean(axis=0)  # re-center exactly after standardizing
        wq = rng.standard_normal((d, d))
        wk = rng.standard_normal((d, d))
        worst = max(worst, attention.covariance_identity_check(h, wq, wk))
    ok = worst <= 1e-10
    return ok, f"50 centered inputs, max deviation {worst:.2e} (<= 1e-10)"


def suite_tensor_representations(seed=0):
    rng = make_rng(seed)
    worst_explicit_v = 0.0
    worst_colsum = 0.0
    worst_implicit = 0.0
    ones_exact = True
    for _ in range(50):
        n = int(rng.integers(1, 33))
        d = int(rng.integers(1, 13))
        s = rng.standard_normal((d, d))
        v = rng.standard_normal((n, d))
        for mode in attention.NORM_MODES:
            fs = attention.normalize_scores(s, mode, n)
            x = attention.kr_tensor(s, v, mode)
            # summing over j leaves V scaled by column sums of f(S)
            worst_colsum = max(worst_colsum, float(np.abs(
                attention.explicit_rep(x) - v * fs.sum(axis=0)[None, :]).max()))
            # summing over k equals V @ f(S)^T
            worst_implicit = max(worst_implicit, float(np.abs(
                attention.implicit_rep(x) - v @ fs.T).max()))
            ones_exact &= np.array_equal(
                attention.conv_extract(x, np.ones((d, d))), attention.implicit_rep(x))
        x_cols = attention.kr_tensor(s, v, "softmax_cols_over_j")
        worst_explicit_v = max(worst_explicit_v, float(np.abs(
            attention.explicit_rep(x_cols) - v).max()))
    ok = (worst_explicit_v <= 1e-12 and worst_colsum <= 1e-12
          and worst_implicit <= 1e-12 and ones_exact)
    return ok, (f"explicit(colsoftmax)=V off {worst_explicit_v:.2e}, "
                f"implicit=V f(S)^T off {worst_implicit:.2e} (<= 1e-12), "
                f"all-ones filter exact: {ones_exact}")


def scan_states(q, k):
    """The causal kernel's prefix states [N, d, d] of one sequence [N, d]:
    `grad._chunk_prefix` chunk by chunk, each continuing the chunk-start
    state that the forward's tape holds."""
    d = q.shape[1]
    _, node = grad.masked_attention_multi_fwd(q[None], k[None], q[None], np.ones((1, d, d)))
    starts = node.saved["starts"]
    return np.concatenate([grad._chunk_prefix(q[None], k[None], starts[:, t],
                                              t * grad._CHUNK)[0]
                           for t in range(starts.shape[1])])


def suite_masked_equivalence(seed=0):
    """110 seeded cases, d <= 8: the causal kernel's prefix states equal the
    loop oracle's score slices bitwise, and its output matches the loop
    oracle (100 cases, N <= 32) or the vectorized literal sum (10 cases, N
    up to three chunks of the scan)."""
    rng = make_rng(seed)
    states_equal = True
    worst_out = 0.0
    for case in range(110):
        if case < 100:
            n, oracle = int(rng.integers(1, 33)), masked.masked_output
        else:
            n = int(rng.integers(grad._CHUNK - 2, 3 * grad._CHUNK + 1))
            oracle = masked.masked_output_vectorized_naive
        d = int(rng.integers(1, 9))
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        w = rng.standard_normal((d, d))
        states_equal &= np.array_equal(scan_states(q, k),
                                       masked.masked_score_naive(q, k).transpose(2, 0, 1))
        out = grad.masked_attention_multi_fwd(q[None], k[None], v[None], w[None])[0][0]
        worst_out = max(worst_out, float(np.abs(oracle(q, k, v, w) - out).max()))
    ok = states_equal and worst_out <= 1e-10
    return ok, (f"110 cases, prefix states bitwise the loop oracle's: {states_equal}, "
                f"output diff {worst_out:.2e} (<= 1e-10)")


def suite_causality(seed=0):
    """50 seeded decoder configs; suffix perturbations never reach the prefix."""
    rng = make_rng(seed)
    worst_stream = 0.0
    naive_exact = True
    worst_model = 0.0
    for case in range(50):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 7))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        w = rng.standard_normal((d, d))
        p = int(rng.integers(0, n - 1))
        q2, k2, v2 = q.copy(), k.copy(), v.copy()
        q2[p + 1:] += rng.standard_normal((n - p - 1, d))
        k2[p + 1:] += rng.standard_normal((n - p - 1, d))
        v2[p + 1:] += rng.standard_normal((n - p - 1, d))
        a = masked.masked_output(q, k, v, w)
        b = masked.masked_output(q2, k2, v2, w)
        naive_exact &= np.array_equal(a[: p + 1], b[: p + 1])
        a = grad.masked_attention_multi_fwd(q[None], k[None], v[None], w[None])[0][0]
        b = grad.masked_attention_multi_fwd(q2[None], k2[None], v2[None], w[None])[0][0]
        worst_stream = max(worst_stream, float(np.abs(a[: p + 1] - b[: p + 1]).max()))

        if case < 10:  # full decoder stacks are heavier; ten configs suffice
            vocab = int(rng.integers(6, 12))
            convs = int(rng.integers(1, 3))
            dm = int(rng.integers(1, 5)) * convs * 2
            cfg = RunConfig(
                vocab_size=vocab, d_model=dm, layers=int(rng.integers(1, 3)),
                attention="dim", groups=1, convs=convs,
                head_dim=dm // convs, ffn_width=2 * dm, seq_len=n, dropout=0.0)
            params = model.init_params(cfg, seed + case)
            ids = rng.integers(0, vocab, n)
            ids2 = ids.copy()
            ids2[p + 1:] = (ids2[p + 1:] + 1) % vocab
            la = model.forward(params, ids[None], cfg, decoder=True)[0][0]
            lb = model.forward(params, ids2[None], cfg, decoder=True)[0][0]
            worst_model = max(worst_model, float(np.abs(la[: p + 1] - lb[: p + 1]).max()))
    ok = naive_exact and worst_stream <= 1e-12 and worst_model <= 1e-12
    return ok, (f"naive exact: {naive_exact}, streaming prefix drift "
                f"{worst_stream:.2e}, decoder logits drift {worst_model:.2e} (<= 1e-12)")


def _fd_worst(loss, arrays, analytic, h=1e-5):
    """Worst relative error |a - n| / max(|a|, |n|, 1e-8) of the `analytic`
    gradients against central differences n of the scalar `loss()`, which
    reads `arrays`: each entry is moved by +h and -h in place, then put back.
    The one finite-difference loop of every gradient check."""
    worst = 0.0
    for name, arr in arrays.items():
        for idx in np.ndindex(arr.shape):
            old = arr[idx]
            arr[idx] = old + h
            f_plus = loss()
            arr[idx] = old - h
            f_minus = loss()
            arr[idx] = old
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[name][idx])
            worst = max(worst, abs(a - numeric) / max(abs(a), abs(numeric), 1e-8))
    return worst


def fd_check(op: str, inputs: dict, attrs: dict | None = None) -> float:
    """Worst relative error of `grad.<op>_bwd` against central differences
    of the scalarizing loss sum(`grad.<op>_fwd`) over every entry of the
    float64 `inputs`; `attrs` pass through unperturbed."""
    attrs = attrs or {}
    for name, arr in inputs.items():
        if np.asarray(arr).dtype != np.float64:
            raise ValueError(f"fd_check requires float64 inputs, {name} is "
                             f"{np.asarray(arr).dtype}")
    fwd, bwd = getattr(grad, op + "_fwd", None), getattr(grad, op + "_bwd", None)
    if fwd is None or bwd is None:
        raise ValueError(f"unknown op id {op!r}")
    inputs = {name: np.array(arr) for name, arr in inputs.items()}  # perturbed in place
    out, node = fwd(**inputs, **attrs)
    # the dim backward takes the projection that reads its output: none here
    proj = (np.eye(out.shape[-1]),) if op == "dim_attention_multi" else ()
    analytic = bwd(node, np.ones_like(out) if np.ndim(out) else 1.0, *proj)
    return _fd_worst(lambda: float(np.sum(fwd(**inputs, **attrs)[0])), inputs, analytic)


def _attention_inputs(r, n, d):
    """q/k/v as a batch of one or two, and one or two filters."""
    lead = (1,) if r.integers(0, 2) else (2,)
    return {"q": r.standard_normal(lead + (n, d)),
            "k": r.standard_normal(lead + (n, d)),
            "v": r.standard_normal(lead + (n, d)),
            "ws": r.standard_normal((int(r.integers(1, 3)), d, d))}


_FD_OP_CASES = [
    ("linear", lambda r: ({"x": r.standard_normal((2, 3, 4)),
                           "w": r.standard_normal((4, 3)),
                           "b": r.standard_normal(3)}, {})),
    ("relu", lambda r: ({"x": r.standard_normal((3, 5))}, {})),
    ("layer_norm", lambda r: ({"x": r.standard_normal((2, 4, 6)),
                               "gamma": 1 + 0.1 * r.standard_normal(6),
                               "beta": 0.1 * r.standard_normal(6)}, {})),
    ("embed", lambda r: ({"table": r.standard_normal((7, 4))},
                         {"ids": r.integers(0, 7, (2, 5))})),
    ("token_attention", lambda r: ({"q": r.standard_normal((1, 5, 3)),
                                    "k": r.standard_normal((1, 5, 3)),
                                    "v": r.standard_normal((1, 5, 3))},
                                   {"causal": bool(r.integers(0, 2))})),
    ("dim_attention_multi", lambda r: (
        _attention_inputs(r, 5, 3), {"mode": attention.NORM_MODES[int(r.integers(0, 4))]})),
    ("masked_attention_multi", lambda r: (_attention_inputs(r, 4, 2), {})),
    ("cross_entropy_masked", lambda r: (
        {"logits": r.standard_normal((2, 4, 6))},
        {"targets": r.integers(0, 6, (2, 4)),
         "mask": r.random((2, 4)) < 0.6})),
]


def suite_gradient_ops(seed=0):
    """Every trainable op: 20 seeded finite-difference checks at 1e-4.

    Standalone softmax is excluded from the sum-loss FD (its output sum is
    identically 1, so the true gradient vanishes and central differences
    only measure cancellation noise); its backward rule is exercised through
    the attention ops and checked analytically below.
    """
    worst = {}
    for name, build in _FD_OP_CASES:
        w = 0.0
        for i in range(20):
            r = make_rng(seed * 1000 + i)
            inputs, attrs = build(r)
            if name == "cross_entropy_masked" and not attrs["mask"].any():
                attrs["mask"][0, 0] = True
            w = max(w, fd_check(name, inputs, attrs=attrs))
        worst[name] = w
    bad = {k: v for k, v in worst.items() if v > 1e-4}

    # softmax Jacobian annihilates constants: uniform input + uniform
    # upstream give an exactly-zero input gradient
    p = grad.softmax_fwd(np.zeros((3, 5)))
    softmax_ok = not grad.softmax_vjp(p, np.ones((3, 5))).any()

    # zero upstream -> zero gradients, exactly, through every attention op
    r = make_rng(seed)
    q, k, v, w = (r.standard_normal((1, 4, 3)) for _ in range(4))
    w = r.standard_normal((3, 3))
    zero_ok = True
    wo = r.standard_normal((3, 3))  # the projection after the dim core
    for op, args, proj in (
            ("token_attention", (q, k, v, True), ()),
            ("dim_attention_multi", (q, k, v, w[None], "softmax_rows_over_k"), (wo,)),
            ("masked_attention_multi", (q, k, v, w[None]), ())):
        out, node = getattr(grad, op + "_fwd")(*args)
        zeros = getattr(grad, op + "_bwd")(node, np.zeros_like(out), *proj)
        zero_ok &= all(not g.any() for g in zeros.values())

    # duplicated input: d/dQ of op(Q, Q, V) @ wo equals the sum of both partials
    out, node = grad.dim_attention_multi_fwd(q, q, v, w[None], mode="none")
    gs = grad.dim_attention_multi_bwd(node, np.ones_like(out), wo)
    worst_dup = _fd_worst(
        lambda: float(np.sum(grad.dim_attention_multi_fwd(q, q, v, w[None], mode="none")[0]
                             @ wo)),
        {"q": q}, {"q": gs["q"] + gs["k"]}, h=1e-6)
    ok = not bad and zero_ok and softmax_ok and worst_dup <= 1e-4
    detail = ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items(),
                                                         key=lambda kv: -kv[1])[:3])
    return ok, (f"worst op rel errs: {detail} (<= 1e-4); zero-upstream exact: "
                f"{zero_ok}; softmax kills constants: {softmax_ok}; "
                f"shared-input sum rule {worst_dup:.1e}")


def _tiny_model_fd(cfg, seed, decoder=False, pad=None):
    """Worst relative error of model.loss_and_grads against central
    differences over every parameter entry, on a batch of two seq_len rows.
    Each difference is of the loss of the all-rows forward alone, so the
    encoder's loss-rows gradients are checked against another path."""
    params = model.init_params(cfg, seed)
    rng = make_rng(seed + 1)
    ids = rng.integers(0, cfg.vocab_size, (2, cfg.seq_len))
    targets = rng.integers(0, cfg.vocab_size, (2, cfg.seq_len))
    mask = rng.random((2, cfg.seq_len)) < 0.5
    mask[0, 0] = True
    if pad is not None:
        mask &= ~pad

    def loss():
        logits = model.forward(params, ids, cfg, decoder=decoder, pad=pad)[0]
        return model.mlm_loss(logits, targets, mask)

    analytic = model.loss_and_grads(params, ids, targets, mask, cfg,
                                    decoder=decoder, pad=pad)[1]
    return _fd_worst(loss, params, analytic)


def suite_gradient_end_to_end(seed=0):
    """Whole-model FD: dim with one and two groups, token with two heads, and
    both kinds on a batch whose second row is padded from position 3; each as
    encoder and as decoder.  Then a dim decoder whose rows cross a chunk of
    the causal scan."""
    shared = dict(vocab_size=9, layers=1, ffn_width=8, seq_len=5, dropout=0.0)
    dim = RunConfig(d_model=6, convs=2, head_dim=3, **shared)
    token = RunConfig(d_model=6, attention="token", heads=2, **shared)
    pad = np.zeros((2, 5), dtype=bool)
    pad[1, 3:] = True
    cases = [
        ("dim", dim, None),
        ("dim groups=2", RunConfig(d_model=8, groups=2, convs=2, head_dim=2, **shared),
         None),
        ("token heads=2", token, None),
        ("dim padded", dim, pad),
        ("token padded", token, pad),
    ]
    worst = {}
    for i, (label, cfg, p) in enumerate(cases):
        for decoder in (False, True):
            key = f"{label} {'decoder' if decoder else 'encoder'}"
            worst[key] = _tiny_model_fd(cfg, seed + 7 * decoder + 13 * i, decoder, p)
    long_dim = RunConfig(d_model=6, convs=2, head_dim=3,
                         **dict(shared, seq_len=grad._CHUNK + 3))
    worst["dim N=C+3 decoder"] = _tiny_model_fd(long_dim, seed + 71, decoder=True)
    ok = max(worst.values()) <= 1e-3
    return ok, ", ".join(f"{k} {v:.1e}" for k, v in worst.items()) + " (<= 1e-3)"


def suite_flops_consistency(seed=0):
    """The counters of the three grad forward kernels that training runs equal
    the analytic reports per component at every N of the doubling loop, with
    a batch of 2 (heads for token attention, groups for dim) and 4 filters;
    the reports' integer doubling laws hold exactly, the naive causal score
    cost quadrupling where the kernels' doubles."""
    rng = make_rng(seed)
    d, b, c = 8, 2, 4
    problems = []

    def compare(label, kernel, args, want):
        with counting() as tally:
            kernel(*args)
        if tally.by_component != want:
            problems.append(f"{label}: counters {tally.by_component} != analytic {want}")

    token, dim, causal, naive = {}, {}, {}, {}
    for n in (8, 16, 32, 64, 128, 256, 512):
        token[n] = analysis.flops_token_attention(n, d, b)
        dim[n] = analysis.flops_dim_attention(n, d, b, c)
        causal[n] = analysis.flops_masked(n, d, streaming=True)
        naive[n] = analysis.flops_masked(n, d, streaming=False)
        q, k, v = (rng.standard_normal((b, n, d)) for _ in range(3))
        ws = rng.standard_normal((c, d, d))
        compare(f"token N={n}", grad.token_attention_fwd, (q, k, v), token[n].by_component)
        compare(f"dim N={n}", grad.dim_attention_multi_fwd,
                (q, k, v, ws, "softmax_rows_over_k"), dim[n].by_component)
        # flops_masked counts one sequence and one filter
        (cm, ca), (mm, ma) = (causal[n].by_component[key] for key in ("cum_outer", "masked_mix"))
        compare(f"causal N={n}", grad.masked_attention_multi_fwd, (q, k, v, ws),
                {"cum_outer": (b * cm, b * ca), "masked_mix": (b * c * mm, b * c * ma)})

    for nn in (8, 32, 128):
        f1, f2, f4 = dim[nn], dim[2 * nn], dim[4 * nn]
        if (f4.total - f2.total) != 2 * (f2.total - f1.total):
            problems.append(f"dim increments at N={nn} not doubling")
        if sum(f2.by_component["filter_mix"]) != 2 * sum(f1.by_component["filter_mix"]):
            problems.append(f"dim filter_mix at N={nn} not doubling")
        t1, t2, t4 = token[nn], token[2 * nn], token[4 * nn]
        if sum(t2.by_component["scores"]) != 4 * sum(t1.by_component["scores"]):
            problems.append(f"token scores at N={nn} not quadrupling")
        if t4.total - 2 * t2.total != 4 * (t2.total - 2 * t1.total):
            problems.append(f"token quadratic part at N={nn} not quadrupling")
        if naive[2 * nn].by_component["masked_scores_naive"][0] != \
                4 * naive[nn].by_component["masked_scores_naive"][0]:
            problems.append(f"masked naive score multiplies at N={nn} not quadrupling")
        if causal[2 * nn].mults != 2 * causal[nn].mults:
            problems.append(f"masked streaming multiplies at N={nn} not doubling")
    ok = not problems
    return ok, ("token, dim and causal kernel counters (batch 2, 4 filters) match "
                "analytic reports per component at N = 8..512; doubling laws exact"
                if ok else "; ".join(problems))


def suite_masking_statistics(seed=0):
    stream = make_rng(seed + 5).integers(5, 35, size=120_000)
    rng = make_rng(seed)
    inputs, targets, sel = data.apply_mlm_mask(stream, rng, vocab_size=35)
    frac = sel.mean()
    masked_frac = (inputs[sel] == data.MASK_ID).mean()
    kept = (inputs[sel] == stream[sel]) & (inputs[sel] != data.MASK_ID)
    randomized = ~kept & (inputs[sel] != data.MASK_ID)
    kept_frac = kept.mean()
    rand_frac = randomized.mean()
    ok = (abs(frac - 0.15) <= 0.01
          and abs(masked_frac - 0.8) <= 0.02
          and abs(rand_frac - 0.1) <= 0.02
          and abs(kept_frac - 0.1) <= 0.02
          and np.array_equal(targets[sel], stream[sel]))
    return ok, (f"selected {frac:.4f} (15% +/- 1%), split "
                f"{masked_frac:.3f}/{rand_frac:.3f}/{kept_frac:.3f} "
                f"(80/10/10 +/- 2%) over 120k tokens")


SUITES = [
    ("factored_equivalence", suite_factored_equivalence),
    ("covariance_identity", suite_covariance_identity),
    ("tensor_representations", suite_tensor_representations),
    ("masked_equivalence", suite_masked_equivalence),
    ("causality", suite_causality),
    ("gradient_ops", suite_gradient_ops),
    ("gradient_end_to_end", suite_gradient_end_to_end),
    ("flops_consistency", suite_flops_consistency),
    ("masking_statistics", suite_masking_statistics),
]


def run_all(seed: int = 0) -> int:
    """Run every suite; one line each; returns 0 if all pass, 1 otherwise."""
    failures = 0
    for name, fn in SUITES:
        try:
            ok, detail = fn(seed)
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok
    return 0 if failures == 0 else 1
