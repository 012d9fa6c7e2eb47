"""Property suites behind the `verify` CLI command.

Each suite returns (ok, detail).  Identities stated as exact are checked
bitwise; where floating-point addition order would spoil an algebraically
exact identity (permutation of summands, prefix-sum differences) the suite
uses integer-valued tensors, for which f64 arithmetic is exact, so the
structural identity really is tested at zero tolerance.
"""

from __future__ import annotations

import numpy as np

from . import analysis, attention, data, grad, masked, model
from .opcount import counting
from .tensor import make_rng, matmul, rand_init


def _rng(seed):
    return make_rng(seed)


def suite_numerics_matmul(seed=0):
    rng = _rng(seed)
    worst = 0.0
    for _ in range(20):
        m, k, n, p = rng.integers(1, 33, size=4)
        a = rng.uniform(-1, 1, (m, k))
        b = rng.uniform(-1, 1, (k, n))
        c = rng.uniform(-1, 1, (n, p))
        worst = max(worst, float(np.abs(matmul(matmul(a, b), c)
                                        - matmul(a, matmul(b, c))).max()))
    ok = worst <= 1e-9
    return ok, f"associativity max diff {worst:.2e} (<= 1e-9)"


def suite_numerics_softmax(seed=0):
    rng = _rng(seed)
    worst_shift, worst_sum = 0.0, 0.0
    for _ in range(20):
        d = int(rng.integers(1, 16))
        m = rng.standard_normal((d, d)) * 3
        for axis in (-1, -2):
            p = grad.softmax_fwd(m, axis)[0]
            worst_sum = max(worst_sum, float(np.abs(p.sum(axis=axis) - 1.0).max()))
            shifted = grad.softmax_fwd(m + 7.25, axis)[0]
            worst_shift = max(worst_shift, float(np.abs(p - shifted).max()))
    stable = grad.softmax_fwd(np.array([[1000.0, 1000.0]]))[0]
    ok = (worst_shift <= 1e-12 and worst_sum <= 1e-12
          and np.allclose(stable, 0.5) and np.isfinite(stable).all())
    return ok, (f"shift invariance {worst_shift:.2e}, slice sums off by "
                f"{worst_sum:.2e} (<= 1e-12)")


def suite_numerics_cum_outer(seed=0):
    rng = _rng(seed)
    worst = 0.0
    for _ in range(20):
        n, d = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        out = masked.masked_score_streaming(q, k)
        worst = max(worst, float(np.abs(out[:, :, -1] - q.T @ k).max()))
    ok = worst <= 1e-10
    return ok, f"last slice vs Q^T K max diff {worst:.2e} (<= 1e-10)"


def suite_numerics_rng(seed=0):
    a = rand_init((4, 4), "xavier_uniform", make_rng(seed + 123))
    b = rand_init((4, 4), "xavier_uniform", make_rng(seed + 123))
    bound = np.sqrt(6.0 / 8.0)
    ok = (np.array_equal(a, b)
          and np.abs(a).max() <= bound
          and np.array_equal(rand_init((3, 3), "normal", make_rng(0), sigma=0.0),
                             np.zeros((3, 3))))
    return ok, f"seeded init bit-identical, xavier bound {bound:.3f} respected"


def suite_factored_equivalence(seed=0):
    """200 seeded cases, N <= 64, d <= 16, every normalization mode."""
    rng = _rng(seed)
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
        fac = grad.dim_attention_multi_fwd(q, k, v, w[None], mode)[0]
        worst = max(worst, float(np.abs(lit - fac).max()))
    ok = worst <= 1e-10
    return ok, f"200 cases, materialized vs factored max diff {worst:.2e} (<= 1e-10)"


def suite_covariance_identity(seed=0):
    rng = _rng(seed)
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
    rng = _rng(seed)
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


def suite_dim_score_permutation(seed=0):
    """Exact (bitwise) check on integer-valued inputs, where f64 is exact."""
    rng = _rng(seed)
    ok = True
    for _ in range(50):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 12))
        q = rng.integers(-4, 5, (n, d)).astype(np.float64)
        k = rng.integers(-4, 5, (n, d)).astype(np.float64)
        perm = rng.permutation(n)
        ok &= np.array_equal(attention.dim_score(q, k),
                             attention.dim_score(q[perm], k[perm]))
    return ok, "token-permutation leaves S bitwise unchanged on exact inputs"


def suite_masked_equivalence(seed=0):
    """100 seeded cases, N <= 32, d <= 8: streaming equals the loop oracle."""
    rng = _rng(seed)
    worst_scores = 0.0
    worst_out = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 33))
        d = int(rng.integers(1, 9))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        v = rng.standard_normal((n, d))
        w = rng.standard_normal((d, d))
        s_naive = masked.masked_score_naive(q, k)
        s_stream = masked.masked_score_streaming(q, k)
        worst_scores = max(worst_scores, float(np.abs(s_naive - s_stream).max()))
        o_naive = masked.masked_output(q, k, v, w)
        o_stream = grad.masked_attention_multi_fwd(q, k, v, w[None])[0]
        worst_out = max(worst_out, float(np.abs(o_naive - o_stream).max()))
    ok = worst_scores <= 1e-10 and worst_out <= 1e-10
    return ok, (f"100 cases, score tensor diff {worst_scores:.2e}, "
                f"output diff {worst_out:.2e} (<= 1e-10)")


def suite_masked_structure(seed=0):
    rng = _rng(seed)
    worst_last = 0.0
    accum_exact = True
    for _ in range(25):
        n, d = int(rng.integers(2, 17)), int(rng.integers(1, 7))
        q = rng.standard_normal((n, d))
        k = rng.standard_normal((n, d))
        s3 = masked.masked_score_streaming(q, k)
        worst_last = max(worst_last, float(np.abs(
            s3[:, :, n - 1] - attention.dim_score(q, k)).max()))
        # prefix-difference identity is exact in exact arithmetic
        qi = rng.integers(-4, 5, (n, d)).astype(np.float64)
        ki = rng.integers(-4, 5, (n, d)).astype(np.float64)
        s3i = masked.masked_score_naive(qi, ki)
        for kk in range(1, n):
            delta = s3i[:, :, kk] - s3i[:, :, kk - 1]
            accum_exact &= np.array_equal(delta, np.outer(qi[kk], ki[kk]))
    ok = worst_last <= 1e-10 and accum_exact
    return ok, (f"final slice vs unmasked S diff {worst_last:.2e} (<= 1e-10), "
                f"slice increments exactly one outer product: {accum_exact}")


def suite_causality(seed=0):
    """50 seeded decoder configs; suffix perturbations never reach the prefix."""
    rng = _rng(seed)
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
        a = grad.masked_attention_multi_fwd(q, k, v, w[None])[0]
        b = grad.masked_attention_multi_fwd(q2, k2, v2, w[None])[0]
        worst_stream = max(worst_stream, float(np.abs(a[: p + 1] - b[: p + 1]).max()))

        if case < 10:  # full decoder stacks are heavier; ten configs suffice
            vocab = int(rng.integers(6, 12))
            convs = int(rng.integers(1, 3))
            dm = int(rng.integers(1, 5)) * convs * 2
            bc = model.BlockConfig(
                vocab_size=vocab, d_model=dm, layers=int(rng.integers(1, 3)),
                attention="dim", groups=1, convs=convs,
                head_dim=dm // convs, ffn_width=2 * dm, n_max=n, dropout=0.0)
            params = model.init_params(bc, seed + case)
            ids = rng.integers(0, vocab, n)
            ids2 = ids.copy()
            ids2[p + 1:] = (ids2[p + 1:] + 1) % vocab
            la = model.decoder_forward(ids, params, bc)
            lb = model.decoder_forward(ids2, params, bc)
            worst_model = max(worst_model, float(np.abs(la[: p + 1] - lb[: p + 1]).max()))
    ok = naive_exact and worst_stream <= 1e-12 and worst_model <= 1e-12
    return ok, (f"naive exact: {naive_exact}, streaming prefix drift "
                f"{worst_stream:.2e}, decoder logits drift {worst_model:.2e} (<= 1e-12)")


def _attention_inputs(r, n, d):
    """q/k/v as one sequence or a batch of two, and one or two filters."""
    lead = () if r.integers(0, 2) else (2,)
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
    ("token_attention", lambda r: ({"q": r.standard_normal((5, 3)),
                                    "k": r.standard_normal((5, 3)),
                                    "v": r.standard_normal((5, 3))},
                                   {"causal": bool(r.integers(0, 2))})),
    ("dim_attention_multi", lambda r: (
        _attention_inputs(r, 5, 3), {"mode": attention.NORM_MODES[int(r.integers(0, 4))]})),
    ("masked_attention_multi", lambda r: (
        _attention_inputs(r, 4, 2), {"scale_positions": bool(r.integers(0, 2))})),
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
            w = max(w, grad.fd_check(name, inputs, attrs=attrs))
        worst[name] = w
    bad = {k: v for k, v in worst.items() if v > 1e-4}

    # softmax Jacobian annihilates constants: uniform input + uniform
    # upstream give an exactly-zero input gradient
    p, node = grad.softmax_fwd(np.zeros((3, 5)))
    soft_zero = grad.backward(node, np.ones((3, 5)))["x"]
    softmax_ok = bool(np.abs(soft_zero).max() <= 1e-15)

    # zero upstream -> zero gradients, exactly
    r = make_rng(seed)
    q, k, v, w = (r.standard_normal((4, 3)) for _ in range(4))
    w = r.standard_normal((3, 3))
    out, node = grad.dim_attention_multi_fwd(q, k, v, w[None], mode="softmax_rows_over_k")
    zeros = grad.backward(node, np.zeros_like(out))
    zero_ok = all(not g.any() for g in zeros.values())

    # duplicated input: d/dQ of op(Q, Q, V) equals the sum of both partials
    h = 1e-6
    out, node = grad.dim_attention_multi_fwd(q, q, v, w[None], mode="none")
    gs = grad.backward(node, np.ones_like(out))
    shared = gs["q"] + gs["k"]
    worst_dup = 0.0
    for idx in np.ndindex(q.shape):
        qp = q.copy(); qp[idx] += h
        qm = q.copy(); qm[idx] -= h
        fp = float(np.sum(grad.dim_attention_multi_fwd(qp, qp, v, w[None], mode="none")[0]))
        fm = float(np.sum(grad.dim_attention_multi_fwd(qm, qm, v, w[None], mode="none")[0]))
        num = (fp - fm) / (2 * h)
        worst_dup = max(worst_dup, abs(num - shared[idx]) /
                        max(abs(num), abs(shared[idx]), 1e-8))
    ok = not bad and zero_ok and softmax_ok and worst_dup <= 1e-4
    detail = ", ".join(f"{k} {v:.1e}" for k, v in sorted(worst.items(),
                                                         key=lambda kv: -kv[1])[:3])
    return ok, (f"worst op rel errs: {detail} (<= 1e-4); zero-upstream exact: "
                f"{zero_ok}; softmax kills constants: {softmax_ok}; "
                f"shared-input sum rule {worst_dup:.1e}")


def _tiny_encoder_fd(seed, decoder=False):
    bc = model.BlockConfig(vocab_size=9, d_model=6, layers=1, attention="dim",
                           groups=1, convs=2, head_dim=3, ffn_width=8,
                           n_max=5, dropout=0.0)
    params = model.init_params(bc, seed)
    rng = make_rng(seed + 1)
    ids = rng.integers(0, 9, (2, 5))
    targets = rng.integers(0, 9, (2, 5))
    mask = rng.random((2, 5)) < 0.5
    mask[0, 0] = True
    _, grads = model.loss_and_grads(params, ids, targets, mask, bc, decoder=decoder)
    h = 1e-5
    worst = 0.0
    for name, arr in params.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            lp, _ = model.loss_and_grads(params, ids, targets, mask, bc, decoder=decoder)
            arr[idx] = old - h
            lm, _ = model.loss_and_grads(params, ids, targets, mask, bc, decoder=decoder)
            arr[idx] = old
            num = (lp - lm) / (2 * h)
            a = float(grads[name][idx])
            worst = max(worst, abs(a - num) / max(abs(a), abs(num), 1e-8))
    return worst


def suite_gradient_end_to_end(seed=0):
    worst_enc = _tiny_encoder_fd(seed)
    worst_dec = _tiny_encoder_fd(seed + 7, decoder=True)
    ok = worst_enc <= 1e-3 and worst_dec <= 1e-3
    return ok, (f"tiny encoder rel err {worst_enc:.2e}, decoder {worst_dec:.2e} "
                f"(<= 1e-3)")


def suite_flops_consistency(seed=0):
    """Analytic reports equal the counters of the grad forward kernels that
    training runs (and of the naive oracle) exactly, per component; the
    integer doubling laws hold exactly."""
    rng = _rng(seed)
    problems = []

    def compare(label, tally, rep):
        got = {k: v for k, v in tally.by_component.items()}
        want = {k: (v.mults, v.adds) for k, v in rep.components.items()}
        if got != want:
            problems.append(f"{label}: counters {got} != analytic {want}")

    n, d = 10, 4
    q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
    w = rng.standard_normal((d, d))
    with counting() as tally:
        grad.token_attention_fwd(q, k, v)
    compare("token core", tally, analysis.flops_token_attention(n, d))

    with counting() as tally:
        grad.dim_attention_multi_fwd(q, k, v, w[None], "softmax_rows_over_k")
    compare("dim core", tally, analysis.flops_dim_attention(n, d))

    # a batch entry costs what a head (token) or a group (dim) does
    h, c = 3, 2
    qb, kb, vb = (rng.standard_normal((h, n, d)) for _ in range(3))
    with counting() as tally:
        grad.token_attention_fwd(qb, kb, vb)
    compare("token heads", tally, analysis.flops_token_attention(n, d, h))
    with counting() as tally:
        grad.dim_attention_multi_fwd(qb, kb, vb, rng.standard_normal((c, d, d)),
                                     "softmax_rows_over_k")
    compare("dim groups x filters", tally, analysis.flops_dim_attention(n, d, h, c))

    with counting() as tally:
        masked.masked_output(q, k, v, w)
    compare("masked naive", tally, analysis.flops_masked(n, d, streaming=False))
    with counting() as tally:
        grad.masked_attention_multi_fwd(q, k, v, w[None])
    compare("masked streaming", tally, analysis.flops_masked(n, d, streaming=True))

    # doubling identities (exact integer laws)
    for nn in (8, 32, 128):
        f1 = analysis.flops_dim_attention(nn, 8, 2, 4)
        f2 = analysis.flops_dim_attention(2 * nn, 8, 2, 4)
        f4 = analysis.flops_dim_attention(4 * nn, 8, 2, 4)
        if (f4.total - f2.total) != 2 * (f2.total - f1.total):
            problems.append(f"dim increments at N={nn} not doubling")
        if f2.components["filter_mix"].total != 2 * f1.components["filter_mix"].total:
            problems.append(f"dim filter_mix at N={nn} not doubling")
        t1 = analysis.flops_token_attention(nn, 8, 2)
        t2 = analysis.flops_token_attention(2 * nn, 8, 2)
        t4 = analysis.flops_token_attention(4 * nn, 8, 2)
        if t2.components["scores"].total != 4 * t1.components["scores"].total:
            problems.append(f"token scores at N={nn} not quadrupling")
        quad1 = t2.total - 2 * t1.total
        quad2 = t4.total - 2 * t2.total
        if quad2 != 4 * quad1:
            problems.append(f"token quadratic part at N={nn} not quadrupling")
        m1 = analysis.flops_masked(nn, 8, streaming=False)
        m2 = analysis.flops_masked(2 * nn, 8, streaming=False)
        if m2.components["masked_scores_naive"].mults != \
                4 * m1.components["masked_scores_naive"].mults:
            problems.append(f"masked naive score multiplies at N={nn} not quadrupling")
        s1 = analysis.flops_masked(nn, 8, streaming=True)
        s2 = analysis.flops_masked(2 * nn, 8, streaming=True)
        if s2.mults != 2 * s1.mults:
            problems.append(f"masked streaming multiplies at N={nn} not doubling")
    ok = not problems
    return ok, "counters match analytic reports per component; doubling laws exact" \
        if ok else "; ".join(problems)


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


def suite_windowing(seed=0):
    rng = _rng(seed)
    ok = True
    for _ in range(20):
        total = int(rng.integers(1, 400))
        n = int(rng.integers(1, 50))
        ids = rng.integers(0, 100, total)
        win, pad = data.windows(ids, n)
        flat = win.reshape(-1)[~pad.reshape(-1)]
        ok &= np.array_equal(flat, ids) and bool((win[pad] == data.PAD_ID).all())
    return ok, "window concatenation minus padding reproduces the stream"


def suite_determinism(seed=0):
    bc = model.BlockConfig(vocab_size=11, d_model=8, layers=1, attention="dim",
                           groups=1, convs=2, head_dim=4, ffn_width=16,
                           n_max=6, dropout=0.1)
    tc = model.TrainConfig(seed=seed, batch_size=2, steps=5, lr=1e-3, warmup=2,
                           eval_interval=5)
    rng = make_rng(seed)
    ids = rng.integers(0, 11, (2, 6))
    targets = rng.integers(0, 11, (2, 6))
    mask = np.ones((2, 6), dtype=bool)
    batch = (ids, targets, mask, None)

    def run():
        params = model.init_params(bc, tc.seed)
        state = model.AdamState()
        return [model.train_step(batch, params, state, bc, tc, s) for s in range(5)]

    a, b = run(), run()
    ok = a == b
    return ok, f"two seeded runs, loss trajectories identical: {ok}"


def suite_cost_scaling(seed=0):
    """Kernel counters: dim kernel linear, naive oracle/causal kernel separated."""
    rng = _rng(seed)
    d = 6
    counts = {}
    for n in (8, 16, 32):
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        w = rng.standard_normal((d, d))
        with counting() as tally:
            grad.dim_attention_multi_fwd(q, k, v, w[None])
        counts[n] = (tally.mults, tally.adds)
    inc1 = tuple(b - a for a, b in zip(counts[8], counts[16]))
    inc2 = tuple(b - a for a, b in zip(counts[16], counts[32]))
    linear_ok = tuple(2 * x for x in inc1) == inc2

    mults = {}
    for n in (8, 16):
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        w = rng.standard_normal((d, d))
        with counting() as tally:
            masked.masked_output(q, k, v, w)
        naive_scores = tally.by_component["masked_scores_naive"][0]
        with counting() as tally:
            grad.masked_attention_multi_fwd(q, k, v, w[None])
        mults[n] = (naive_scores, tally.mults)
    sep_ok = (mults[16][0] == 4 * mults[8][0]) and (mults[16][1] == 2 * mults[8][1])
    ok = linear_ok and sep_ok
    return ok, (f"factored increments double exactly: {linear_ok}; naive score "
                f"multiplies x4 / streaming total multiplies x2 on doubling: {sep_ok}")


SUITES = [
    ("numerics_matmul", suite_numerics_matmul),
    ("numerics_softmax", suite_numerics_softmax),
    ("numerics_cum_outer", suite_numerics_cum_outer),
    ("numerics_rng", suite_numerics_rng),
    ("factored_equivalence", suite_factored_equivalence),
    ("covariance_identity", suite_covariance_identity),
    ("tensor_representations", suite_tensor_representations),
    ("score_permutation", suite_dim_score_permutation),
    ("masked_equivalence", suite_masked_equivalence),
    ("masked_structure", suite_masked_structure),
    ("causality", suite_causality),
    ("gradient_ops", suite_gradient_ops),
    ("gradient_end_to_end", suite_gradient_end_to_end),
    ("flops_consistency", suite_flops_consistency),
    ("cost_scaling", suite_cost_scaling),
    ("masking_statistics", suite_masking_statistics),
    ("windowing", suite_windowing),
    ("determinism", suite_determinism),
]


def run_all(seed: int = 0, log=print) -> int:
    """Run every suite; one line each; returns 0 if all pass, 1 otherwise."""
    failures = 0
    for name, fn in SUITES:
        try:
            ok, detail = fn(seed)
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(e).__name__}: {e}"
        log(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += not ok
    return 0 if failures == 0 else 1
