import numpy as np
import pytest

from dimattn import analysis, grad, masked, model
from dimattn.config import RunConfig
from dimattn.opcount import counting


def components(rep, scale):
    """A report's per-component (mults, adds), each times scale.get(name, 1)."""
    return {k: (m * scale.get(k, 1), a * scale.get(k, 1))
            for k, (m, a) in rep.by_component.items()}


class TestAnalyticCounts:
    def test_token_minimal_case(self):
        rep = analysis.flops_token_attention(1, 1, 1)
        assert rep.total == 2  # one score multiply, one value multiply
        assert rep.by_component == {"scores": (1, 0), "attn_v": (1, 0)}

    def test_dim_minimal_case(self):
        rep = analysis.flops_dim_attention(1, 1, 1, 1)
        assert rep.total == 3  # score, gate, mix: one multiply each

    def test_token_core_frozen_value(self):
        # frozen from the instrumented counter at N=100, d=64
        rep = analysis.flops_token_attention(100, 64, 1)
        with counting() as tally:
            r = np.random.default_rng(0)
            grad.token_attention_fwd(r.standard_normal((1, 100, 64)),
                                     r.standard_normal((1, 100, 64)),
                                     r.standard_normal((1, 100, 64)))
        assert (tally.mults, tally.adds) == (rep.mults, rep.adds)
        assert rep.total == 2_543_600

    def test_token_quadratic_scaling(self):
        a = analysis.flops_token_attention(50, 16)
        b = analysis.flops_token_attention(100, 16)
        assert sum(b.by_component["scores"]) == 4 * sum(a.by_component["scores"])
        assert b.by_component["attn_v"][0] == 4 * a.by_component["attn_v"][0]

    def test_dim_linear_scaling(self):
        a = analysis.flops_dim_attention(50, 16, 1, 4)
        b = analysis.flops_dim_attention(100, 16, 1, 4)
        c = analysis.flops_dim_attention(200, 16, 1, 4)
        assert c.total - b.total == 2 * (b.total - a.total)
        assert sum(b.by_component["filter_mix"]) == 2 * sum(a.by_component["filter_mix"])
        # N-independent part: the elementwise filter gates
        assert a.by_component["filter_gate"] == b.by_component["filter_gate"]

    def test_counters_match_per_component(self, rng):
        # heads ride in the kernel's batch axis, one score matrix each
        n, d, h = 12, 4, 2
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        with counting() as tally:
            grad.token_attention_fwd(q, k, v, causal=True)
        rep = analysis.flops_token_attention(n, d, h)
        assert tally.by_component == rep.by_component

    def test_causal_tiles_count_the_keys_they_read(self, rng):
        # 2 heads over N = 512 take four row tiles of 128; the causal ones
        # read 128, 256, 384 and 512 keys
        n, d, h = 512, 8, 2
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        rep = analysis.flops_token_attention(n, d, h)
        with counting() as tally:
            grad.token_attention_fwd(q, k, v)
        assert tally.by_component == rep.by_component
        with counting() as tally:
            grad.token_attention_fwd(q, k, v, causal=True)
        assert rep.total // 2 < tally.total < rep.total
        assert tally.by_component["scores"][0] == h * 128 * d * (128 + 256 + 384 + 512)

    def test_masked_counters_match(self, rng):
        n, d = 9, 3
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        w = rng.standard_normal((d, d))
        with counting() as tally:  # the oracles carry no hooks
            masked.masked_output(q, k, v, w)
            masked.masked_output_vectorized_naive(q, k, v, w)
        assert tally.by_component == {}
        with counting() as tally:
            grad.masked_attention_multi_fwd(q[None], k[None], v[None], w[None])
        assert tally.by_component == analysis.flops_masked(n, d, True).by_component

    def test_masked_counters_across_chunks(self, rng):
        b, n, d, c = 2, 2 * grad._CHUNK + 3, 3, 2
        q, k, v = (rng.standard_normal((b, n, d)) for _ in range(3))
        with counting() as tally:
            grad.masked_attention_multi_fwd(q, k, v, rng.standard_normal((c, d, d)))
        assert tally.by_component == components(
            analysis.flops_masked(n, d, True), {"cum_outer": b, "masked_mix": b * c})

    def test_projection_ratio_at_matched_widths(self):
        # d_model 512: token 8 heads of width 64 vs dim 8 groups, 1 conv
        token = analysis.flops_token_attention(100, 64, 8, include_projections=True)
        dim = analysis.flops_dim_attention(100, 64, 8, 1, include_projections=True)
        assert dim.total < token.total
        assert token.total == 229_859_200
        assert dim.total == 222_566_400

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            analysis.flops_token_attention(0, 4)
        with pytest.raises(ValueError):
            analysis.flops_dim_attention(4, 0)
        for streaming in (False, True):
            with pytest.raises(ValueError):
                analysis.flops_masked(0, 8, streaming)
            with pytest.raises(ValueError):
                analysis.flops_masked(8, 0, streaming)


class TestTrainingTally:
    """The tally counts the kernels model.forward runs, batch and filters
    included; projections, FFN and the head are not attention-core work."""

    def forward_counts(self, bc, rng, decoder):
        params = model.init_params(bc, 0)
        ids = rng.integers(0, bc.vocab_size, (3, bc.seq_len))
        with counting() as tally:
            model.forward(params, ids, bc, decoder=decoder)
        return tally.by_component

    def test_dim_encoder(self, rng):
        bc = RunConfig(vocab_size=11, d_model=12, layers=1, groups=1,
                       convs=3, head_dim=4, ffn_width=8, seq_len=7)
        per_seq = analysis.flops_dim_attention(7, 4, 1, 3)
        assert self.forward_counts(bc, rng, decoder=False) == components(
            per_seq, {"scores": 3, "filter_gate": 3, "filter_mix": 3})

    def test_dim_decoder(self, rng):
        bc = RunConfig(vocab_size=11, d_model=12, layers=1, groups=1,
                       convs=3, head_dim=4, ffn_width=8, seq_len=7)
        per_seq = analysis.flops_masked(7, 4, streaming=True)
        assert self.forward_counts(bc, rng, decoder=True) == components(
            per_seq, {"cum_outer": 3, "masked_mix": 3 * 3})


class TestBenchSweep:
    def test_rejects_few_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            analysis.bench_sweep(["dim_encoder"], [64], [8], repeats=3)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            analysis.bench_sweep(["hyper_encoder"], [64], [8], repeats=5)

    def test_csv_shape_and_order(self):
        res = analysis.bench_sweep(["dim_encoder", "masked_streaming"],
                                   [64, 128], [8], repeats=5)
        lines = res.to_csv().strip().split("\n")
        assert lines[0] == "variant,N,d,groups,convs,median_seconds,flops"
        got = [line.split(",")[:3] for line in lines[1:]]
        assert got == [["dim_encoder", "64", "8"], ["dim_encoder", "128", "8"],
                       ["masked_streaming", "64", "8"],
                       ["masked_streaming", "128", "8"]]
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[5]) > 0.0
            assert int(fields[6]) > 0

    @pytest.mark.parametrize("variant, kernel", [
        ("token_encoder", "token_attention_fwd"), ("dim_encoder", "dim_attention_multi_fwd"),
        ("masked_streaming", "masked_attention_multi_fwd"), ("masked_naive", None)])
    def test_times_the_training_kernel(self, variant, kernel, monkeypatch):
        # one call of the kernel training runs, over all N = 100 rows; the
        # naive causal contender is the literal oracle and calls none of them
        calls = []
        for name in ("token_attention_fwd", "dim_attention_multi_fwd",
                     "masked_attention_multi_fwd"):
            def counted(*args, _name=name, _fn=getattr(grad, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(grad, name, counted)
        fn, _ = analysis._bench_one(variant, 100, 4, np.random.default_rng(0))
        fn()
        assert calls == ([kernel] if kernel else [])

    def test_monotone_time_in_n(self):
        # large enough sizes that kernel time dominates call overhead
        res = analysis.bench_sweep(["token_encoder"], [256, 512, 1024], [32],
                                   repeats=5)
        times = res.times("token_encoder")
        assert times[256] <= times[512] <= times[1024]

    def test_doubling_ratios_helper(self):
        res = analysis.SweepResult(rows=[
            {"variant": "x", "N": 64, "d": 8, "groups": 1, "convs": 1,
             "median_seconds": 1.0, "flops": 1},
            {"variant": "x", "N": 128, "d": 8, "groups": 1, "convs": 1,
             "median_seconds": 2.5, "flops": 2},
            {"variant": "x", "N": 256, "d": 8, "groups": 1, "convs": 1,
             "median_seconds": 5.0, "flops": 4},
        ])
        assert analysis.doubling_ratios(res, "x") == [2.5, 2.0]
