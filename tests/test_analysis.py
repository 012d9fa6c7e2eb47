import numpy as np
import pytest

from dimattn import analysis, grad, masked, model
from dimattn.opcount import counting


def components(rep, scale=None):
    """A report's per-component (mults, adds), each times scale.get(name, 1)."""
    scale = scale or {}
    return {k: (v.mults * scale.get(k, 1), v.adds * scale.get(k, 1))
            for k, v in rep.components.items()}


class TestAnalyticCounts:
    def test_token_minimal_case(self):
        rep = analysis.flops_token_attention(1, 1, 1)
        assert rep.total == 2  # one score multiply, one value multiply
        assert rep.components["scores"].mults == 1
        assert rep.components["attn_v"].mults == 1

    def test_dim_minimal_case(self):
        rep = analysis.flops_dim_attention(1, 1, 1, 1)
        assert rep.total == 3  # score, gate, mix: one multiply each

    def test_token_core_frozen_value(self):
        # frozen from the instrumented counter at N=100, d=64
        rep = analysis.flops_token_attention(100, 64, 1)
        with counting() as tally:
            r = np.random.default_rng(0)
            grad.token_attention_fwd(r.standard_normal((100, 64)),
                                     r.standard_normal((100, 64)),
                                     r.standard_normal((100, 64)))
        assert (tally.mults, tally.adds) == (rep.mults, rep.adds)
        assert rep.total == 2_543_600

    def test_token_quadratic_scaling(self):
        a = analysis.flops_token_attention(50, 16)
        b = analysis.flops_token_attention(100, 16)
        assert b.components["scores"].total == 4 * a.components["scores"].total
        assert b.components["attn_v"].mults == 4 * a.components["attn_v"].mults

    def test_dim_linear_scaling(self):
        a = analysis.flops_dim_attention(50, 16, 1, 4)
        b = analysis.flops_dim_attention(100, 16, 1, 4)
        c = analysis.flops_dim_attention(200, 16, 1, 4)
        assert c.total - b.total == 2 * (b.total - a.total)
        assert b.components["filter_mix"].total == 2 * a.components["filter_mix"].total
        # N-independent part: the elementwise filter gates
        assert (a.components["filter_gate"] == b.components["filter_gate"])

    def test_counters_match_per_component(self, rng):
        # heads ride in the kernel's batch axis, one score matrix each
        n, d, h = 12, 4, 2
        q, k, v = (rng.standard_normal((h, n, d)) for _ in range(3))
        with counting() as tally:
            grad.token_attention_fwd(q, k, v, causal=True)
        rep = analysis.flops_token_attention(n, d, h)
        assert tally.by_component == components(rep)

    def test_masked_counters_match(self, rng):
        n, d = 9, 3
        q, k, v = (rng.standard_normal((n, d)) for _ in range(3))
        w = rng.standard_normal((d, d))
        with counting() as tally:
            masked.masked_output(q, k, v, w)
        assert tally.by_component == components(analysis.flops_masked(n, d, False))
        with counting() as tally:
            grad.masked_attention_multi_fwd(q, k, v, w[None])
        assert tally.by_component == components(analysis.flops_masked(n, d, True))

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


class TestTrainingTally:
    """The tally counts the kernels model.forward runs, batch and filters
    included; projections, FFN and the head are not attention-core work."""

    def forward_counts(self, bc, rng, decoder):
        params = model.init_params(bc, 0)
        ids = rng.integers(0, bc.vocab_size, (3, bc.n_max))
        with counting() as tally:
            model.forward(params, ids, bc, decoder=decoder)
        return tally.by_component

    def test_dim_encoder(self, rng):
        bc = model.BlockConfig(vocab_size=11, d_model=12, layers=1, groups=1,
                               convs=3, head_dim=4, ffn_width=8, n_max=7)
        per_seq = analysis.flops_dim_attention(7, 4, 1, 3)
        assert self.forward_counts(bc, rng, decoder=False) == components(
            per_seq, {"scores": 3, "filter_gate": 3, "filter_mix": 3})

    def test_dim_decoder(self, rng):
        bc = model.BlockConfig(vocab_size=11, d_model=12, layers=1, groups=1,
                               convs=3, head_dim=4, ffn_width=8, n_max=7)
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
