"""Dimension-wise attention with linear sequence cost.

Token-wise scaled dot-product attention relates token pairs and costs
O(N^2 d); scoring pairs of embedding dimensions instead (S = Q^T K) costs
O(N d^2) and, combined with a learned per-dimension filter over the
resulting third-order tensor, yields a drop-in attention sublayer.  The
package ships one fast kernel per attention op with its analytic gradient
(`grad`), the literal oracles they are checked against (`attention`,
`masked`), FLOPs accounting and scaling benchmarks of those same kernels,
and a small masked/causal LM harness.
"""

from .attention import (
    NORM_MODES,
    conv_extract,
    covariance_identity_check,
    dim_attention_materialized,
    dim_score,
    explicit_rep,
    implicit_rep,
    kr_tensor,
    normalize_scores,
)
from .analysis import (
    FlopsReport,
    SweepResult,
    bench_sweep,
    flops_dim_attention,
    flops_masked,
    flops_token_attention,
)
from .grad import (
    dim_attention_multi_fwd,
    masked_attention_multi_fwd,
    softmax_fwd,
    token_attention_fwd,
)
from .masked import (
    causal_mask,
    masked_kr_tensor,
    masked_output,
    masked_score_naive,
    masked_score_streaming,
)
from .model import (
    AdamState,
    BlockConfig,
    TrainConfig,
    decoder_forward,
    encoder_forward,
    init_params,
    mlm_loss,
    train_step,
)
from .tensor import make_rng, matmul, rand_init

__version__ = "0.1.0"

__all__ = [
    "AdamState", "BlockConfig", "FlopsReport", "NORM_MODES", "SweepResult",
    "TrainConfig", "bench_sweep", "causal_mask", "conv_extract",
    "covariance_identity_check", "decoder_forward", "dim_attention_materialized",
    "dim_attention_multi_fwd", "dim_score", "encoder_forward", "explicit_rep",
    "flops_dim_attention", "flops_masked", "flops_token_attention",
    "implicit_rep", "init_params", "kr_tensor", "make_rng", "masked_attention_multi_fwd",
    "masked_kr_tensor", "masked_output", "masked_score_naive",
    "masked_score_streaming", "matmul", "mlm_loss", "normalize_scores",
    "rand_init", "softmax_fwd", "token_attention_fwd", "train_step",
]
