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

__version__ = "0.1.0"
