"""Dense tensor helpers: the tallied matmul and seeded parameter init.

Tensors are plain numpy arrays: C-contiguous (row-major, last index fastest),
real valued, order 1 to 3, dtype float64 by default.  float32 is accepted for
training and benchmarking; every verification suite runs in float64.

The random generator is Philox (counter-based, 4x64), which numpy guarantees
to produce the same stream for the same seed on every platform.
"""

from __future__ import annotations

import numpy as np

from .opcount import TALLY


def make_rng(seed: int) -> np.random.Generator:
    """Seeded Philox generator; identical seed gives an identical stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derived_rng(seed: int, *stream) -> np.random.Generator:
    """Independent Philox stream keyed by (seed, *stream) integers.

    Used for per-parameter init and per-step batch/mask randomness so that
    streams do not depend on the order in which other streams were consumed.
    """
    entropy = (int(seed),) + tuple(int(s) & 0xFFFFFFFF for s in stream)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def matmul(a: np.ndarray, b: np.ndarray, component: str = "matmul") -> np.ndarray:
    """Matrix product with a descriptive shape error and cost tally."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects matrices, got orders {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"matmul inner extents differ: ({a.shape[0]}x{a.shape[1]}) @ "
            f"({b.shape[0]}x{b.shape[1]})"
        )
    if a.dtype != b.dtype:
        raise ValueError(f"matmul precision mismatch: {a.dtype} vs {b.dtype}")
    if TALLY.active:
        TALLY.matmul(component, a.shape[0], a.shape[1], b.shape[1])
    return a @ b


def rand_init(shape, scheme: str, rng: np.random.Generator, sigma: float = 0.02) -> np.ndarray:
    """Seeded parameter init: 'xavier_uniform' or 'normal' (with sigma).

    Xavier bound is sqrt(6 / (fan_in + fan_out)) over the first/last extents.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) < 1 or any(s < 1 for s in shape):
        raise ValueError(f"invalid shape {shape}")
    if scheme == "xavier_uniform":
        fan_in = shape[0]
        fan_out = shape[-1] if len(shape) > 1 else shape[0]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)
    if scheme == "normal":
        if sigma == 0.0:
            return np.zeros(shape)
        return rng.normal(0.0, sigma, size=shape)
    raise ValueError(f"unknown init scheme {scheme!r}")

