"""Seeded random generators.

Tensors are plain numpy arrays: C-contiguous (row-major, last index fastest),
real valued, order 1 to 3, dtype float64 by default.  float32 is accepted for
training and benchmarking; every verification suite runs in float64.

The random generator is Philox (counter-based, 4x64), which numpy guarantees
to produce the same stream for the same seed on every platform.
"""

from __future__ import annotations

import numpy as np


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
