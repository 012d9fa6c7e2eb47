"""Multiply/add tally for the attention kernels.

The hooks sit in the three `grad` attention forward kernels that training
runs and nowhere else; each tests `TALLY.active` before it counts.  The
analytic reports of `analysis` are `OpTally`s filled with the same calls,
so a report and a kernel's tally compare directly.

The counters follow one fixed convention:

  * a length-L dot product costs L multiplies and L-1 adds,
  * an elementwise product over n entries costs n multiplies,
  * softmax exponentials/divisions and scalar scaling are NOT counted.

Counting is off by default and adds a single branch per kernel call when
disabled.  Benchmarks and counters are single-threaded by design, so a
module-level tally is sufficient.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class OpTally:
    """Running multiply/add totals, optionally split by component name."""

    active: bool = False
    mults: int = 0
    adds: int = 0
    by_component: dict = field(default_factory=dict)

    def reset(self):
        self.mults = 0
        self.adds = 0
        self.by_component = {}

    @property
    def total(self) -> int:
        return self.mults + self.adds

    def add(self, component: str, mults: int, adds: int):
        self.mults += mults
        self.adds += adds
        m, a = self.by_component.get(component, (0, 0))
        self.by_component[component] = (m + mults, a + adds)

    def matmul(self, component: str, m: int, k: int, n: int, batch: int = 1):
        """Tally `batch` (m x k) @ (k x n) products: m*n dots of length k each."""
        self.add(component, batch * m * n * k, batch * m * n * (k - 1))

    def elemwise_mul(self, component: str, n: int):
        self.add(component, n, 0)


TALLY = OpTally()


@contextmanager
def counting():
    """Enable the tally inside a block, starting from zero."""
    TALLY.reset()
    prev = TALLY.active
    TALLY.active = True
    try:
        yield TALLY
    finally:
        TALLY.active = prev
