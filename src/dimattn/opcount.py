"""Multiply/add tally for the attention kernels.

The hooks sit in the `grad` forward kernels that training runs and in the
literal oracles of `attention` and `masked`.

The counters follow one fixed convention so analytic cost formulas can be
checked against what the kernels actually do:

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
        if not self.active:
            return
        self.mults += mults
        self.adds += adds
        m, a = self.by_component.get(component, (0, 0))
        self.by_component[component] = (m + mults, a + adds)

    def matmul(self, component: str, m: int, k: int, n: int, batch: int = 1):
        """Tally `batch` (m x k) @ (k x n) products: m*n dots of length k each."""
        if not self.active:
            return
        self.add(component, batch * m * n * k, batch * m * n * (k - 1))

    def elemwise_mul(self, component: str, n: int):
        if not self.active:
            return
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
