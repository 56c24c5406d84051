"""Processing element and accumulator unit (paper Fig. 5b/c).

The temporal-coding PE is radically simpler than a MAC: it stores one
activation value and, each cycle, outputs either that value or zero
depending on the incoming 1-bit weight stream (a mux, no multiplier).
The accumulator unit (ACC) applies the weight's sign and sums a whole PE
row through an adder tree — this is where the paper's power concentrates
(71.8 % of the PE-array power in Fig. 8).

Both classes are **oracles**: cycle-exact simulators the tests hold the
vectorised :mod:`repro.hw.array` model to; no workload steps them.
"""

from __future__ import annotations

import numpy as np


class ProcessingElement:
    """One select-and-forward PE (cycle-accurate toy model)."""

    def __init__(self, activation: float = 0.0):
        self.activation = float(activation)

    def load(self, activation: float) -> None:
        self.activation = float(activation)

    def step(self, weight_bit: int) -> float:
        """Output the stored activation when the weight bit is set."""
        return self.activation if weight_bit else 0.0


class AccumulatorUnit:
    """Sign-aware adder tree + running accumulator for one output row."""

    def __init__(self):
        self.value = 0.0

    def step(self, pe_outputs: np.ndarray, sign: int) -> float:
        """Accumulate one cycle of gated PE outputs with the weight sign.

        ``sign`` is +1/-1 for the weight group feeding this cycle (the
        hardware folds per-weight signs in the tree; see
        :func:`repro.hw.array.temporal_matmul` for the vectorised exact
        model with per-weight signs).
        """
        self.value += sign * float(np.sum(pe_outputs))
        return self.value

    def reset(self) -> None:
        self.value = 0.0
