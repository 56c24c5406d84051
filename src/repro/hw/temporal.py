"""Temporal (unary) coding of weight magnitudes (paper Sec. IV-C).

Temporal coding is a lossless encoding where the number of ones in a
bitstream equals the encoded value: 2 -> ``11``, 1 -> ``01`` (Fig. 7).
The hardware encoder holds the value, compares it against a running
counter and emits one bit per cycle; a termination signal from the
control unit stops generation once every encoder in the group has
drained — that early termination is why all-2-bit weight groups cost a
single cycle instead of three.
"""

from __future__ import annotations

import numpy as np

#: Largest magnitude of a 3-bit sign-magnitude weight.
MAX_MAGNITUDE = 3


def encode_magnitudes(magnitudes: np.ndarray,
                      num_cycles: int | None = None) -> np.ndarray:
    """Unary-encode ``magnitudes`` into a ``(cycles, n)`` bit matrix.

    Cycle ``t`` carries ``1`` for every element whose magnitude exceeds
    ``t`` — exactly the comparator-vs-counter behaviour of the hardware
    encoder.  ``num_cycles`` defaults to the early-termination length
    ``max(magnitudes)``.
    """
    mags = np.asarray(magnitudes, dtype=np.int64)
    if mags.size and (mags.min() < 0 or mags.max() > MAX_MAGNITUDE):
        raise ValueError(f"magnitudes must be in [0, {MAX_MAGNITUDE}]")
    if num_cycles is None:
        num_cycles = int(mags.max()) if mags.size else 0
    counters = np.arange(num_cycles)[:, None]
    return (mags[None, :] > counters).astype(np.uint8)


def decode_bitstream(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_magnitudes` (popcount per column);
    oracle: the round trip the tests check."""
    return np.asarray(bits, dtype=np.int64).sum(axis=0)


class TemporalEncoder:
    """Cycle-accurate model of one hardware temporal encoder (oracle:
    the tests hold :func:`encode_magnitudes` to it, cycle by cycle).

    Mirrors Fig. 5(c): a register holding the magnitude, a counter, and a
    comparator producing the output bit; ``stop`` models the control
    unit's termination signal.
    """

    def __init__(self, value: int):
        if not 0 <= value <= MAX_MAGNITUDE:
            raise ValueError(f"value {value} outside [0, {MAX_MAGNITUDE}]")
        self.value = int(value)
        self.counter = 0
        self.stopped = False

    def step(self) -> int:
        """Advance one cycle; return the emitted bit."""
        if self.stopped:
            return 0
        bit = 1 if self.value > self.counter else 0
        self.counter += 1
        return bit

    @property
    def exhausted(self) -> bool:
        """True once all ones have been emitted."""
        return self.counter >= self.value

    def stop(self) -> None:
        self.stopped = True
