"""Machine-speed reference: a fixed kernel timed between the rounds.

The benchmark runs on a few cores of a shared host whose speed drifts by
a fifth from one minute to the next (a neighbour on the same socket, a
lower clock): two ten-run sets of the *same* code had medians 20% apart,
which no estimator inside one run can take out.  So every run also times
a kernel that never changes: a few hundred small numpy calls shaped like
one decode step of the 7b stand-in (16 rows, ``d_model`` 128, ``d_ff``
512) plus an interpreter loop.  It touches no ``repro`` code, so a
change to the program under test cannot move it.

``speed = kernel seconds / REFERENCE_S`` is how much slower than the
quiet reference box the machine was around one round.  Every *time* the
benchmark reports is divided by its round's speed, every *rate*
multiplied by it: timings are stated at reference speed.  The raw median
speed of the run is in the result's provenance, so ``value * speed``
gives back what the wall clock showed.
"""

from __future__ import annotations

import time

import numpy as np

#: Median kernel seconds on the reference box (2 vCPUs, Xeon 2.1 GHz,
#: one BLAS thread) with nothing else running.
REFERENCE_S = 0.0377

_ROWS, _D_MODEL, _D_FF, _LAYERS, _STEPS = 16, 128, 512, 5, 64


def _weights() -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((_ROWS, _D_MODEL)).astype(np.float32)
    layers = [((rng.standard_normal((_D_MODEL, _D_FF)) / 11.0
                ).astype(np.float32),
               (rng.standard_normal((_D_FF, _D_MODEL)) / 22.0
                ).astype(np.float32)) for _ in range(_LAYERS)]
    return x, layers


_X, _LAYER_WEIGHTS = _weights()


def kernel_seconds() -> float:
    """Run the kernel once; its wall seconds."""
    start = time.perf_counter()
    checksum = 0
    for _ in range(_STEPS):
        x = _X
        for up, down in _LAYER_WEIGHTS:
            norm = x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-5)
            hidden = norm @ up
            hidden = hidden / (1.0 + np.exp(-hidden))
            x = x + hidden @ down
            scores = norm.reshape(_ROWS, 4, -1).transpose(1, 0, 2)
            x = x + (scores @ scores.transpose(0, 2, 1)
                     ).transpose(1, 0, 2).reshape(_ROWS, -1).mean() * 1e-3
        # the interpreter's share of a step: bookkeeping over rows
        table = {row: [row, row + 1] for row in range(64)}
        for row, blocks in table.items():
            checksum += blocks[0] * blocks[1] + len(blocks)
    if checksum < 0 or not np.isfinite(x).all():
        raise AssertionError("calibration kernel diverged")
    return time.perf_counter() - start


class Speedometer:
    """Times the kernel between rounds and stamps each round with the
    machine's slowness around it (1.0 = the quiet reference box)."""

    def __init__(self) -> None:
        self.samples = [kernel_seconds()]

    def refresh(self) -> float:
        """Sample again; the machine's slowness between the previous
        sample and this one."""
        self.samples.append(kernel_seconds())
        return 0.5 * sum(self.samples[-2:]) / REFERENCE_S

    def around(self, run):
        """``run()`` bracketed by the last sample and a new one; the
        result is stamped with the slowness between them as ``speed``."""
        result = run()
        result.speed = self.refresh()
        return result

    def median_speed(self) -> float:
        """Median slowness over the run."""
        return float(np.median(self.samples)) / REFERENCE_S
