"""Rotary position embeddings (RoPE).

Dimensions are rotated in interleaved pairs ``(2i, 2i+1)``: a rotation by
angle ``theta_i * position``.  Because rotation acts on each pair as an
orthogonal 2x2 matrix, uniformly scaling *both* members of a pair commutes
with RoPE — the property :mod:`repro.models.outliers` relies on for
function-preserving outlier injection into Q/K projections.

The application is implemented as an autograd primitive; the backward pass
is rotation by the opposite angle.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor


class RotaryEmbedding:
    """Precomputed cos/sin tables for a head dimension.

    The full trig tables are built once up to ``max_seq_len`` at
    construction; per-call lookups are zero-copy views.
    """

    def __init__(self, head_dim: int, max_seq_len: int, theta: float = 10000.0):
        if head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even, got {head_dim}")
        self.head_dim = head_dim
        self.max_seq_len = max_seq_len
        inv_freq = theta ** (-np.arange(0, head_dim, 2, dtype=np.float64) / head_dim)
        positions = np.arange(max_seq_len, dtype=np.float64)
        angles = np.outer(positions, inv_freq)  # (T, head_dim/2)
        self.cos = np.cos(angles).astype(np.float32)
        self.sin = np.sin(angles).astype(np.float32)

    def tables(self, position_offset: int, seq_len: int
               ) -> tuple[np.ndarray, np.ndarray]:
        """``(cos, sin)`` views for ``[offset, offset + seq)``."""
        stop = position_offset + seq_len
        if stop > self.max_seq_len:
            raise ValueError(
                f"sequence [{position_offset}, {stop}) "
                f"exceeds max_seq_len={self.max_seq_len}")
        return self.cos[position_offset:stop], self.sin[position_offset:stop]

    def tables_at(self, positions: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
        """``(cos, sin)`` gathered at an integer ``(batch, T)`` array of
        absolute positions, shaped ``(batch, 1, T, head_dim/2)`` to
        broadcast over heads — each batch row rotates by its own
        positions (the serving forward's ragged batch; gathered once per
        forward and applied with :func:`rotate`)."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.min() < 0 or positions.max() >= self.max_seq_len:
            raise ValueError(
                f"positions outside [0, {self.max_seq_len}): "
                f"[{positions.min()}, {positions.max()}]")
        return self.cos[positions][:, None], self.sin[positions][:, None]

    def __call__(self, x: Tensor, position_offset: int = 0) -> Tensor:
        """Rotate ``x`` of shape ``(..., T, head_dim)`` by position."""
        cos, sin = self.tables(position_offset, x.shape[-2])
        return _apply_rotation(x, cos, sin)


def rotate(data: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate interleaved pairs of a raw array (no autograd)."""
    even = data[..., 0::2]
    odd = data[..., 1::2]
    out = np.empty_like(data)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def _apply_rotation(x: Tensor, cos: np.ndarray, sin: np.ndarray) -> Tensor:
    out = x._make(rotate(x.data, cos, sin), (x,))
    if out.requires_grad:
        def _backward(g, a=x, cos=cos, sin=sin):
            # Transpose of a rotation is rotation by the negative angle.
            a._accumulate(rotate(g, cos, -sin))
        out._backward = _backward
    return out
