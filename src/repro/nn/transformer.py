"""Transformer block: pre-norm attention + ReLU feed-forward (paper Fig. 2a)."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn.layers import Linear, RMSNorm
from repro.nn.module import Module
from repro.nn.attention import MultiHeadAttention
from repro.nn.rope import RotaryEmbedding
from repro.nn.kv_cache import KVCache


class FeedForward(Module):
    """Linear -> ReLU -> Linear.

    The paper's block diagram (Fig. 2a) uses a ReLU FFN; ReLU's positive
    homogeneity (``relu(a*x) = a*relu(x)`` for ``a > 0``) is also what makes
    the channel-rescaling outlier injection in :mod:`repro.models.outliers`
    exactly function-preserving.
    """

    def __init__(self, d_model: int, d_ff: int, rng: np.random.Generator | None = None):
        rng = rng or np.random.default_rng(0)
        self.up = Linear(d_model, d_ff, rng=rng)
        self.down = Linear(d_ff, d_model, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.down(self.up(x).relu())


class TransformerBlock(Module):
    """Pre-norm residual block: x + Attn(Norm(x)); x + FFN(Norm(x))."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int,
                 rope: RotaryEmbedding, rng: np.random.Generator | None = None):
        self.attn_norm = RMSNorm(d_model)
        self.attn = MultiHeadAttention(d_model, num_heads, rope, rng=rng)
        self.ffn_norm = RMSNorm(d_model)
        self.ffn = FeedForward(d_model, d_ff, rng=rng)

    def forward(self, x: Tensor, cache: KVCache | None = None,
                layer_index: int = 0) -> Tensor:
        x = x + self.attn(self.attn_norm(x), cache=cache,
                          layer_index=layer_index)
        x = x + self.ffn(self.ffn_norm(x))
        return x
