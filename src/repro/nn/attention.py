"""Causal multi-head self-attention with RoPE and optional KV cache."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, functional as F
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.rope import RotaryEmbedding
from repro.nn.kv_cache import KVCache

#: Memoised additive causal masks keyed by ``(seq, total)``.  Prefill and
#: perplexity evaluation hit the same handful of shapes over and over; the
#: single-token decode path never builds a mask at all.  The cache is LRU
#: bounded: perplexity evaluation walks many distinct ``(seq, total)``
#: shapes and must not grow the process footprint without limit.
_MASK_CACHE: dict[tuple[int, int], np.ndarray] = {}
_MASK_CACHE_LIMIT = 64


def causal_mask(seq: int, total: int) -> np.ndarray:
    """Additive ``(seq, total)`` causal mask (0 allowed, -inf future)."""
    key = (seq, total)
    mask = _MASK_CACHE.get(key)
    if mask is None:
        if len(_MASK_CACHE) >= _MASK_CACHE_LIMIT:
            _MASK_CACHE.pop(next(iter(_MASK_CACHE)))  # evict least recent
        mask = np.triu(np.full((seq, total), -np.inf, dtype=np.float32),
                       k=1 + total - seq)
    else:
        del _MASK_CACHE[key]  # re-insert below: keeps hot shapes resident
    _MASK_CACHE[key] = mask
    return mask


class MultiHeadAttention(Module):
    """QKV generation, scaled-dot-product attention, output linear.

    Mirrors the paper's Fig. 2(a) self-attention block.  All four weight
    matrices (``wq, wk, wv, wo``) are quantization targets.
    """

    def __init__(self, d_model: int, num_heads: int, rope: RotaryEmbedding,
                 rng: np.random.Generator | None = None):
        if d_model % num_heads != 0:
            raise ValueError(f"d_model={d_model} not divisible by heads={num_heads}")
        rng = rng or np.random.default_rng(0)
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.rope = rope
        self.wq = Linear(d_model, d_model, rng=rng)
        self.wk = Linear(d_model, d_model, rng=rng)
        self.wv = Linear(d_model, d_model, rng=rng)
        self.wo = Linear(d_model, d_model, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, cache: KVCache | None = None,
                layer_index: int = 0) -> Tensor:
        """Causal attention over ``x`` plus any cached context.

        The autograd path.  With a cache it is ``generate``'s sequential
        reference: :meth:`KVCache.append` stores the new K/V for all
        rows and returns the full context.  Paged caches — the serving
        engine and ``cached_perplexity`` — do not come through here; see
        :meth:`repro.nn.model.TransformerLM._serve_forward`.
        """
        batch, seq, _ = x.shape
        offset = 0 if cache is None else cache.layer_len(layer_index)

        q = self._split_heads(self.wq(x), batch, seq)
        k = self._split_heads(self.wk(x), batch, seq)
        v = self._split_heads(self.wv(x), batch, seq)
        q = self.rope(q, position_offset=offset)
        k = self.rope(k, position_offset=offset)

        if cache is not None:
            k_data, v_data = cache.append(layer_index, k.data, v.data)
            k, v = Tensor(k_data), Tensor(v_data)

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if seq > 1:
            # Single-token decode skips mask construction entirely (the new
            # token may attend to everything); prefill reuses cached masks.
            scores = scores + Tensor(causal_mask(seq, k.shape[2]))
        probs = F.softmax(scores, axis=-1)
        context = probs @ v  # (B, H, T, head_dim)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)
        return self.wo(merged)
