"""Causal multi-head self-attention with RoPE and optional KV cache."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, functional as F
from repro.nn.block_attention import (block_decode_attention,
                                      block_prefill_attention)
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.rope import RotaryEmbedding
from typing import TYPE_CHECKING

from repro.nn.kv_cache import KVCache

if TYPE_CHECKING:  # runtime import would cycle through repro.core
    from repro.nn.paged_kv_cache import PagedKVCache

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

    def forward(self, x: Tensor, cache: KVCache | PagedKVCache | None = None,
                layer_index: int = 0, positions: np.ndarray | None = None,
                kv_mask: np.ndarray | None = None,
                cache_rows: np.ndarray | None = None,
                cache_lens: np.ndarray | None = None,
                cache_starts: np.ndarray | None = None,
                decode_rows: np.ndarray | None = None) -> Tensor:
        """Attend over ``x`` plus any cached context.

        A cache is used one of two ways.  Without ``positions`` it is
        the sequential reference path (``generate``, cached perplexity):
        ``cache.append`` stores the new K/V for all rows and returns the
        full context, attended with the uniform causal mask.

        With ``positions`` (``(batch, seq)`` absolute positions) it is
        the serving engine's ragged batch over a paged (possibly
        quantized) cache — *write the span, then attend the block
        table*: each row rotates by its own positions, the new K/V are
        written without reading anything back, and
        :mod:`repro.nn.block_attention` iterates the rows' block tables
        chunk by chunk, so no dense ``(batch, heads, total, head_dim)``
        context copy is materialised.  ``kv_mask`` is the additive
        per-row mask over cache slots.  A single-token decode
        (``cache_rows`` unset) writes one token per row at
        ``positions[:, 0]`` into cache rows ``decode_rows`` (``None`` =
        all rows; ``x`` holds only the engine's *active* slots, so idle
        slots are neither forwarded nor read) under a ``(batch, 1, 1,
        total)`` length mask.  A span prefill writes row ``j``'s
        ``cache_lens[j]`` true (unpadded) tokens into cache row
        ``cache_rows[j]`` after the ``cache_starts[j]`` context tokens
        it already holds (adopted shared prefix, earlier chunks); rows
        then start at different depths, so causality comes from the
        caller's full ``(batch, 1, seq, total)`` ``kv_mask``.
        """
        batch, seq, _ = x.shape
        serving = cache is not None and positions is not None
        offset = 0 if cache is None or serving \
            else cache.layer_len(layer_index)

        q = self._split_heads(self.wq(x), batch, seq)
        k = self._split_heads(self.wk(x), batch, seq)
        v = self._split_heads(self.wv(x), batch, seq)
        q = self.rope(q, position_offset=offset, positions=positions)
        k = self.rope(k, position_offset=offset, positions=positions)

        if serving:
            # Inference path: the cache read carries no gradients.
            if cache_rows is not None:
                cache.prefill_rows(layer_index, k.data, v.data, cache_rows,
                                   cache_starts, cache_lens)
                context = block_prefill_attention(
                    q.data, cache, layer_index, kv_mask=kv_mask,
                    rows=cache_rows)
            else:
                cache.write_token(layer_index, k.data, v.data,
                                  positions[:, 0], rows=decode_rows)
                context = block_decode_attention(
                    q.data, cache, layer_index, kv_mask=kv_mask,
                    rows=decode_rows)
            merged = Tensor(context).transpose(0, 2, 1, 3) \
                                    .reshape(batch, seq, self.d_model)
            return self.wo(merged)
        if cache is not None:
            k_data, v_data = cache.append(layer_index, k.data, v.data)
            k, v = Tensor(k_data), Tensor(v_data)

        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if seq > 1:
            # Single-token decode skips mask construction entirely (the new
            # token may attend to everything); prefill reuses cached masks.
            scores = scores + Tensor(causal_mask(seq, k.shape[2]))
        if kv_mask is not None:
            scores = scores + Tensor(kv_mask)
        probs = F.softmax(scores, axis=-1)
        context = probs @ v  # (B, H, T, head_dim)
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, self.d_model)
        return self.wo(merged)
