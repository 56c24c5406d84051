"""The dense-gather oracle for the paged KV caches.

:func:`dense_context` assembles the rows' whole context of one layer
into dense ``(rows, heads, total, head_dim)`` K and V arrays the simple
way: a block-major gather then a transposed copy on the FP32 pool;
dequantize every owned block, then overlay each row's FP32 write
buffer, on the quantized one.  No serving code reads like this — the
engine, ``cached_perplexity`` and block attention all iterate
``context_blocks`` — so the tests pin those chunk reads against it bit
for bit, and ``benchmarks/test_kernels.py`` times it as the
gather-everything baseline.

Import it as ``from tests.kv_oracle import dense_context`` (the suite
runs from the repository root).
"""

from __future__ import annotations

import numpy as np

from repro.nn.kv_codec import dequantize_kv_channels
from repro.nn.paged_kv_cache import QuantizedPagedKVCache


def dense_context(cache, layer: int, rows: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Layer ``layer``'s K and V for ``rows`` (``None`` = every row),
    ``cache.layer_len(layer)`` tokens wide.  Positions past a row's own
    length hold what the pool holds there — finite stale values on the
    FP32 pool, zeros on the quantized one — as the chunk reads do."""
    total = cache.layer_len(layer)
    nblk = -(-total // cache.block_size)
    if isinstance(cache, QuantizedPagedKVCache):
        return _quantized_context(cache, layer, rows, total, nblk)
    ids = cache._block_ids(nblk, rows)
    return (_gather(cache, cache.codec._pool_k[layer], ids)[:, :, :total],
            _gather(cache, cache.codec._pool_v[layer], ids)[:, :, :total])


def _gather(cache, pool: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Block-major gather of ``ids``, then the transposed copy."""
    batch, nblk = ids.shape
    blocks = pool[ids]  # (batch, nblk, heads, block, head_dim)
    return blocks.transpose(0, 2, 1, 3, 4).reshape(
        batch, cache._heads, nblk * cache.block_size, cache._head_dim)


def _quantized_context(cache, layer, rows, total, nblk):
    bs, heads, head_dim = cache.block_size, cache._heads, cache._head_dim
    row_idx = cache._row_index if rows is None else rows
    n = len(row_idx)
    # Dequantize only blocks a row owns (its quantized prefix): current
    # blocks are overwritten by the FP32 overlay below and stale/padding
    # table slots carry nothing.  Unowned positions stay zero.
    owned = np.arange(nblk)[None, :] < cache._blocks_per_row[row_idx, None]
    flat_owned = owned.reshape(-1)
    selected = cache._block_ids(nblk, rows).reshape(-1)[flat_owned]
    row_lens = cache._row_len[row_idx]
    # Overlay only rows that actually hold buffered tokens: a row whose
    # context is entirely adopted quantized blocks (block-aligned prefix
    # match) has an empty buffer, and overlaying it would mask its newest
    # shared block with stale data.
    buffered = row_lens - cache._blocks_per_row[row_idx] * bs
    live = np.nonzero(buffered > 0)[0]  # indices into the sub-batch
    current = (row_lens[live] - 1) // bs
    out = []
    for payload_pool, scale_pool, buf in (
            (cache.codec._payload_k[layer], cache.codec._scale_k[layer],
             cache.codec._buf_k[layer]),
            (cache.codec._payload_v[layer], cache.codec._scale_v[layer],
             cache.codec._buf_v[layer])):
        channels = np.zeros((n * nblk, cache.codec._channels, bs),
                            dtype=np.float32)
        if selected.size:
            channels[flat_owned] = dequantize_kv_channels(
                payload_pool[selected].reshape(-1, cache.codec._payload_bytes),
                scale_pool[selected].reshape(-1), bs
            ).reshape(-1, cache.codec._channels, bs)
        blocks = channels.reshape(n, nblk, heads, head_dim, bs) \
                         .transpose(0, 1, 2, 4, 3)
        # Each live row's FP32 current block: exact values for the newest
        # <= block_size tokens.
        blocks[live, current] = buf[row_idx[live]]
        out.append(blocks.transpose(0, 2, 1, 3, 4).reshape(
            n, heads, nblk * bs, head_dim)[:, :, :total])
    return out[0], out[1]
