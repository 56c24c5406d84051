"""The dense-gather oracle for the paged KV caches, and the reference
2.33-bit round trip the quantized one is checked against.

:func:`dense_context` assembles the rows' whole context of one layer
into dense ``(rows, heads, total, head_dim)`` K and V arrays the simple
way: a block-major gather then a transposed copy — of every table slot
on the FP32 pool; of the owned sealed blocks, then each row's FP32
current block, on the quantized one.  No serving code reads like this —
the engine, ``cached_perplexity`` and block attention all iterate
``context_blocks`` — so the tests pin those chunk reads against it bit
for bit, and ``benchmarks/test_kernels.py`` times it as the
gather-everything baseline.

The quantized cache stores each sealed block's quantized FP32 values
only; the paper's packed format lives here.  :func:`pack_blocks` encodes
blocks Algorithm 1 line by line and packs them bit by bit,
:func:`unpack_blocks` decodes such a payload back, and
:func:`reference_quantize` is the two in a row: what a seal must store.
:func:`current_blocks` returns the rows' FP32 current blocks, which the
store keeps at ids ``-2 - row``.

Import them as ``from tests.kv_oracle import dense_context`` (the suite
runs from the repository root).
"""

from __future__ import annotations

import numpy as np

from repro.core import packing
from repro.core.clusters import cluster_weights
from repro.core.encoding import encode_channels_stepwise
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
    k_store, v_store = cache.codec.store.arrays
    return (_gather(cache, k_store[layer], ids)[:, :, :total],
            _gather(cache, v_store[layer], ids)[:, :, :total])


def _gather(cache, pool: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Block-major gather of ``ids``, then the transposed copy."""
    batch, nblk = ids.shape
    blocks = pool[ids]  # (batch, nblk, heads, block, head_dim)
    return blocks.transpose(0, 2, 1, 3, 4).reshape(
        batch, cache._heads, nblk * cache.block_size, cache._head_dim)


def _quantized_context(cache, layer, rows, total, nblk):
    bs = cache.block_size
    row_idx = cache._row_index if rows is None else rows
    # Gather only blocks a row owns (its sealed prefix): current blocks
    # are placed from FP32 below and stale/padding table slots carry
    # nothing.  Unowned positions stay zero.
    owned = np.arange(nblk)[None, :] < cache._blocks_per_row[row_idx, None]
    selected = cache._block_ids(nblk, rows)[owned]
    row_lens = cache._row_len[row_idx]
    # Place only rows that actually hold tokens past their sealed
    # blocks: a row whose context is entirely adopted sealed blocks
    # (block-aligned prefix match) has an empty current block, and
    # placing it would mask its newest shared block with stale data.
    buffered = row_lens - cache._blocks_per_row[row_idx] * bs
    live = np.nonzero(buffered > 0)[0]  # indices into the sub-batch
    current = (row_lens[live] - 1) // bs
    n, heads, head_dim = len(row_idx), cache._heads, cache._head_dim
    out = []
    for store, fp32 in zip(cache.codec.store.arrays, current_blocks(cache)):
        blocks = np.zeros((n, nblk, heads, bs, head_dim), dtype=np.float32)
        blocks[owned] = store[layer, selected]
        # Each live row's FP32 current block: exact values for the newest
        # <= block_size tokens.
        blocks[live, current] = fp32[layer, row_idx[live]]
        out.append(blocks.transpose(0, 2, 1, 3, 4).reshape(
            n, heads, nblk * bs, head_dim)[:, :, :total])
    return out[0], out[1]


def current_blocks(cache):
    """Every row's FP32 current block on a quantized cache: K and V as
    ``(layers, batch, heads, block, head_dim)`` copies of the store's
    blocks ``-2 - row``."""
    spare = -2 - np.arange(cache.batch)
    return tuple(array[:, spare] for array in cache.codec.store.arrays)


def pack_blocks(blocks: np.ndarray) -> packing.PackedMatrix:
    """``(n, heads, block, head_dim)`` FP32 K/V blocks in the paper's
    2.33-bit format, one row per ``(block, head, dim)`` channel, through
    the step functions of Algorithm 1 and the per-bit packer."""
    matrix = blocks.transpose(0, 1, 3, 2).reshape(-1, blocks.shape[2])
    clusters, _ = cluster_weights(matrix)
    codes, schemes, scales = encode_channels_stepwise(clusters)
    return packing.pack_matrix_bitwise(codes, schemes, scales.reshape(-1),
                                       matrix.shape)


def unpack_blocks(packed: packing.PackedMatrix, shape: tuple) -> np.ndarray:
    """Decode :func:`pack_blocks`' format back to ``shape``, ``(n,
    heads, block, head_dim)``, float32: the codes
    :func:`repro.core.packing.decode_payload` reads times the FP16
    scales."""
    n, heads, block, head_dim = shape
    codes, _ = packing.decode_payload(packed.payload)
    values = codes.astype(np.float32) \
        * packed.scales.astype(np.float32)[:, None, None]
    return values.reshape(len(codes), -1)[:, :block] \
        .reshape(n, heads, head_dim, block).transpose(0, 1, 3, 2)


def reference_quantize(blocks: np.ndarray) -> np.ndarray:
    """What sealing ``blocks`` must store: their reference 2.33-bit
    payload, decoded."""
    return unpack_blocks(pack_blocks(blocks), blocks.shape)
