"""Paged, block-granular KV storage for the serving engine.

The rectangular :class:`~repro.nn.kv_cache.KVCache` allocates
``batch x capacity`` time slots per layer, so every short sequence pays
for the longest row and cache memory — not compute — caps the decode
batch size.  Here K/V live in fixed-size *blocks* (``block_size`` tokens)
drawn from one shared pool per layer; each batch row owns an ordered
block table, blocks are handed out as rows grow and returned to the free
list when the engine retires a sequence.  Cache memory therefore tracks
the *sum of live tokens* (rounded up to blocks) instead of
``batch x max_len`` — the PagedAttention discipline, scaled down to
numpy.

One cache, two block codecs (:mod:`repro.nn.kv_codec`): the cache
defines once what every format shares — block tables, reference counts,
row lengths, sharing, rollback, byte accounting — and the codec it is
built with owns the block storage and the write and read paths over it.
:class:`PagedKVCache` stores FP32 blocks, so reads return the float
values a rectangular cache would and greedy engine output stays
token-identical to the sequential path.  :class:`QuantizedPagedKVCache`
seals full blocks in the paper's 2.33-bit FineQ format and keeps every
row's newest block in an FP32 write buffer.  Attention, the engine and
``cached_perplexity`` call the same methods on either.

Block tables are shared across layers (block ``i`` of a row addresses
every layer's pool), which keeps allocation single-sourced while the
per-layer write/read state may lag mid-forward.  Freed and padded table
slots may be gathered before they are reused; they only ever contain
finite stale values (pools are zero-initialised), which the engine's
additive key mask turns into exact-zero attention contributions.

Blocks are *reference counted* so the serving engine's prefix store can
alias one physical block into many rows' tables (vLLM-style prefix
sharing): :meth:`PagedKVCache.ref_blocks` / :meth:`release_blocks` move
the count, :meth:`adopt_prefix` points a fresh row at an already-written
block chain, :meth:`share_block` hands out a reference to a row's block
(a buffered current block is sealed into a pool block first), and a new
request that diverges *inside* a partially-filled shared block adopts
it copy-on-write (:meth:`copy_block` on FP32; the FineQ codec
dequantizes the shared tail into its write buffer instead).  A block
returns to the free list only when its last reference drops, so retiring
or cancelling a reader frees exactly the blocks it owned exclusively.

One read path (the dense whole-context gather the chunks are pinned
against is a tests-only oracle): :meth:`context_blocks` iterates the
rows' context chunk by chunk (``chunk_blocks`` blocks at a time) for
:mod:`repro.nn.block_attention`, so neither decode nor prefill
materialises the dense copy.

One resolution per forward: a model forward writes and reads every layer
with the same ``rows`` and positions against one block table, so what
those determine — where tokens land, which blocks each chunk gathers,
which write buffers overlay it, how many live tokens it streams — is
resolved by the forward's first layer and memoised (``_ids_memo``) for
the rest; the entry points (:meth:`write_token`, :meth:`prefill_rows`,
:meth:`context_blocks`, :meth:`context_chunk_pair`) only scatter and
gather on the later layers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# DequantBlockCache and the kernels are imported for their names here:
# perfbench resolves its dequant and flush-quantize spans in this module.
from repro.nn.dequant_cache import DequantBlockCache  # noqa: F401
from repro.nn.kv_codec import (FineQCodec, FP32Codec,  # noqa: F401
                               quantize_kv_block)

#: Tokens per cache block (vLLM's default granularity).
DEFAULT_BLOCK_SIZE = 16

#: Blocks per :meth:`PagedKVCache.context_blocks` chunk.  128 tokens at
#: the default block size: wide enough to amortize the per-chunk python
#: dispatch, narrow enough that decode scratch stays a small constant
#: fraction of a long context's dense gather.
DEFAULT_CHUNK_BLOCKS = 8

#: Default byte budget for the quantized cache's dequantized-block LRU.
DEFAULT_DEQUANT_CACHE_BYTES = 128 * 2 ** 20


@dataclass
class KVReadStats:
    """Decode-read accounting accumulated by :meth:`context_blocks`.

    ``streamed_bytes`` is what the block iteration actually
    fetched from cache storage (whole chunks for FP32 pools; quantized
    payload+scale bytes for dequant-cache misses plus FP32 write-buffer
    bytes for current blocks — hits stream nothing, which is the number
    the accelerator projection credits); ``peak_scratch_bytes`` is the
    largest transient chunk scratch any single read materialised (a
    regression that materialises something dense shows up there).
    ``dequant_hits`` /
    ``dequant_misses`` count per-reader block lookups in the
    :class:`DequantBlockCache` (a block missed once but read by sixteen
    rows in the same chunk counts one miss and fifteen hits).  A
    flush that writes a block's values through into the memo charges
    ``streamed_bytes`` the payload fetch of the first-read miss it
    replaces, so write-through moves no total.

    The write side rides along: ``flush_calls`` counts
    :func:`quantize_kv_block` kernel calls and ``flush_blocks`` the K/V
    blocks they quantized (the quotient is the flush batching factor).
    """

    streamed_bytes: int = 0
    peak_scratch_bytes: int = 0
    dequant_hits: int = 0
    dequant_misses: int = 0
    flush_calls: int = 0
    flush_blocks: int = 0


def _blocks_needed(tokens: int | np.ndarray, block_size: int):
    return -(-tokens // block_size)


class PagedKVCache:
    """Block-pooled K/V storage with per-row block tables (FP32 blocks;
    :class:`QuantizedPagedKVCache` is the FineQ-format build).

    Parameters
    ----------
    num_layers:
        Transformer depth (one K and one V pool per layer).
    batch:
        Number of cache slots; the paged cache always pins its batch
        (it is a serving-engine object).
    block_size:
        Tokens per block.
    initial_blocks:
        Pool size at first write; when the free list runs dry the pool
        grows by half (floored at ``batch`` blocks) — amortized like the
        rectangular cache's doubling, but fine-grained enough that the
        physical footprint tracks live-token demand instead of jumping
        straight to the ``batch x max_len`` rectangle.
    max_blocks:
        Soft pool budget.  Writes never fail — the pool still grows when
        forced — but :meth:`available_blocks` reports the remaining
        headroom so the engine's scheduler can throttle admission or
        preempt low-priority rows instead of overshooting the budget.
    chunk_blocks:
        Blocks gathered per :meth:`context_blocks` chunk (the read
        scratch granularity).
    """

    def __init__(self, num_layers: int, batch: int,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 initial_blocks: int | None = None,
                 max_blocks: int | None = None,
                 chunk_blocks: int = DEFAULT_CHUNK_BLOCKS):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if chunk_blocks < 1:
            raise ValueError("chunk_blocks must be >= 1")
        self.num_layers = num_layers
        self.batch = batch
        self.block_size = block_size
        self.initial_blocks = initial_blocks or 2 * batch
        self.max_blocks = max_blocks
        self.chunk_blocks = chunk_blocks
        self._heads: int | None = None
        self._head_dim = 0
        self._total_blocks = 0
        self._free: list[int] = []
        self._refcount = np.zeros(0, dtype=np.int64)
        self._tables = np.zeros((batch, 0), dtype=np.int64)
        self._blocks_per_row = np.zeros(batch, dtype=np.int64)
        self._row_len = np.zeros(batch, dtype=np.int64)
        self._row_index = np.arange(batch)
        self._lengths = [0] * num_layers
        # The per-forward resolution.  Block tables are shared across
        # layers, so everything only the tables, ``rows`` and the write
        # positions determine — write block ids and slots, the gather
        # index of every chunk, the quantized overlay plan, the live
        # token sums behind ``streamed_bytes`` — is computed by the
        # first layer of a forward and reused by the rest.  Any table
        # mutation clears it (see _invalidate_ids_memo), and so does a
        # write it has not seen: that one moves row lengths.
        self._ids_memo: dict[tuple, object] = {}
        self._read_stats = KVReadStats()
        #: The block codec: storage and the write/read paths over it.
        self.codec = FP32Codec(self)

    # ------------------------------------------------------------------ #
    # storage management
    # ------------------------------------------------------------------ #
    def _init_storage(self, like: np.ndarray) -> None:
        self._heads = int(like.shape[1])
        self._head_dim = int(like.shape[3])
        self.codec.setup()
        self._grow_pool(max(self.initial_blocks, 1))

    def _check_batch(self, data: np.ndarray) -> None:
        if data.shape[0] != self.batch:
            raise ValueError(f"batch mismatch: cache pinned to {self.batch} "
                             f"rows, got {data.shape[0]}")

    def _resolve_rows(self, data: np.ndarray,
                      rows: np.ndarray | None) -> np.ndarray:
        """Validated int64 row indices for a write (``None`` = all rows)."""
        if rows is None:
            self._check_batch(data)
            return self._row_index
        row_idx = np.asarray(rows, dtype=np.int64)
        if data.shape[0] != len(row_idx):
            raise ValueError(f"sub-batch mismatch: {len(row_idx)} rows, "
                             f"got {data.shape[0]} k/v entries")
        return row_idx

    def _grow_pool(self, new_total: int) -> None:
        for pools in self.codec.block_pools:
            for layer, old in enumerate(pools):
                # Zero-filled on purpose: stale/padded block reads must
                # stay finite so masked rows contribute exact zeros,
                # never NaNs.
                new = np.zeros((new_total,) + old.shape[1:], dtype=old.dtype)
                new[:len(old)] = old
                pools[layer] = new
        self._free.extend(range(self._total_blocks, new_total))
        counts = np.zeros(new_total, dtype=np.int64)
        counts[:len(self._refcount)] = self._refcount
        self._refcount = counts
        self._total_blocks = new_total

    def _take_block(self) -> int:
        if not self._free:
            growth = max(self.batch, self._total_blocks // 2, 1)
            self._grow_pool(self._total_blocks + growth)
        block = self._free.pop()
        self._refcount[block] = 1
        return block

    def _invalidate_ids_memo(self) -> None:
        """Invalidate the memoised (rows -> block ids) resolutions."""
        self._ids_memo.clear()

    def _widen_tables(self, blocks: int) -> None:
        """Make room for ``blocks`` table entries per row (doubling)."""
        width = self._tables.shape[1]
        if blocks > width:
            wider = np.zeros((self.batch, max(blocks, 2 * width)),
                             dtype=np.int64)
            wider[:, :width] = self._tables
            self._tables = wider

    def _ensure_row_blocks(self, rows: np.ndarray, needed: np.ndarray) -> None:
        """Grow block tables so each of ``rows`` owns ``needed`` blocks."""
        if np.all(needed <= self._blocks_per_row[rows]):
            return  # steady-state decode: no row crossed a block boundary
        self._invalidate_ids_memo()
        self._widen_tables(int(np.max(needed, initial=0)))
        for row, need in zip(np.asarray(rows).reshape(-1), np.asarray(needed).reshape(-1)):
            have = int(self._blocks_per_row[row])
            while have < need:
                self._tables[row, have] = self._take_block()
                have += 1
            self._blocks_per_row[row] = max(self._blocks_per_row[row], need)

    def free_rows(self, rows: np.ndarray) -> None:
        """Drop retired sequences' block references; free unshared blocks.

        A block only returns to the pool when its last reference drops,
        so retiring a reader of a shared prefix frees exactly the blocks
        it owned exclusively — the shared chain stays resident for the
        prefix store and its other readers.
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        for row in rows:
            count = int(self._blocks_per_row[row])
            self.release_blocks(self._tables[row, :count])
            self._blocks_per_row[row] = 0
            self._row_len[row] = 0
        self.codec.shrink(rows)
        self._invalidate_ids_memo()

    def free_blocks(self) -> int:
        """Blocks on the shared free list (allocated but unowned)."""
        return len(self._free)

    def available_blocks(self) -> int | None:
        """Blocks grantable within the soft budget (None = unbounded)."""
        if self.max_blocks is None:
            return None
        return len(self._free) + max(0, self.max_blocks - self._total_blocks)

    # ------------------------------------------------------------------ #
    # block sharing (prefix reuse / copy-on-write)
    # ------------------------------------------------------------------ #
    def ref_blocks(self, block_ids) -> None:
        """Add one reference to each of ``block_ids``."""
        for block in np.asarray(block_ids, dtype=np.int64).reshape(-1):
            if self._refcount[block] < 1:
                raise ValueError(f"block {block} is free; cannot reference")
            self._refcount[block] += 1

    def release_blocks(self, block_ids) -> None:
        """Drop one reference per block; free blocks that hit zero."""
        for block in np.asarray(block_ids, dtype=np.int64).reshape(-1):
            block = int(block)
            if self._refcount[block] < 1:
                raise ValueError(f"block {block} released more than held")
            self._refcount[block] -= 1
            if self._refcount[block] == 0:
                self._free.append(block)
                self.codec.freed(block)

    def block_refcount(self, block_id: int) -> int:
        """Current reference count of one block (0 = on the free list)."""
        return int(self._refcount[block_id])

    def copy_block(self, src: int) -> int:
        """Copy-on-write primitive: duplicate ``src`` across every layer.

        Returns a fresh block (one reference, owned by the caller) whose
        stored payload equals ``src``'s at copy time.  The FP32 codec
        adopts a shared partial tail through it: the writer gets a
        private copy, other readers keep the original.
        """
        dst = self._take_block()
        for pools in self.codec.block_pools:
            for pool in pools:
                pool[dst] = pool[src]
        return dst

    def share_block(self, row: int, depth: int, fill: int) -> int:
        """Reference block ``depth`` of ``row`` for sharing; returns its id.

        ``fill`` is how many leading tokens of the block the caller will
        advertise (``block_size`` for a full block); it must be tokens
        the row has written there, ``0 < fill <= min(block_size,
        row length - depth * block_size)``.  A pool block is handed out
        directly — the first ``fill`` slots are prompt content and are
        never rewritten; later slots of an FP32 block may keep mutating
        under the owning row's decode, so consumers of a partial block
        must copy-on-write before trusting slots ``>= fill``.  A current
        block the codec buffers is sealed into a fresh pool block
        (:meth:`~repro.nn.kv_codec.FineQCodec.seal_current`).  The
        caller owns one reference on the returned id.
        """
        held = int(self._row_len[row]) - depth * self.block_size
        if not 0 < fill <= min(self.block_size, held):
            raise ValueError(f"row {row} holds {max(held, 0)} tokens at "
                             f"block {depth}; cannot share {fill}")
        if depth < self._blocks_per_row[row]:
            block = int(self._tables[row, depth])
            self.ref_blocks([block])
            return block
        return self.codec.seal_current(row, fill)

    def adopt_prefix(self, row: int, full_ids, tail_id: int | None = None,
                     tail_keep: int = 0) -> int:
        """Point a fresh row at an already-written shared block chain.

        ``full_ids`` are full shared blocks adopted *by reference*;
        ``tail_id`` (optional) is a partially-filled shared block whose
        first ``tail_keep`` tokens the row reuses — adopted copy-on-write
        through the codec (:meth:`~repro.nn.kv_codec.FP32Codec.adopt`),
        since the row will keep writing into that block.  Returns the
        row's resulting token length.
        """
        if self._blocks_per_row[row] != 0:
            raise ValueError(f"row {row} still owns blocks; free it first")
        if tail_id is None:
            tail_keep = 0
        elif not 0 < tail_keep < self.block_size:
            raise ValueError("tail_keep must be in (0, block_size) "
                             "when a tail block is adopted")
        full_ids = [int(b) for b in np.asarray(full_ids,
                                               dtype=np.int64).reshape(-1)]
        self.ref_blocks(full_ids)
        length = len(full_ids) * self.block_size + tail_keep
        ids = full_ids + self.codec.adopt(row, tail_id, length)
        self._widen_tables(len(ids))
        self._tables[row, :len(ids)] = ids
        self._blocks_per_row[row] = len(ids)
        self._invalidate_ids_memo()
        self._row_len[row] = length
        return length

    def trim(self, max_len: int) -> None:
        """Clamp the logical context width to ``max_len`` time steps.

        Shrinks the per-layer read width after rows retire so a
        persistent session stops gathering (and, quantized, decoding)
        the historical longest row's width; pool blocks are unaffected
        (``free_rows`` already reclaimed them).
        """
        self._lengths = [min(length, max_len) for length in self._lengths]

    # ------------------------------------------------------------------ #
    # speculative-decoding rollback
    # ------------------------------------------------------------------ #
    def truncate_rows(self, rows, lengths) -> None:
        """Roll ``rows`` back to ``lengths`` committed tokens.

        The speculative-decoding rollback: a rejected draft suffix is
        uncommitted by clamping the row's token length and *releasing*
        (not zeroing) any block the kept prefix no longer reaches.
        Release honours refcounts, so a shared-prefix block merely loses
        this row's reference and is never mutated for its other readers;
        a block whose last reference drops returns to the free list
        (and the codec hears of it).  Slots beyond ``lengths`` inside
        the kept blocks keep their stale values — per-row masks hide
        them and later writes overwrite them, the same contract stale
        table slots already live under.

        A buffering codec's sealed blocks are lossy, so its rows roll
        back only inside their buffered block (dropping the row, ``0``,
        is always fine); the engine's boundary-chunked verify never asks
        for more.
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        if self.codec.buffered:
            for row, keep in zip(rows, lengths):
                if 0 < keep < self._row_len[row] and (keep - 1) \
                        // self.block_size < self._blocks_per_row[row]:
                    raise ValueError(
                        f"row {row} cannot roll back to {keep} tokens: below "
                        f"its buffered block, flushed blocks are lossy")
        for row, keep in zip(rows, lengths):
            row, keep = int(row), int(keep)
            if keep < 0:
                raise ValueError("cannot truncate a row below zero tokens")
            if keep >= self._row_len[row]:
                continue  # nothing to roll back
            have = int(self._blocks_per_row[row])
            # Every block the kept tokens touch stays; past the check
            # above, a buffered row therefore releases blocks only when
            # it is dropped.
            need = min(have, int(_blocks_needed(keep, self.block_size)))
            if need < have:
                self.release_blocks(self._tables[row, need:have])
                self._blocks_per_row[row] = need
            self._row_len[row] = keep
        self.codec.shrink(rows)
        self._invalidate_ids_memo()

    # ------------------------------------------------------------------ #
    # write paths
    # ------------------------------------------------------------------ #
    @staticmethod
    def _rows_key(rows: np.ndarray | None) -> bytes | None:
        return None if rows is None \
            else np.asarray(rows, dtype=np.int64).tobytes()

    def write_token(self, layer: int, k: np.ndarray, v: np.ndarray,
                    positions: np.ndarray,
                    rows: np.ndarray | None = None) -> None:
        """Scatter one decode token per batch row at ``positions``.

        ``rows`` (a sub-batch of cache rows, the engine's active slots)
        restricts the writes to those rows; idle rows then pin no
        blocks.  Nothing is read back: attention reads the block table
        through :meth:`context_blocks`.  Where the tokens land is
        resolved by the first layer of a forward
        (:meth:`_resolve_token_write`); the codec scatters every layer.
        """
        positions = np.asarray(positions, dtype=np.int64)
        key = ("token", self._rows_key(rows), positions.tobytes())
        plan = self._ids_memo.get(key)
        if plan is None:
            row_idx = self._resolve_rows(k, rows)
            if self._heads is None:
                self._init_storage(k)
            self._invalidate_ids_memo()  # row lengths move
            self._row_len[row_idx] = np.maximum(self._row_len[row_idx],
                                                positions + 1)
            plan = self._resolve_token_write(row_idx, positions)
        self.codec.write_token(layer, k, v, plan[1])
        self._ids_memo[key] = plan  # a seal inside the write cleared it
        self._lengths[layer] = max(self._lengths[layer], plan[0])

    def _resolve_token_write(self, row_idx: np.ndarray,
                             positions: np.ndarray) -> tuple:
        """A forward's first :meth:`write_token`: ``(context width, the
        codec's plan)``."""
        return (int(positions.max()) + 1,
                self.codec.plan_token(row_idx, positions))

    def prefill_rows(self, layer: int, k: np.ndarray, v: np.ndarray,
                     rows: np.ndarray, starts: np.ndarray,
                     row_lengths: np.ndarray) -> None:
        """Write per-row suffix spans.

        The suffix/chunked prefill: row ``j`` already holds ``starts[j]``
        context tokens (adopted shared blocks, or spans written by
        earlier prefill chunks; ``0`` for a fresh row), and ``k``/``v``
        carry its next ``row_lengths[j]`` tokens (right-padded to a
        common width).  Writes land at absolute positions ``starts[j] ..
        starts[j] + row_lengths[j] - 1`` — continuing a partially-filled
        block in place when the span starts mid-block.  Nothing is read
        back: :func:`repro.nn.block_attention.block_prefill_attention`
        reads the rows' full context (shared prefix + new suffix)
        through :meth:`context_blocks`.  The row/block walk runs once
        per forward (:meth:`_resolve_span_write`); the codec copies the
        same segments on every layer.
        """
        if self._heads is None:
            self._init_storage(k)
        rows = np.asarray(rows, dtype=np.int64)
        starts = np.asarray(starts, dtype=np.int64)
        lens = np.asarray(row_lengths, dtype=np.int64)
        key = ("span", rows.tobytes(), starts.tobytes(), lens.tobytes())
        plan = self._ids_memo.get(key)
        if plan is None:
            self._invalidate_ids_memo()  # row lengths move
            plan = self._resolve_span_write(layer, rows, starts, lens)
            self._row_len[rows] = np.maximum(self._row_len[rows],
                                             starts + lens)
        self.codec.write_span(layer, k, v, plan[1])
        self._ids_memo[key] = plan  # a seal inside the write cleared it
        self._lengths[layer] = max(self._lengths[layer], plan[0])

    def _span_segments(self, rows: np.ndarray, starts: np.ndarray,
                       lens: np.ndarray) -> list[tuple]:
        """Split the rows' spans at block boundaries: ``(j, row, block,
        lo, take, src)`` says tokens ``src .. src + take`` of span ``j``
        fill slots ``lo .. lo + take`` of ``row``'s block ``block``."""
        bs = self.block_size
        segments = []
        for j, row in enumerate(rows.tolist()):
            start = pos = int(starts[j])
            end = start + int(lens[j])
            while pos < end:
                lo = pos % bs
                take = min(bs - lo, end - pos)
                segments.append((j, row, pos // bs, lo, take, pos - start))
                pos += take
        return segments

    def _resolve_span_write(self, layer: int, rows: np.ndarray,
                            starts: np.ndarray, lens: np.ndarray) -> tuple:
        """A forward's first :meth:`prefill_rows`: ``(context width, the
        codec's plan)``."""
        return (int((starts + lens).max()),
                self.codec.plan_span(layer, rows, starts, lens))

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #
    def _block_ids(self, nblk: int,
                   rows: np.ndarray | None = None) -> np.ndarray:
        """Per-row block ids padded to ``nblk`` columns (pad gathers block
        0 — finite stale data that per-row masks zero out).  ``rows``
        restricts the result to a sub-batch without ever materialising
        the full-batch matrix.

        Resolutions are memoised until the next table mutation: block
        tables are shared across layers, so one decode step resolves
        its (rows -> ids) matrix once and every layer's read reuses it.
        """
        key = ("ids", nblk, self._rows_key(rows))
        ids = self._ids_memo.get(key)
        if ids is not None:
            return ids
        tables = self._tables if rows is None else self._tables[rows]
        width = tables.shape[1]
        if width >= nblk:
            ids = tables[:, :nblk]
        else:
            ids = np.zeros((tables.shape[0], nblk), dtype=np.int64)
            ids[:, :width] = tables
        self._ids_memo[key] = ids
        return ids

    def take_read_stats(self) -> KVReadStats:
        """Return and reset the accumulated :class:`KVReadStats` (the
        engine snapshots these once per decode step)."""
        stats = self._read_stats
        self._read_stats = KVReadStats()
        return stats

    def _note_scratch(self, nbytes: int) -> None:
        """Record one chunk step's measured transient scratch bytes."""
        stats = self._read_stats
        stats.peak_scratch_bytes = max(stats.peak_scratch_bytes, nbytes)

    def _read_plan(self, total: int, rows: np.ndarray | None) -> tuple:
        """This forward's read resolution for ``rows`` over ``total``
        tokens (see :meth:`_resolve_read`), computed by the first layer
        that reads and shared by the rest."""
        key = ("read", total, self._rows_key(rows))
        plan = self._ids_memo.get(key)
        if plan is None:
            plan = self._ids_memo[key] = self._resolve_read(total, rows)
        return plan

    def _resolve_read(self, total: int, rows: np.ndarray | None) -> tuple:
        """``(reader rows, the codec's plan)`` of a ``total``-token read
        over the rows' block ids."""
        row_idx = self._row_index if rows is None \
            else np.asarray(rows, dtype=np.int64)
        ids = self._block_ids(_blocks_needed(total, self.block_size), rows)
        return len(row_idx), self.codec.read_plan(total, row_idx, ids)

    def context_chunk_pair(self, layer: int, rows: np.ndarray | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Single-chunk K/V read (context fits one chunk window): the
        one chunk of :meth:`context_blocks`, sliced to the context —
        exactly the values the tests' dense-gather oracle returns.  The
        arrays are only valid until the next read.
        """
        total = self._lengths[layer]
        window = self.chunk_blocks * self.block_size
        if total > window:
            raise ValueError(f"context of {total} tokens exceeds the "
                             f"{window}-token chunk window; iterate "
                             "context_blocks instead")
        _start, k_chunk, v_chunk = next(
            self.context_blocks(layer, rows=rows, kind="kv"))
        return k_chunk[:, :, :total], v_chunk[:, :, :total]

    def context_blocks(self, layer: int, rows: np.ndarray | None = None,
                       kind: str = "k", pad: bool = False,
                       _reach: int | None = None):
        """Iterate the rows' context as ``(start, chunk, ...)`` tuples.

        The block-resident read: each chunk is a ``(n, heads, width,
        head_dim)`` float32 gather of up to ``chunk_blocks`` consecutive
        blocks starting at absolute token position ``start``, with
        exactly the values a dense gather of the whole context would
        place there (the tests pin them against one) — but only one
        chunk is ever resident, so no dense ``(n, heads, total,
        head_dim)`` copy exists.  ``kind`` selects the operand: ``"k"``
        or ``"v"`` yield ``(start, chunk)`` (block attention's two-pass
        long-context read), ``"kv"`` yields ``(start, k_chunk,
        v_chunk)`` in one pass (the single-chunk read pays the
        iteration bookkeeping once).  The final chunk may extend past
        the layer's token count; callers slice to ``layer_len`` — or
        ask for ``pad``, which yields every chunk a full window
        (``chunk_blocks * block_size`` keys) wide with an exact-zero
        tail: the span read's chunk-grid geometry.  That read also ends
        at ``_reach``, the last key its queries can see: it gathers and
        books ``ceil(_reach / window)`` chunks (a short prompt's fixed
        one included), however long other rows have grown.

        The codec gathers each chunk, one copy per operand, straight
        into the attended layout (:meth:`~repro.nn.kv_codec.FP32Codec
        .read` into two buffers it reuses), so a chunk is only valid
        until the iteration advances.
        """
        total = self._lengths[layer]
        if _reach is not None:
            total = min(total, _reach)
        if total == 0:
            return
        n, plan = self._read_plan(total, rows)
        yield from self.codec.read(layer, n, plan, kind, pad)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def seq_len(self) -> int:
        return self._lengths[0]

    def layer_len(self, layer: int) -> int:
        """Cached time steps for ``layer`` (may lag ``seq_len`` mid-forward)."""
        return self._lengths[layer]

    @property
    def cached_tokens(self) -> int:
        """Live tokens across all rows (idle rows decoding dummy tokens
        register one slot-0 token until the row is prefilled again)."""
        return int(self._row_len.sum())

    def blocks_in_use(self) -> int:
        return int(self._blocks_per_row.sum())

    def _bytes(self, blocks: int, fp32_tokens: int) -> int:
        """K and V bytes, over every layer, of ``blocks`` sealed blocks at
        the codec's block price plus ``fp32_tokens`` FP32 tokens."""
        if self._heads is None:
            return 0
        token = self._heads * self._head_dim * 4
        return self.num_layers * 2 * (blocks * self.codec.block_bytes
                                      + fp32_tokens * token)

    def used_bytes(self) -> int:
        """Bytes storing the currently cached tokens: the rows' pool
        blocks at the codec's block price, adjusted at the FP32 token
        price by the tokens the rows hold past them (a buffered current
        block) or the slots they leave empty (an FP32 partial block) —
        so FP32 rows pay per token, FineQ rows per sealed block plus per
        buffered token.

        Logical accounting: with prefix sharing a block read by many rows
        is counted once per reader (this is what decode gathers stream);
        :meth:`physical_used_bytes` counts each resident block once.
        """
        owned = self.blocks_in_use()
        return self._bytes(owned, self.cached_tokens
                           - owned * self.block_size)

    def physical_used_bytes(self) -> int:
        """Bytes of blocks holding at least one reference (each counted
        once, however many rows alias it) plus the FP32 tokens write
        buffers hold — the resident cache footprint prefix sharing
        actually shrinks."""
        buffered = np.maximum(self._row_len
                              - self._blocks_per_row * self.block_size, 0)
        return self._bytes(self._total_blocks - len(self._free),
                           int(buffered.sum()))

    def allocated_bytes(self) -> int:
        """Physical footprint: the pool, free blocks included, and any
        write buffers."""
        return self._bytes(self._total_blocks, self.batch * self.block_size
                           if self.codec.buffered else 0)


class QuantizedPagedKVCache(PagedKVCache):
    """A :class:`PagedKVCache` built with the FineQ codec
    (:class:`~repro.nn.kv_codec.FineQCodec`): sealed blocks in the
    2.33-bit cluster format, each row's current block in an FP32 write
    buffer.

    ``dequant_cache_bytes`` budgets the codec's
    :class:`DequantBlockCache`, the memo of dequantized blocks the
    reads go through (under ``0`` it pins nothing — every read spills
    and re-runs the LUT dequant).
    """

    def __init__(self, num_layers: int, batch: int,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 initial_blocks: int | None = None,
                 max_blocks: int | None = None,
                 chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
                 dequant_cache_bytes: int = DEFAULT_DEQUANT_CACHE_BYTES):
        super().__init__(num_layers, batch, block_size=block_size,
                         initial_blocks=initial_blocks,
                         max_blocks=max_blocks, chunk_blocks=chunk_blocks)
        self.codec = FineQCodec(self, dequant_cache_bytes)
