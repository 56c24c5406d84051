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

Two variants share one interface — span/token writes that return
nothing and block-table reads for :mod:`repro.nn.block_attention` — so
attention, the engine and ``cached_perplexity`` are agnostic to which
one is threaded through:

* :class:`PagedKVCache` stores blocks in FP32.  Reads return the same
  float values a rectangular cache would, so greedy engine output stays
  token-identical to the sequential path.
* :class:`QuantizedPagedKVCache` stores *full* blocks in the FineQ
  weight format of :mod:`repro.core` — cluster-of-3 codes packed at 6
  bits per cluster with a shared 2-bit pair index and one FP16 scale per
  ``(head, dim)`` channel, clustered along the token axis — extending
  the paper's 2.33-bit memory story from weights to the KV cache.  The
  newest (current) block of every row stays in an FP32 write buffer and
  is quantized wholesale once the row starts its next block, so decode
  always reads exact values for the freshest ``<= block_size`` tokens
  and FineQ reconstructions for older context.

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
(quantized caches freeze the FP32 write buffer into a pool block first),
and :meth:`copy_block` is the FP32 copy-on-write primitive used when a
new request diverges *inside* a partially-filled shared block (the
quantized cache dequantizes the shared tail into its write buffer
instead and never copies a pool block).  A block
returns to the free list only when its last reference drops, so retiring
or cancelling a reader frees exactly the blocks it owned exclusively.

One read path (the dense whole-context gather the chunks are pinned
against is a tests-only oracle):

* :meth:`context_blocks` iterates the rows' context chunk by chunk
  (``chunk_blocks`` blocks at a time) for
  :mod:`repro.nn.block_attention` — the serving engine's read, so
  neither decode nor prefill materialises the dense copy.  A chunk is
  *one* copy per operand: the pool is indexed through its free
  ``(blocks * heads, block, head_dim)`` view with ``id * heads + head``,
  so a single ``take`` lands ``(rows, heads, blocks, block, head_dim)``
  and the ``(rows, heads, tokens, head_dim)`` array attention multiplies
  is a reshape view of it.  On the quantized cache the gather reads
  dequantized blocks through a
  :class:`~repro.nn.dequant_cache.DequantBlockCache`: quantized
  pool blocks are immutable once written (writes go through the FP32
  buffer; COW copies get fresh ids), so a block's dequantized values
  are memoised by ``(layer, block id)`` under a byte budget with LRU
  eviction, filled by the flush that quantizes the block
  (write-through) or by the first read that misses, and invalidated
  whenever a payload is rewritten or the block is freed.  A shared
  system-prompt block therefore dequantizes once per step across all
  its readers — and once *ever* while it stays cache-resident —
  instead of ``batch x layers x steps`` times.

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

from repro.core.packing import CLUSTERS_PER_GROUP, GROUP_BYTES
from repro.nn.dequant_cache import DequantBlockCache
from repro.nn.kv_codec import dequantize_kv_channels, quantize_kv_block

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
    """Block-pooled FP32 K/V storage with per-row block tables.

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
        # The two buffers (K, V) the FP32 chunk reads gather into (see
        # _chunk_buffers).
        self._chunk_scratch = np.empty((2, 0), dtype=np.float32)
        self._read_stats = KVReadStats()

    # ------------------------------------------------------------------ #
    # storage management
    # ------------------------------------------------------------------ #
    def _init_storage(self, like: np.ndarray) -> None:
        self._heads = int(like.shape[1])
        self._head_dim = int(like.shape[3])
        self._setup_layers()
        self._grow_pool(max(self.initial_blocks, 1))

    def _window_floats(self, n: int) -> int:
        """Floats in one operand's chunk window for ``n`` reader rows."""
        return n * self._heads * self.chunk_blocks * self.block_size \
            * self._head_dim

    def _chunk_buffers(self, n: int) -> np.ndarray:
        """The two reusable chunk buffers: one window each for the
        cache's batch, allocated at the first read (reading more rows
        than the cache has — repeated ``rows`` — is the only case that
        reallocates)."""
        floats = self._window_floats(max(n, self.batch))
        if self._chunk_scratch.shape[1] < floats:
            self._chunk_scratch = np.empty((2, floats), dtype=np.float32)
        return self._chunk_scratch

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

    def _setup_layers(self) -> None:
        self._pool_k: list[np.ndarray | None] = [None] * self.num_layers
        self._pool_v: list[np.ndarray | None] = [None] * self.num_layers

    def _grow_pool(self, new_total: int) -> None:
        for layer in range(self.num_layers):
            self._grow_layer(layer, new_total)
        self._free.extend(range(self._total_blocks, new_total))
        counts = np.zeros(new_total, dtype=np.int64)
        counts[:len(self._refcount)] = self._refcount
        self._refcount = counts
        self._total_blocks = new_total

    def _grow_layer(self, layer: int, new_total: int) -> None:
        shape = (new_total, self._heads, self.block_size, self._head_dim)
        for pool in (self._pool_k, self._pool_v):
            old = pool[layer]
            # Zero-filled on purpose: stale/padded block reads must stay
            # finite so masked rows contribute exact zeros, never NaNs.
            new = np.zeros(shape, dtype=np.float32)
            if old is not None:
                new[:old.shape[0]] = old
            pool[layer] = new

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

    def _on_block_freed(self, block: int) -> None:
        """Hook: ``block`` just returned to the free list (last reference
        dropped).  The quantized cache invalidates its dequant memo here."""

    def _ensure_row_blocks(self, rows: np.ndarray, needed: np.ndarray) -> None:
        """Grow block tables so each of ``rows`` owns ``needed`` blocks."""
        if np.all(needed <= self._blocks_per_row[rows]):
            return  # steady-state decode: no row crossed a block boundary
        self._invalidate_ids_memo()
        width = self._tables.shape[1]
        max_needed = int(np.max(needed, initial=0))
        if max_needed > width:
            wider = np.zeros((self.batch, max(max_needed, 2 * width)),
                             dtype=np.int64)
            wider[:, :width] = self._tables
            self._tables = wider
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
        for row in np.asarray(rows, dtype=np.int64).reshape(-1):
            count = int(self._blocks_per_row[row])
            self.release_blocks(self._tables[row, :count])
            self._blocks_per_row[row] = 0
            self._row_len[row] = 0
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
                self._on_block_freed(block)

    def block_refcount(self, block_id: int) -> int:
        """Current reference count of one block (0 = on the free list)."""
        return int(self._refcount[block_id])

    def copy_block(self, src: int) -> int:
        """Copy-on-write primitive: duplicate ``src`` across every layer.

        Returns a fresh block (one reference, owned by the caller) whose
        K/V payload equals ``src``'s at copy time.  Used when a request
        diverges inside a partially-filled shared block: the writer gets
        a private copy, other readers keep the original.  FP32 pools
        only — the quantized format's COW is :meth:`_adopt_tail`.
        """
        dst = self._take_block()
        for layer in range(self.num_layers):
            for pool in (self._pool_k, self._pool_v):
                pool[layer][dst] = pool[layer][src]
        return dst

    def share_block(self, row: int, depth: int, fill: int) -> int:
        """Reference block ``depth`` of ``row`` for sharing; returns its id.

        ``fill`` is how many leading tokens of the block the caller will
        advertise (``block_size`` for a full block).  The FP32 cache can
        hand out the live block directly — the first ``fill`` slots are
        prompt content and are never rewritten; later slots may keep
        mutating under the owning row's decode, so consumers of a partial
        block must copy-on-write before trusting slots ``>= fill``.
        The caller owns one reference on the returned id.
        """
        if depth >= self._blocks_per_row[row]:
            raise ValueError(f"row {row} owns {self._blocks_per_row[row]} "
                             f"blocks; cannot share depth {depth}")
        block = int(self._tables[row, depth])
        self.ref_blocks([block])
        return block

    def adopt_prefix(self, row: int, full_ids, tail_id: int | None = None,
                     tail_keep: int = 0) -> int:
        """Point a fresh row at an already-written shared block chain.

        ``full_ids`` are full shared blocks adopted *by reference*;
        ``tail_id`` (optional) is a partially-filled shared block whose
        first ``tail_keep`` tokens the row reuses — adopted copy-on-write
        through the format's :meth:`_adopt_tail`, since the row will keep
        writing into that block.  Returns the row's resulting token
        length.
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
        ids = list(full_ids)
        if tail_id is not None:
            ids += self._adopt_tail(row, tail_id, tail_keep)
        width = self._tables.shape[1]
        if len(ids) > width:
            wider = np.zeros((self.batch, max(len(ids), 2 * width)),
                             dtype=np.int64)
            wider[:, :width] = self._tables
            self._tables = wider
        self._tables[row, :len(ids)] = ids
        self._blocks_per_row[row] = len(ids)
        self._invalidate_ids_memo()
        length = len(full_ids) * self.block_size + tail_keep
        self._row_len[row] = length
        return length

    def _adopt_tail(self, row: int, tail_id: int, tail_keep: int
                    ) -> list[int]:
        """COW the shared tail into private writable storage; returns any
        blocks to append to the row's chain.  FP32: a block copy."""
        return [self.copy_block(tail_id)]

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
        a block whose last reference drops returns to the free list,
        which also invalidates any dequantized memo of it
        (:meth:`_on_block_freed`).  Slots beyond ``lengths`` inside the
        kept blocks keep their stale values — per-row masks hide them
        and later writes overwrite them, the same contract stale table
        slots already live under.
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        for row, keep in zip(rows, lengths):
            row, keep = int(row), int(keep)
            if keep < 0:
                raise ValueError("cannot truncate a row below zero tokens")
            if keep >= self._row_len[row]:
                continue  # nothing to roll back
            have = int(self._blocks_per_row[row])
            need = min(have, self._blocks_kept(keep))
            if need < have:
                self.release_blocks(self._tables[row, need:have])
                self._blocks_per_row[row] = need
            self._row_len[row] = keep
        self._invalidate_ids_memo()

    def _blocks_kept(self, keep: int) -> int:
        """Pool blocks a row still owns at ``keep`` tokens.  FP32 keeps
        every block the prefix touches — partial blocks live in the pool."""
        return int(_blocks_needed(keep, self.block_size))

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
        (:meth:`_resolve_token_write`); the others only scatter.
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
        self._write_token(layer, k, v, plan)
        self._ids_memo[key] = plan  # a flush inside the write cleared it
        self._lengths[layer] = max(self._lengths[layer], plan[0])

    def _resolve_token_write(self, row_idx: np.ndarray,
                             positions: np.ndarray) -> tuple:
        """A forward's first :meth:`write_token`: grow the rows' block
        tables and resolve ``(context width, block ids, slots)``."""
        blocks = positions // self.block_size
        self._ensure_row_blocks(row_idx, blocks + 1)
        return (int(positions.max()) + 1, self._tables[row_idx, blocks],
                positions % self.block_size)

    def _write_token(self, layer: int, k: np.ndarray, v: np.ndarray,
                     plan: tuple) -> None:
        _top, ids, slots = plan
        self._pool_k[layer][ids, :, slots] = k[:, :, 0]
        self._pool_v[layer][ids, :, slots] = v[:, :, 0]

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
        per forward (:meth:`_resolve_span_write`); every layer copies
        the same segments.
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
        self._write_span(layer, k, v, plan)
        self._ids_memo[key] = plan  # a flush inside the write cleared it
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
        """A forward's first :meth:`prefill_rows`: grow the block tables
        and resolve every segment to its pool block.  Returns ``(context
        width, segments)``."""
        self._ensure_row_blocks(rows, _blocks_needed(starts + lens,
                                                     self.block_size))
        return int((starts + lens).max()), [
            (j, int(self._tables[row, block]), lo, take, src)
            for j, row, block, lo, take, src
            in self._span_segments(rows, starts, lens)]

    def _write_span(self, layer: int, k: np.ndarray, v: np.ndarray,
                    plan: tuple) -> None:
        pool_k, pool_v = self._pool_k[layer], self._pool_v[layer]
        for j, block_id, lo, take, src in plan[1]:
            pool_k[block_id, :, lo:lo + take] = k[j, :, src:src + take]
            pool_v[block_id, :, lo:lo + take] = v[j, :, src:src + take]

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
        """``(reader rows, live tokens, chunks)`` of a ``total``-token
        read.  Each chunk is ``(first block, index)`` where
        ``index[r, h, b] = block id * heads + h`` addresses the pool's
        free ``(blocks * heads, block, head_dim)`` view, so one ``take``
        lands the chunk as ``(rows, heads, blocks, block, head_dim)`` —
        the layout attention multiplies, no transposed copy."""
        nblk = _blocks_needed(total, self.block_size)
        ids = self._block_ids(nblk, rows)
        row_idx = self._row_index if rows is None \
            else np.asarray(rows, dtype=np.int64)
        # Streamed bytes count the rows' *real* context tokens, the
        # population ``used_bytes`` counts (ragged rows also gather
        # padding blocks, which the accelerator projection must not
        # charge).
        live = int(np.minimum(self._row_len[row_idx], total).sum())
        index = ids[:, None, :] * self._heads \
            + np.arange(self._heads)[None, :, None]
        cb = self.chunk_blocks
        return len(row_idx), live, [
            (b0, np.ascontiguousarray(index[:, :, b0:b0 + cb]))
            for b0 in range(0, nblk, cb)]

    def context_chunk_pair(self, layer: int, rows: np.ndarray | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Single-chunk K/V read (context fits one chunk window): the
        one chunk of :meth:`context_blocks`, sliced to the context —
        exactly the values the tests' dense-gather oracle returns.  The
        arrays live in the cache's chunk buffers and are only valid
        until the next read.
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

        One ``take`` per operand gathers the chunk straight into the
        attended layout (see :meth:`_resolve_read`) in the cache's two
        chunk buffers — K in one, V in the other, reused by every chunk,
        layer and step, since fresh ~MB temporaries get trimmed off the
        heap and page-faulted back in on every call.  A chunk is
        therefore only valid until the iteration advances.
        """
        total = self._lengths[layer]
        if _reach is not None:
            total = min(total, _reach)
        if total == 0:
            return
        bs, heads, head_dim = self.block_size, self._heads, self._head_dim
        n, live, chunks = self._read_plan(total, rows)
        pools = {"k": ((0, self._pool_k[layer]),),
                 "v": ((1, self._pool_v[layer]),),
                 "kv": ((0, self._pool_k[layer]),
                        (1, self._pool_v[layer]))}[kind]
        self._read_stats.streamed_bytes += len(pools) * heads * head_dim \
            * 4 * live
        buffers = self._chunk_buffers(n)
        window = self._window_floats(n)
        cb = self.chunk_blocks
        for b0, index in chunks:
            c = index.shape[2]
            out, scratch = [], 0
            for slot, pool in pools:
                view = pool.reshape(-1, bs, head_dim)
                if pad and c < cb:
                    part = view.take(index, axis=0)
                    chunk = buffers[slot, :window].reshape(
                        n, heads, cb * bs, head_dim)
                    chunk[:, :, :c * bs] = part.reshape(n, heads, c * bs,
                                                        head_dim)
                    chunk[:, :, c * bs:] = 0.0
                    scratch += part.nbytes
                else:
                    # mode="clip" (the ids are valid): the default
                    # "raise" makes take stage ``out`` through a buffer.
                    chunk = np.take(
                        view, index, axis=0, mode="clip",
                        out=buffers[slot, :index.size * bs * head_dim]
                        .reshape(index.shape + (bs, head_dim))
                    ).reshape(n, heads, c * bs, head_dim)
                scratch += chunk.nbytes
                out.append(chunk)
            self._note_scratch(scratch)
            yield (b0 * bs, *out)

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

    def used_bytes(self) -> int:
        """Bytes storing the currently cached tokens (FP32 here).

        Logical accounting: with prefix sharing a block read by many rows
        is counted once per reader (this is what decode gathers stream);
        :meth:`physical_used_bytes` counts each resident block once.
        """
        if self._heads is None:
            return 0
        per_token = 2 * self._heads * self._head_dim * 4
        return self.num_layers * per_token * self.cached_tokens

    def physical_used_bytes(self) -> int:
        """Bytes of blocks holding at least one reference (each counted
        once, however many rows alias it) — the resident cache footprint
        prefix sharing actually shrinks."""
        if self._heads is None:
            return 0
        block_bytes = self._heads * self.block_size * self._head_dim * 4
        held = self._total_blocks - len(self._free)
        return self.num_layers * 2 * held * block_bytes

    def allocated_bytes(self) -> int:
        """Physical pool footprint, free blocks included."""
        if self._heads is None:
            return 0
        block_bytes = self._heads * self.block_size * self._head_dim * 4
        return self.num_layers * 2 * self._total_blocks * block_bytes


class QuantizedPagedKVCache(PagedKVCache):
    """Paged cache whose full blocks are stored in the FineQ format.

    Storage per layer: ``payload`` pools of packed 6-bit cluster codes
    (uint8) plus FP16 per-channel scale pools for K and V, and one FP32
    write buffer of ``(batch, heads, block, head_dim)`` holding every
    row's current block.  A row's block is quantized in one shot when the
    row writes the first token of its *next* block, so ``block_size`` is
    also the exactness horizon: the newest ``<= block_size`` tokens of
    each row always read back bit-exact.

    ``_blocks_per_row`` counts *quantized* blocks only; the current
    block lives in the write buffer and owns no pool block yet.

    The flush happens once per boundary crossing, not once per layer:
    when a row writes slot 0 of block ``b``, block ``b - 1`` is complete
    in every layer's buffer (the previous step wrote them all), so the
    first layer of the forward to see the crossing quantizes all layers'
    K and V in one kernel call (:meth:`_flush`) and writes the
    dequantized values through into the :class:`DequantBlockCache` —
    the step's own reads of the block it has just encoded then hit the
    memo instead of decoding the payload back.

    ``dequant_cache_bytes`` budgets the :class:`DequantBlockCache` the
    block-resident reads go through (under ``0`` the memo pins nothing —
    every read spills and re-runs the LUT dequant).
    """

    def __init__(self, num_layers: int, batch: int,
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 initial_blocks: int | None = None,
                 max_blocks: int | None = None,
                 chunk_blocks: int = DEFAULT_CHUNK_BLOCKS,
                 dequant_cache_bytes: int = DEFAULT_DEQUANT_CACHE_BYTES):
        self.dequant_cache_bytes = dequant_cache_bytes
        # Exclusive end position of the tokens each layer's write buffer
        # holds for each row (0 = empty).  It names both the buffered
        # block and how full it is, per layer: layers write one after
        # another within a forward, and direct callers may lag further.
        self._buf_end = np.zeros((num_layers, batch), dtype=np.int64)
        super().__init__(num_layers, batch, block_size=block_size,
                         initial_blocks=initial_blocks,
                         max_blocks=max_blocks, chunk_blocks=chunk_blocks)

    def _setup_layers(self) -> None:
        bs = self.block_size
        clusters = _blocks_needed(bs, 3)
        groups = _blocks_needed(clusters, CLUSTERS_PER_GROUP)
        self._channels = self._heads * self._head_dim
        self._payload_bytes = groups * GROUP_BYTES
        layers = self.num_layers
        self._payload_k: list[np.ndarray | None] = [None] * layers
        self._payload_v: list[np.ndarray | None] = [None] * layers
        self._scale_k: list[np.ndarray | None] = [None] * layers
        self._scale_v: list[np.ndarray | None] = [None] * layers
        buf_shape = (layers, self.batch, self._heads, bs, self._head_dim)
        self._buf_k = np.zeros(buf_shape, dtype=np.float32)
        self._buf_v = np.zeros(buf_shape, dtype=np.float32)
        #: The dequantized-block memo (built with the first write).
        self.dequant_cache = DequantBlockCache(
            layers, self._heads, bs, self._head_dim, self.dequant_cache_bytes)

    def _on_block_freed(self, block: int) -> None:
        self.dequant_cache.invalidate(block)

    def _grow_layer(self, layer: int, new_total: int) -> None:
        specs = (
            (self._payload_k, (self._channels, self._payload_bytes), np.uint8),
            (self._payload_v, (self._channels, self._payload_bytes), np.uint8),
            (self._scale_k, (self._channels,), np.float16),
            (self._scale_v, (self._channels,), np.float16),
        )
        for pool, tail, dtype in specs:
            old = pool[layer]
            new = np.zeros((new_total,) + tail, dtype=dtype)
            if old is not None:
                new[:old.shape[0]] = old
            pool[layer] = new

    # ------------------------------------------------------------------ #
    # write paths
    # ------------------------------------------------------------------ #
    def _flush(self, layers: np.ndarray, ids: np.ndarray,
               k_blocks: np.ndarray, v_blocks: np.ndarray,
               memoise: bool = True) -> None:
        """Quantize complete blocks into the pools in one kernel call.

        ``k_blocks[i]``/``v_blocks[i]`` are the FP32 ``(heads, block,
        head_dim)`` contents of pool block ``ids[i]`` of layer
        ``layers[i]`` (``layers`` ascending).  K and V of every layer go
        through a single :func:`quantize_kv_block` — channels are
        independent, so batching is bit-exact — and, with ``memoise``,
        the dequantized values the kernel already holds are written
        through into the dequant memo, so reading a block the step has
        just encoded never decodes it back.  A filled entry stands in
        for the miss that block's first read would have taken, so it is
        charged the payload+scale fetch that miss would have streamed.
        """
        count = len(ids)
        encoded = quantize_kv_block(np.concatenate([k_blocks, v_blocks]),
                                    with_values=memoise)
        payload = encoded[0].reshape(2, count, self._channels, -1)
        scales = encoded[1].reshape(2, count, self._channels)
        bounds = np.searchsorted(layers, np.arange(self.num_layers + 1))
        for layer in range(self.num_layers):
            lo, hi = bounds[layer], bounds[layer + 1]
            if lo < hi:
                at = ids[lo:hi]
                self._payload_k[layer][at] = payload[0, lo:hi]
                self._payload_v[layer][at] = payload[1, lo:hi]
                self._scale_k[layer][at] = scales[0, lo:hi]
                self._scale_v[layer][at] = scales[1, lo:hi]
        stats = self._read_stats
        stats.flush_calls += 1
        stats.flush_blocks += 2 * count
        if memoise:
            filled = self.dequant_cache.fill(layers, ids, encoded[2][:count],
                                        encoded[2][count:])
            stats.streamed_bytes += filled * 2 * self._channels \
                * (self._payload_bytes + 2)
        else:
            self.dequant_cache.invalidate(ids, layers)

    # ------------------------------------------------------------------ #
    # block sharing (prefix reuse / copy-on-write, quantized format)
    # ------------------------------------------------------------------ #
    def share_block(self, row: int, depth: int, fill: int) -> int:
        """Reference (or freeze) block ``depth`` of ``row`` for sharing.

        Blocks the row has already quantized are immutable, so they are
        shared by reference like the FP32 cache's.  The row's *current*
        block lives only in its FP32 write buffer; sharing it quantizes a
        snapshot of its first ``fill`` tokens (zero-padded so garbage
        beyond ``fill`` cannot inflate the channel scales) into a fresh
        pool block owned by the caller.  The shared prefix is therefore
        always served in the paper's 2.33-bit format — quantized once,
        dequantized by every reader.
        """
        owned = int(self._blocks_per_row[row])
        if depth < owned:
            return super().share_block(row, depth, self.block_size)
        if depth != owned:
            raise ValueError(f"row {row} has no content at block {depth}")
        buffered = int(self._row_len[row]) - owned * self.block_size
        if not 0 < fill <= buffered:
            raise ValueError(f"row {row} buffers {buffered} tokens; "
                             f"cannot freeze {fill}")
        block = self._take_block()
        keep = (np.arange(self.block_size) < fill)[:, None]
        # A partial block is only ever adopted copy-on-write (dequantized
        # into the adopter's buffer), never read through the memo.
        self._flush(np.arange(self.num_layers),
                    np.full(self.num_layers, block),
                    self._buf_k[:, row] * keep, self._buf_v[:, row] * keep,
                    memoise=fill == self.block_size)
        return block

    def adopt_prefix(self, row: int, full_ids, tail_id: int | None = None,
                     tail_keep: int = 0) -> int:
        length = super().adopt_prefix(row, full_ids, tail_id, tail_keep)
        # A block-aligned match leaves every layer's buffer empty; an
        # adopted tail was dequantized into them.
        self._buf_end[:, row] = length if length % self.block_size else 0
        return length

    def _adopt_tail(self, row: int, tail_id: int, tail_keep: int
                    ) -> list[int]:
        """COW in the quantized format: the shared partial block is
        *dequantized into the row's FP32 write buffer* — the quantized
        analogue of a block copy — so the row can keep appending suffix
        tokens to the partially-filled block without touching the shared
        original (which stays quantized-once for its other readers).  No
        pool block joins the row's chain; the buffer is the current
        block."""
        bs = self.block_size
        layers = range(self.num_layers)
        payload = np.stack([pool[layer][tail_id] for pool in
                            (self._payload_k, self._payload_v)
                            for layer in layers])
        scales = np.stack([pool[layer][tail_id] for pool in
                           (self._scale_k, self._scale_v)
                           for layer in layers])
        channels = dequantize_kv_channels(
            payload.reshape(-1, self._payload_bytes), scales.reshape(-1), bs)
        self._buf_k[:, row], self._buf_v[:, row] = channels.reshape(
            2, self.num_layers, self._heads, self._head_dim, bs
        ).transpose(0, 1, 2, 4, 3)
        return []

    def _resolve_span_write(self, layer: int, rows: np.ndarray,
                            starts: np.ndarray, lens: np.ndarray) -> tuple:
        """Span writes pass every block — the final, possibly partial
        one included — through the FP32 write buffer, and quantize each
        block the moment the span completes it.  Only a ragged tail
        (``end`` off a block boundary) stays buffered, so it reads back
        bit-exact after a prefill, same as after decode.

        The eager flush at the span's end is what keeps *chunked*
        prefill bit-identical to one-shot: a chunk ending exactly on a
        block boundary must leave the same storage state (block
        quantized) the one-shot span produces when it rolls past that
        boundary — otherwise the next chunk's attention would read the
        block exact FP32 where the one-shot run reads it dequantized.

        Speculative verify writes do *not* come through here: they run
        as clone-rows decode through :meth:`write_token`, whose lazy
        flush keeps each verify query's own block in the FP32 buffer
        (and whose GEMM-feeding values are bitwise the ones sequential
        decode produces).

        Returns ``(context width, segments, flush ids, crossing rows,
        crossing starts, written rows, buffer ends)``: segments are
        ``(j, row, lo, take, src, completes)`` buffer copies, ``flush
        ids`` the pool blocks the completing ones quantize into."""
        bs = self.block_size
        # A span that opens a new block behind a lazily buffered one (a
        # decode that stopped exactly on the boundary) flushes it first,
        # as write_token would, before the span overwrites the buffer.
        opens = (lens > 0) & (starts > 0) & (starts % bs == 0)
        self._flush_if_crossing(layer, rows[opens], starts[opens])
        ends = starts + lens
        wrote = lens > 0
        self._ensure_row_blocks(rows[wrote], ends[wrote] // bs)
        segments, flush_ids = [], []
        for j, row, block, lo, take, src \
                in self._span_segments(rows, starts, lens):
            segments.append((j, row, lo, take, src, lo + take == bs))
            if lo + take == bs:
                flush_ids.append(self._tables[row, block])
        return (int(ends.max()), segments,
                np.asarray(flush_ids, dtype=np.int64), rows[opens],
                starts[opens], rows[wrote],
                np.where(ends % bs, ends, 0)[wrote])

    def _write_span(self, layer: int, k: np.ndarray, v: np.ndarray,
                    plan: tuple) -> None:
        _top, segments, flush_ids, open_rows, open_starts, wrote, buf_ends \
            = plan
        self._flush_if_crossing(layer, open_rows, open_starts)
        buf_k, buf_v = self._buf_k[layer], self._buf_v[layer]
        flush_k, flush_v = [], []
        for j, row, lo, take, src, completes in segments:
            buf_k[row, :, lo:lo + take] = k[j, :, src:src + take]
            buf_v[row, :, lo:lo + take] = v[j, :, src:src + take]
            if completes:  # quantize the block the span just filled
                flush_k.append(buf_k[row].copy())
                flush_v.append(buf_v[row].copy())
        self._buf_end[layer, wrote] = buf_ends
        if flush_k:
            # Other layers do not hold these tokens yet, so a span
            # flushes per layer — K and V together.
            self._flush(np.full(len(flush_ids), layer), flush_ids,
                        np.stack(flush_k), np.stack(flush_v))

    # ------------------------------------------------------------------ #
    # speculative-decoding rollback (quantized format)
    # ------------------------------------------------------------------ #
    def _blocks_kept(self, keep: int) -> int:
        """Quantized rows keep ``(keep - 1) // block_size`` pool blocks:
        the block holding token ``keep - 1`` lives in the FP32 write
        buffer (lazy-flush invariant), never in the pool."""
        return 0 if keep == 0 else (keep - 1) // self.block_size

    def truncate_rows(self, rows, lengths) -> None:
        """Quantized rollback is exact only inside the buffered block:
        pool blocks are lossy, so a row cannot roll back into one it has
        already flushed (dropping the row, ``0``, is always fine).  The
        engine's boundary-chunked verify never asks for that."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
        for row, keep in zip(rows, lengths):
            if 0 < keep < self._row_len[row] \
                    and self._blocks_kept(int(keep)) \
                    < self._blocks_per_row[row]:
                raise ValueError(
                    f"row {row} cannot roll back to {keep} tokens: below "
                    f"its buffered block, flushed blocks are lossy")
        super().truncate_rows(rows, lengths)
        # Buffers hold nothing past the kept tokens.
        self._buf_end[:, rows] = np.minimum(self._buf_end[:, rows],
                                            self._row_len[rows])

    def free_rows(self, rows: np.ndarray) -> None:
        super().free_rows(rows)
        self._buf_end[:, np.asarray(rows, dtype=np.int64).reshape(-1)] = 0

    def _resolve_token_write(self, row_idx: np.ndarray,
                             positions: np.ndarray) -> tuple:
        """``(context width, rows, buffer slots, buffer ends, rows
        opening a block, their positions)``: tokens land in the write
        buffers, so no block table is read."""
        slots = positions % self.block_size
        opens = (slots == 0) & (positions > 0)
        return (int(positions.max()) + 1, row_idx, slots, positions + 1,
                row_idx[opens], positions[opens])

    def _write_token(self, layer: int, k: np.ndarray, v: np.ndarray,
                     plan: tuple) -> None:
        _top, row_idx, slots, ends, open_rows, open_positions = plan
        # A row starting block b quantizes block b-1 first — if this
        # layer's buffer still holds it, complete (``_buf_end`` equal to
        # the position being written).  Rows whose previous block is
        # already in the pool have an empty buffer and skip: adopted
        # (a shared, block-aligned prefix match — flushing would
        # overwrite the shared block), flushed eagerly by a span write,
        # or flushed a moment ago, on this layer's behalf, by the first
        # layer of the forward to see the crossing.
        self._flush_if_crossing(layer, open_rows, open_positions)
        self._buf_k[layer][row_idx, :, slots] = k[:, :, 0]
        self._buf_v[layer][row_idx, :, slots] = v[:, :, 0]
        # Clone-rows verify repeats a row at ascending positions; the
        # last (highest) assignment wins.
        self._buf_end[layer, row_idx] = ends

    def _flush_if_crossing(self, layer: int, rows: np.ndarray,
                           positions: np.ndarray) -> None:
        """``rows`` are about to write slot 0 of a new block at
        ``positions``: flush the complete block ``layer``'s buffer
        still holds for any of them (:meth:`_flush_crossing`)."""
        if len(rows):
            crossing = self._buf_end[layer, rows] == positions
            if crossing.any():
                self._flush_crossing(rows[crossing], positions[crossing])

    def _flush_crossing(self, rows: np.ndarray, positions: np.ndarray
                        ) -> None:
        """``rows`` write slot 0 of a new block at ``positions``: flush
        the complete block each one leaves behind — once, for all layers.

        Every layer whose buffer holds that same complete block goes
        into the one kernel call.  In a model forward that is all of
        them (the previous step filled every layer's buffer), so the
        layers after the first find theirs already flushed; a layer that
        genuinely lags — a direct caller driving one layer at a time —
        is left out and flushes when its own write gets here.
        """
        block_index = positions // self.block_size - 1
        self._ensure_row_blocks(rows, block_index + 1)
        ids = self._tables[rows, block_index]
        layers, col = np.nonzero(self._buf_end[:, rows] == positions)
        at = rows[col]
        self._flush(layers, ids[col], self._buf_k[layers, at],
                    self._buf_v[layers, at])
        self._buf_end[layers, at] = 0

    # ------------------------------------------------------------------ #
    # read path
    # ------------------------------------------------------------------ #
    def _dequant_kind(self, layer: int, ids: np.ndarray, kind: str
                      ) -> np.ndarray:
        """Dequantize pool blocks ``ids`` of one layer/operand into
        ``(len(ids), heads, block, head_dim)`` float32 — the exact values
        (and op order) of the tests' dense-gather oracle."""
        payload_pool = (self._payload_k if kind == "k"
                        else self._payload_v)[layer]
        scale_pool = (self._scale_k if kind == "k" else self._scale_v)[layer]
        channels = dequantize_kv_channels(
            payload_pool[ids].reshape(-1, self._payload_bytes),
            scale_pool[ids].reshape(-1), self.block_size)
        return channels.reshape(len(ids), self._heads, self._head_dim,
                                self.block_size).transpose(0, 1, 3, 2)

    def _dequant_pair(self, layer: int, ids: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """K and V dequantized together (a dequant-cache miss fills both,
        so the sibling operand pass hits)."""
        return (self._dequant_kind(layer, ids, "k"),
                self._dequant_kind(layer, ids, "v"))

    def _resolve_read(self, total: int, rows: np.ndarray | None) -> tuple:
        """``(reader rows, chunks)`` of a ``total``-token read: per chunk
        the owned block ids (``-1`` where a row owns nothing — its
        buffered current block, stale or padding table slots — which
        reads as zeros until overlaid), the same ids padded to a full
        window of columns, how many are owned, and the write-buffer
        overlay: which readers' current block falls in the chunk, their
        cache rows, the block's offset and their buffered token sum."""
        bs, cb = self.block_size, self.chunk_blocks
        nblk = _blocks_needed(total, bs)
        row_idx = self._row_index if rows is None \
            else np.asarray(rows, dtype=np.int64)
        owned_counts = self._blocks_per_row[row_idx]
        row_lens = self._row_len[row_idx]
        # Overlay only rows that actually hold buffered tokens: a row
        # whose context is entirely adopted quantized blocks (a
        # block-aligned prefix match) has an empty buffer, and overlaying
        # it would mask its newest shared block with stale data.
        buffered = row_lens - owned_counts * bs
        current = np.where(buffered > 0, (row_lens - 1) // bs, -1)
        owned_ids = np.where(np.arange(nblk) < owned_counts[:, None],
                             self._block_ids(nblk, rows), -1)
        chunks = []
        for b0 in range(0, nblk, cb):
            c = min(cb, nblk - b0)
            padded = np.full((len(row_idx), cb), -1, dtype=np.int64)
            padded[:, :c] = owned_ids[:, b0:b0 + c]
            in_chunk = np.nonzero((current >= b0) & (current < b0 + c))[0]
            chunks.append((b0, np.ascontiguousarray(padded[:, :c]), padded,
                           int(np.count_nonzero(padded >= 0)), in_chunk,
                           row_idx[in_chunk], current[in_chunk] - b0,
                           int(buffered[in_chunk].sum())))
        return len(row_idx), chunks

    def context_blocks(self, layer: int, rows: np.ndarray | None = None,
                       kind: str = "k", pad: bool = False,
                       _reach: int | None = None):
        """Chunked context iteration in the quantized format.

        Owned blocks are served from the :class:`DequantBlockCache`
        (flushes write their values through, anything else missing
        dequantizes once and is memoised — a block shared by many rows
        decodes once per chunk, and once *ever* while it stays
        cache-resident); each live row's FP32 current block is overlaid
        on its chunk, so chunk values are bit-identical to the tests'
        dense-gather oracle's.  Which ids a chunk reads and which
        buffers overlay it is this forward's read resolution
        (:meth:`_resolve_read`); per layer the ids resolve to memo slots
        once, for both operands under ``kind="kv"``, and each operand is
        one gather straight into the ``(rows, heads, blocks, block,
        head_dim)`` chunk attention consumes.  Unowned table slots read
        the memo's zero entry, and so do the ``-1`` columns ``pad``
        widens the final chunk with.  ``_reach`` ends the read, its
        lookups and its stats at the span's last visible key.
        """
        total = self._lengths[layer]
        if _reach is not None:
            total = min(total, _reach)
        if total == 0:
            return
        bs = self.block_size
        heads, head_dim = self._heads, self._head_dim
        kinds = ("k", "v") if kind == "kv" else (kind,)
        n, chunks = self._read_plan(total, rows)
        bufs = {"k": self._buf_k[layer], "v": self._buf_v[layer]}
        stats = self._read_stats
        operand_bytes = self._channels * (self._payload_bytes + 2)
        for b0, sel, padded, reads, in_chunk, in_rows, offsets, buffered \
                in chunks:
            if pad:
                sel = padded
            shape = (n, heads, sel.shape[1], bs, head_dim)
            if not reads:
                blocks = [np.zeros(shape, dtype=np.float32) for _ in kinds]
            else:
                blocks, missed, paired = self.dequant_cache.lookup(
                    layer, sel, kind,
                    lambda miss: self._dequant_pair(layer, miss),
                    lambda miss: self._dequant_kind(layer, miss, kind))
                if kind != "kv":
                    blocks = (blocks,)
                # Per operand, as two passes would count: a pinned miss
                # serves the sibling operand from the memo, one the
                # budget could not pin misses again there.
                spilled = (missed - paired) * (len(kinds) - 1)
                stats.dequant_hits += len(kinds) * reads - missed - spilled
                stats.dequant_misses += missed + spilled
                # Pinned misses fetched K and V payloads at once;
                # spilled ones only the operands asked for.
                stats.streamed_bytes += operand_bytes * (
                    2 * paired + len(kinds) * (missed - paired))
            if len(in_chunk):
                for kd, chunk in zip(kinds, blocks):
                    chunk[in_chunk, :, offsets] = bufs[kd][in_rows]
                # Write-buffer reads stream the live buffered tokens
                # (matching used_bytes' FP32 accounting), not the whole
                # block's padding.
                stats.streamed_bytes += len(kinds) * heads * head_dim * 4 \
                    * buffered
            self._note_scratch(sum(chunk.nbytes for chunk in blocks))
            yield (b0 * bs, *(chunk.reshape(n, heads, sel.shape[1] * bs,
                                            head_dim) for chunk in blocks))

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    def used_bytes(self) -> int:
        """Bytes storing the cached tokens: FineQ payload + FP16 scales
        for quantized blocks, FP32 for tokens still in write buffers."""
        if self._heads is None:
            return 0
        qblock = self._channels * (self._payload_bytes + 2)
        buffered = int((self._row_len
                        - self._blocks_per_row * self.block_size).sum())
        per_buffered_token = self._heads * self._head_dim * 4
        return self.num_layers * 2 * (self.blocks_in_use() * qblock
                                      + buffered * per_buffered_token)

    def physical_used_bytes(self) -> int:
        """Resident bytes: each referenced quantized block once (however
        many rows alias it) plus the FP32 tokens still in write buffers."""
        if self._heads is None:
            return 0
        qblock = self._channels * (self._payload_bytes + 2)
        held = self._total_blocks - len(self._free)
        buffered = int((self._row_len
                        - self._blocks_per_row * self.block_size).sum())
        per_buffered_token = self._heads * self._head_dim * 4
        return self.num_layers * 2 * (held * qblock
                                      + buffered * per_buffered_token)

    def allocated_bytes(self) -> int:
        if self._heads is None:
            return 0
        qblock = self._channels * (self._payload_bytes + 2)
        buffers = self.batch * self._heads * self.block_size * self._head_dim * 4
        return self.num_layers * 2 * (self._total_blocks * qblock + buffers)
