"""Block codecs: how a paged KV cache stores, seals and reads its blocks.

A :class:`~repro.nn.paged_kv_cache.PagedKVCache` owns what every format
shares — block tables, reference counts, row lengths, the per-forward
memo, sharing and rollback, byte accounting.  Its *codec* owns the block
storage and the three data paths over it: the token write, the span
write, and the chunked block-table read :mod:`repro.nn.block_attention`
iterates.  Each path is a *plan*, resolved by the first layer of a
forward (the cache memoises it for the rest), and a per-layer execution.

* :class:`FP32Codec`, the identity codec: a block holds the FP32 values
  written to it, a row's current block is a pool block written in
  place, and sealing a full block is a no-op.
* :class:`FineQCodec`: sealed blocks in the paper's 2.33-bit cluster
  format, extending FineQ's memory story from weights to the KV cache;
  each row's current block lives in an FP32 write buffer.

The FineQ kernels come first: :func:`quantize_kv_block` and
:func:`dequantize_kv_channels` between FP32 blocks and the payload +
scale format of :mod:`repro.core`.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.clusters import CLUSTER_SIZE
from repro.core.encoding import encode_channels
from repro.core.packing import (CLUSTERS_PER_GROUP, GROUP_BYTES,
                                decode_payload, pack_matrix)
from repro.nn.dequant_cache import DequantBlockCache


def quantize_kv_block(blocks: np.ndarray, with_values: bool = False):
    """FineQ-encode ``(n, heads, block, head_dim)`` FP32 K/V blocks.

    Each ``(head, dim)`` pair is a channel; its ``block`` tokens are
    clustered in threes along the token axis and run through the paper's
    pipeline (outlier schemes -> pair harmonization -> Eq. 1 channel
    scale -> grid rounding -> 6-bit packing).  Returns ``(payload,
    scales)`` of shapes ``(n * heads * head_dim, groups * GROUP_BYTES)``
    uint8 and ``(n * heads * head_dim,)`` float16.  Channels are
    independent, so any mix of blocks (K and V, several layers) encodes
    in one call to the bytes separate calls would produce.

    ``with_values=True`` appends the blocks' dequantized values, ``(n,
    heads, block, head_dim)`` float32: the integer codes times the FP16
    scales, bitwise what :func:`dequantize_kv_channels` decodes from the
    returned payload — which lets a flush write them through into the
    :class:`DequantBlockCache` without a decode.
    """
    n, heads, block, head_dim = blocks.shape
    rows = n * heads * head_dim
    num_clusters = -(-block // CLUSTER_SIZE)
    # Stage token-major: one position of one cluster across all channels
    # is then a contiguous vector, the layout the core kernels work in,
    # and the trailing cluster's padding is already zero.
    staged = np.zeros((num_clusters * CLUSTER_SIZE, n, heads, head_dim))
    staged[:block] = np.moveaxis(blocks, 2, 0)
    clusters = staged.reshape(num_clusters, CLUSTER_SIZE, rows) \
                     .transpose(2, 0, 1)
    codes, schemes, scales = encode_channels(clusters)
    packed = pack_matrix(codes, schemes, scales.reshape(-1), (rows, block))
    if not with_values:
        return packed.payload, packed.scales
    tokens = codes.transpose(1, 2, 0).reshape(-1, rows)[:block]
    values = tokens.astype(np.float32) * packed.scales.astype(np.float32)
    return packed.payload, packed.scales, np.moveaxis(
        values.reshape(block, n, heads, head_dim), 0, 2)


def dequantize_kv_channels(payload: np.ndarray, scales: np.ndarray,
                           block_size: int) -> np.ndarray:
    """Inverse of :func:`quantize_kv_block` at the channel-matrix level.

    ``payload``/``scales`` are ``(channels, groups * GROUP_BYTES)`` and
    ``(channels,)``; returns ``(channels, block_size)`` float32.
    """
    codes, _ = decode_payload(payload)
    values = codes.astype(np.float32) * scales.astype(np.float32)[:, None, None]
    return values.reshape(len(payload), -1)[:, :block_size]


class FP32Codec:
    """The identity codec: FP32 pool blocks, written in place.

    The codec protocol, as the cache calls it: ``setup()`` allocates the
    per-layer storage at the first write and publishes ``block_pools``
    (lists of per-layer arrays whose first axis is the block id; the
    cache grows and copies them) and ``block_bytes`` (one sealed block
    of one operand in one layer); ``freed(block)`` hears that a block
    returned to the free list; ``plan_token`` / ``plan_span`` /
    ``read_plan`` resolve a forward's write or read and ``write_token``
    / ``write_span`` / ``read`` run it on one layer; ``adopt`` takes in
    a shared prefix's partial tail copy-on-write; ``shrink`` hears that
    rows were freed or rolled back.  ``buffered`` says where the current
    block lives: here in the pool, so a row owns every block its tokens
    touch, and every block stays writable; a buffering codec also
    provides ``seal_current``, which shares a buffered block.
    """

    buffered = False

    def __init__(self, cache):
        # A proxy: the cache owns its codec, and a strong reference back
        # would leave every retired cache, pools included, to the cycle
        # collector instead of freeing it with its last reference.
        self.cache = weakref.proxy(cache)
        # The two buffers (K, V) the chunk reads gather into (see
        # _chunk_buffers).
        self._chunk_scratch = np.empty((2, 0), dtype=np.float32)

    def setup(self) -> None:
        cache = self.cache
        shape = (0, cache._heads, cache.block_size, cache._head_dim)
        self._pool_k = [np.zeros(shape, np.float32)
                        for _ in range(cache.num_layers)]
        self._pool_v = [np.zeros(shape, np.float32)
                        for _ in range(cache.num_layers)]
        self.block_pools = (self._pool_k, self._pool_v)
        self.block_bytes = cache._heads * cache.block_size \
            * cache._head_dim * 4

    def freed(self, block: int) -> None:
        pass

    def shrink(self, rows: np.ndarray) -> None:
        pass

    def adopt(self, row: int, tail_id: int | None, length: int) -> list[int]:
        """COW a shared partial tail: the row gets a private copy."""
        return [] if tail_id is None else [self.cache.copy_block(tail_id)]

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def plan_token(self, rows: np.ndarray, positions: np.ndarray) -> tuple:
        """Grow the rows' block tables; ``(block ids, slots)``."""
        cache = self.cache
        blocks = positions // cache.block_size
        cache._ensure_row_blocks(rows, blocks + 1)
        return cache._tables[rows, blocks], positions % cache.block_size

    def write_token(self, layer: int, k: np.ndarray, v: np.ndarray,
                    plan: tuple) -> None:
        ids, slots = plan
        self._pool_k[layer][ids, :, slots] = k[:, :, 0]
        self._pool_v[layer][ids, :, slots] = v[:, :, 0]

    def plan_span(self, layer: int, rows: np.ndarray, starts: np.ndarray,
                  lens: np.ndarray) -> list[tuple]:
        """Grow the block tables and resolve every segment to its pool
        block: ``(j, block id, lo, take, src)``."""
        cache = self.cache
        cache._ensure_row_blocks(rows, -(-(starts + lens) // cache.block_size))
        return [(j, int(cache._tables[row, block]), lo, take, src)
                for j, row, block, lo, take, src
                in cache._span_segments(rows, starts, lens)]

    def write_span(self, layer: int, k: np.ndarray, v: np.ndarray,
                   plan: list[tuple]) -> None:
        pool_k, pool_v = self._pool_k[layer], self._pool_v[layer]
        for j, block_id, lo, take, src in plan:
            pool_k[block_id, :, lo:lo + take] = k[j, :, src:src + take]
            pool_v[block_id, :, lo:lo + take] = v[j, :, src:src + take]

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def _window_floats(self, n: int) -> int:
        """Floats in one operand's chunk window for ``n`` reader rows."""
        cache = self.cache
        return n * cache._heads * cache.chunk_blocks * cache.block_size \
            * cache._head_dim

    def _chunk_buffers(self, n: int) -> np.ndarray:
        """The two reusable chunk buffers: one window each for the
        cache's batch, allocated at the first read (reading more rows
        than the cache has — repeated ``rows`` — is the only case that
        reallocates)."""
        floats = self._window_floats(max(n, self.cache.batch))
        if self._chunk_scratch.shape[1] < floats:
            self._chunk_scratch = np.empty((2, floats), dtype=np.float32)
        return self._chunk_scratch

    def read_plan(self, total: int, rows: np.ndarray, ids: np.ndarray
                  ) -> tuple:
        """``(live tokens, chunks)``.  Each chunk is ``(first block,
        index)`` where ``index[r, h, b] = block id * heads + h``
        addresses the pool's free ``(blocks * heads, block, head_dim)``
        view, so one ``take`` lands the chunk as ``(rows, heads, blocks,
        block, head_dim)`` — the layout attention multiplies, no
        transposed copy."""
        cache = self.cache
        # Streamed bytes count the rows' *real* context tokens, the
        # population ``used_bytes`` counts (ragged rows also gather
        # padding blocks, which the accelerator projection must not
        # charge).
        live = int(np.minimum(cache._row_len[rows], total).sum())
        index = ids[:, None, :] * cache._heads \
            + np.arange(cache._heads)[None, :, None]
        cb = cache.chunk_blocks
        return live, [(b0, np.ascontiguousarray(index[:, :, b0:b0 + cb]))
                      for b0 in range(0, ids.shape[1], cb)]

    def read(self, layer: int, n: int, plan: tuple, kind: str, pad: bool):
        """One ``take`` per operand gathers each chunk straight into the
        attended layout, in the two chunk buffers — K in one, V in the
        other, reused by every chunk, layer and step, since fresh ~MB
        temporaries get trimmed off the heap and page-faulted back in on
        every call."""
        cache = self.cache
        bs, heads, head_dim = cache.block_size, cache._heads, cache._head_dim
        live, chunks = plan
        pools = {"k": ((0, self._pool_k[layer]),),
                 "v": ((1, self._pool_v[layer]),),
                 "kv": ((0, self._pool_k[layer]),
                        (1, self._pool_v[layer]))}[kind]
        cache._read_stats.streamed_bytes += len(pools) * heads * head_dim \
            * 4 * live
        buffers = self._chunk_buffers(n)
        window = self._window_floats(n)
        cb = cache.chunk_blocks
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
            cache._note_scratch(scratch)
            yield (b0 * bs, *out)


class FineQCodec:
    """Sealed blocks in the FineQ format; current blocks buffered in FP32.

    Storage per layer: pools of packed 6-bit cluster codes (uint8) and
    FP16 per-channel scales for K and V — cluster-of-3 codes with a
    shared 2-bit pair index and one scale per ``(head, dim)`` channel,
    clustered along the token axis — and one FP32 write buffer of
    ``(batch, heads, block, head_dim)`` holding every row's current
    block.  A row's pool blocks are its *sealed* blocks only.  Decode
    seals a block lazily, when the row writes the first token of its
    next one, so ``block_size`` is the exactness horizon: the newest
    ``<= block_size`` tokens of each row read back bit-exact.  A span
    seals every block it completes at once (:meth:`plan_span`).  Sealed
    blocks are lossy, so a row can only roll back inside its buffered
    block.

    The seal happens once per boundary crossing, not once per layer: in
    a forward, the first layer to see a crossing quantizes every layer's
    K and V in one kernel call (:meth:`_seal_crossing`) and writes the
    dequantized values through into the :class:`DequantBlockCache` the
    reads go through — so the step's own reads of the block it has just
    encoded hit the memo instead of decoding the payload back.
    ``budget_bytes`` sizes that memo (under ``0`` it pins nothing —
    every read spills and re-runs the LUT dequant).
    """

    buffered = True

    def __init__(self, cache, budget_bytes: int):
        self.cache = weakref.proxy(cache)  # see FP32Codec.__init__
        self.budget_bytes = budget_bytes
        # Exclusive end position of the tokens each layer's write buffer
        # holds for each row (0 = empty).  It names both the buffered
        # block and how full it is, per layer: layers write one after
        # another within a forward, and direct callers may lag further.
        self._buf_end = np.zeros((cache.num_layers, cache.batch),
                                 dtype=np.int64)

    def setup(self) -> None:
        cache, layers = self.cache, self.cache.num_layers
        bs, heads, head_dim = cache.block_size, cache._heads, cache._head_dim
        groups = -(-(-(-bs // CLUSTER_SIZE)) // CLUSTERS_PER_GROUP)
        self._channels = heads * head_dim
        self._payload_bytes = groups * GROUP_BYTES
        self.block_bytes = self._channels * (self._payload_bytes + 2)
        payload = (0, self._channels, self._payload_bytes)
        scale = (0, self._channels)
        self._payload_k = [np.zeros(payload, np.uint8) for _ in range(layers)]
        self._payload_v = [np.zeros(payload, np.uint8) for _ in range(layers)]
        self._scale_k = [np.zeros(scale, np.float16) for _ in range(layers)]
        self._scale_v = [np.zeros(scale, np.float16) for _ in range(layers)]
        self.block_pools = (self._payload_k, self._payload_v,
                            self._scale_k, self._scale_v)
        buf_shape = (layers, cache.batch, heads, bs, head_dim)
        self._buf_k = np.zeros(buf_shape, dtype=np.float32)
        self._buf_v = np.zeros(buf_shape, dtype=np.float32)
        #: The dequantized-block memo.
        self.dequant_cache = DequantBlockCache(layers, heads, bs, head_dim,
                                               self.budget_bytes)

    def freed(self, block: int) -> None:
        self.dequant_cache.invalidate(block)

    def shrink(self, rows: np.ndarray) -> None:
        """Buffers hold nothing past the rows' kept tokens."""
        self._buf_end[:, rows] = np.minimum(self._buf_end[:, rows],
                                            self.cache._row_len[rows])

    # ------------------------------------------------------------------ #
    # seal
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
        bounds = np.searchsorted(layers, np.arange(self.cache.num_layers + 1))
        for layer in range(self.cache.num_layers):
            lo, hi = bounds[layer], bounds[layer + 1]
            if lo < hi:
                at = ids[lo:hi]
                self._payload_k[layer][at] = payload[0, lo:hi]
                self._payload_v[layer][at] = payload[1, lo:hi]
                self._scale_k[layer][at] = scales[0, lo:hi]
                self._scale_v[layer][at] = scales[1, lo:hi]
        stats = self.cache._read_stats
        stats.flush_calls += 1
        stats.flush_blocks += 2 * count
        if memoise:
            filled = self.dequant_cache.fill(layers, ids, encoded[2][:count],
                                             encoded[2][count:])
            stats.streamed_bytes += filled * 2 * self.block_bytes
        else:
            self.dequant_cache.invalidate(ids, layers)

    def _seal_crossing(self, layer: int, rows: np.ndarray,
                       positions: np.ndarray) -> None:
        """``rows`` are about to write slot 0 of a new block at
        ``positions``: seal the complete block each one leaves in
        ``layer``'s buffer — once, for all layers.

        Every layer whose buffer holds that same complete block goes
        into the one kernel call.  In a model forward that is all of
        them (the previous step filled every layer's buffer), so the
        layers after the first find theirs already sealed; a layer that
        genuinely lags — a direct caller driving one layer at a time —
        is left out and seals when its own write gets here.  Rows whose
        previous block is already in the pool have an empty buffer and
        skip: adopted (a shared, block-aligned prefix match — sealing
        would overwrite the shared block) or sealed by a span write.
        """
        if not len(rows):
            return
        crossing = self._buf_end[layer, rows] == positions
        if not crossing.any():
            return
        rows, positions = rows[crossing], positions[crossing]
        cache = self.cache
        block_index = positions // cache.block_size - 1
        cache._ensure_row_blocks(rows, block_index + 1)
        ids = cache._tables[rows, block_index]
        layers, col = np.nonzero(self._buf_end[:, rows] == positions)
        at = rows[col]
        self._flush(layers, ids[col], self._buf_k[layers, at],
                    self._buf_v[layers, at])
        self._buf_end[layers, at] = 0

    def seal_current(self, row: int, fill: int) -> int:
        """Share ``row``'s buffered current block: quantize a snapshot
        of its first ``fill`` tokens (zero-padded so garbage beyond
        ``fill`` cannot inflate the channel scales) into a fresh pool
        block the caller owns.  A shared prefix is therefore always
        served in the 2.33-bit format — quantized once, dequantized by
        every reader."""
        cache, layers = self.cache, self.cache.num_layers
        block = cache._take_block()
        keep = (np.arange(cache.block_size) < fill)[:, None]
        # A partial block is only ever adopted copy-on-write (dequantized
        # into the adopter's buffer), never read through the memo.
        self._flush(np.arange(layers), np.full(layers, block),
                    self._buf_k[:, row] * keep, self._buf_v[:, row] * keep,
                    memoise=fill == cache.block_size)
        return block

    def adopt(self, row: int, tail_id: int | None, length: int) -> list[int]:
        """COW in the quantized format: the shared partial tail is
        *dequantized into the row's FP32 write buffer* — the quantized
        analogue of a block copy — so the row keeps appending to it
        without touching the shared original.  No pool block joins the
        row's chain; the buffer is the current block.  A block-aligned
        prefix leaves every layer's buffer empty."""
        self._buf_end[:, row] = 0 if tail_id is None else length
        if tail_id is None:
            return []
        cache, layers = self.cache, range(self.cache.num_layers)
        payload = np.stack([pool[layer][tail_id] for pool in
                            (self._payload_k, self._payload_v)
                            for layer in layers])
        scales = np.stack([pool[layer][tail_id] for pool in
                           (self._scale_k, self._scale_v)
                           for layer in layers])
        channels = dequantize_kv_channels(
            payload.reshape(-1, self._payload_bytes), scales.reshape(-1),
            cache.block_size)
        self._buf_k[:, row], self._buf_v[:, row] = channels.reshape(
            2, cache.num_layers, cache._heads, cache._head_dim,
            cache.block_size).transpose(0, 1, 2, 4, 3)
        return []

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def plan_token(self, rows: np.ndarray, positions: np.ndarray) -> tuple:
        """``(rows, buffer slots, buffer ends, rows opening a block,
        their positions)``: tokens land in the write buffers, so no
        block table is read."""
        slots = positions % self.cache.block_size
        opens = (slots == 0) & (positions > 0)
        return rows, slots, positions + 1, rows[opens], positions[opens]

    def write_token(self, layer: int, k: np.ndarray, v: np.ndarray,
                    plan: tuple) -> None:
        rows, slots, ends, open_rows, open_positions = plan
        self._seal_crossing(layer, open_rows, open_positions)
        self._buf_k[layer][rows, :, slots] = k[:, :, 0]
        self._buf_v[layer][rows, :, slots] = v[:, :, 0]
        # Clone-rows verify repeats a row at ascending positions; the
        # last (highest) assignment wins.
        self._buf_end[layer, rows] = ends

    def plan_span(self, layer: int, rows: np.ndarray, starts: np.ndarray,
                  lens: np.ndarray) -> tuple:
        """Span writes pass every block — the final, possibly partial
        one included — through the write buffer and seal each block the
        moment the span completes it; only a ragged tail stays buffered.
        That eager seal keeps *chunked* prefill bit-identical to
        one-shot: a chunk ending on a block boundary leaves the block
        quantized, as the one-shot span rolling past it does.
        Speculative verify writes do not come through here: they run as
        clone-rows decode, whose lazy seal keeps each verify query's own
        block in FP32.

        Returns ``(segments, seal ids, opening rows, their starts,
        written rows, buffer ends)``: segments are ``(j, row, lo, take,
        src, completes)`` buffer copies, seal ids the pool blocks the
        completing ones quantize into."""
        cache, bs = self.cache, self.cache.block_size
        # A span that opens a new block behind a lazily buffered one (a
        # decode that stopped exactly on the boundary) seals it first,
        # as write_token would, before the span overwrites the buffer.
        opens = (lens > 0) & (starts > 0) & (starts % bs == 0)
        self._seal_crossing(layer, rows[opens], starts[opens])
        ends = starts + lens
        wrote = lens > 0
        cache._ensure_row_blocks(rows[wrote], ends[wrote] // bs)
        segments, seal_ids = [], []
        for j, row, block, lo, take, src \
                in cache._span_segments(rows, starts, lens):
            segments.append((j, row, lo, take, src, lo + take == bs))
            if lo + take == bs:
                seal_ids.append(cache._tables[row, block])
        return (segments, np.asarray(seal_ids, dtype=np.int64), rows[opens],
                starts[opens], rows[wrote],
                np.where(ends % bs, ends, 0)[wrote])

    def write_span(self, layer: int, k: np.ndarray, v: np.ndarray,
                   plan: tuple) -> None:
        segments, seal_ids, open_rows, open_starts, wrote, buf_ends = plan
        self._seal_crossing(layer, open_rows, open_starts)
        buf_k, buf_v = self._buf_k[layer], self._buf_v[layer]
        seal_k, seal_v = [], []
        for j, row, lo, take, src, completes in segments:
            buf_k[row, :, lo:lo + take] = k[j, :, src:src + take]
            buf_v[row, :, lo:lo + take] = v[j, :, src:src + take]
            if completes:
                seal_k.append(buf_k[row].copy())
                seal_v.append(buf_v[row].copy())
        self._buf_end[layer, wrote] = buf_ends
        if seal_k:
            # Other layers do not hold these tokens yet, so a span
            # seals per layer — K and V together.
            self._flush(np.full(len(seal_ids), layer), seal_ids,
                        np.stack(seal_k), np.stack(seal_v))

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def _dequant_kind(self, layer: int, ids: np.ndarray, kind: str
                      ) -> np.ndarray:
        """Dequantize pool blocks ``ids`` of one layer/operand into
        ``(len(ids), heads, block, head_dim)`` float32 — the exact values
        (and op order) of the tests' dense-gather oracle."""
        bs = self.cache.block_size
        payload = (self._payload_k if kind == "k" else self._payload_v)[layer]
        scale = (self._scale_k if kind == "k" else self._scale_v)[layer]
        channels = dequantize_kv_channels(
            payload[ids].reshape(-1, self._payload_bytes),
            scale[ids].reshape(-1), bs)
        return channels.reshape(len(ids), self.cache._heads,
                                self.cache._head_dim, bs).transpose(0, 1, 3, 2)

    def read_plan(self, total: int, rows: np.ndarray, ids: np.ndarray
                  ) -> list[tuple]:
        """Per chunk: the sealed block ids (``-1`` where a row owns
        nothing — its buffered current block, stale or padding table
        slots — which reads as zeros until overlaid), the same ids
        padded to a full window of columns, how many are owned, and the
        write-buffer overlay: which readers' current block falls in the
        chunk, their cache rows, the block's offset and their buffered
        token sum."""
        cache = self.cache
        bs, cb, nblk = cache.block_size, cache.chunk_blocks, ids.shape[1]
        owned_counts = cache._blocks_per_row[rows]
        row_lens = cache._row_len[rows]
        # Overlay only rows that actually hold buffered tokens: a row
        # whose context is entirely adopted quantized blocks (a
        # block-aligned prefix match) has an empty buffer, and overlaying
        # it would mask its newest shared block with stale data.
        buffered = row_lens - owned_counts * bs
        current = np.where(buffered > 0, (row_lens - 1) // bs, -1)
        owned_ids = np.where(np.arange(nblk) < owned_counts[:, None], ids, -1)
        chunks = []
        for b0 in range(0, nblk, cb):
            c = min(cb, nblk - b0)
            padded = np.full((len(rows), cb), -1, dtype=np.int64)
            padded[:, :c] = owned_ids[:, b0:b0 + c]
            in_chunk = np.nonzero((current >= b0) & (current < b0 + c))[0]
            chunks.append((b0, np.ascontiguousarray(padded[:, :c]), padded,
                           int(np.count_nonzero(padded >= 0)), in_chunk,
                           rows[in_chunk], current[in_chunk] - b0,
                           int(buffered[in_chunk].sum())))
        return chunks

    def read(self, layer: int, n: int, plan: list[tuple], kind: str,
             pad: bool):
        """Sealed blocks come from the :class:`DequantBlockCache`
        (seals write their values through; anything else missing
        dequantizes once and is memoised — a block shared by many rows
        decodes once per chunk, and once *ever* while it stays
        resident), resolved to memo slots once per layer, for both
        operands under ``kind="kv"``; each live row's FP32 current block
        is overlaid on its chunk.  Unowned table slots read the memo's
        zero entry, and so do the ``-1`` columns ``pad`` adds."""
        cache = self.cache
        bs, heads, head_dim = cache.block_size, cache._heads, cache._head_dim
        kinds = ("k", "v") if kind == "kv" else (kind,)
        bufs = {"k": self._buf_k[layer], "v": self._buf_v[layer]}
        stats = cache._read_stats
        for b0, sel, padded, reads, in_chunk, in_rows, offsets, buffered \
                in plan:
            if pad:
                sel = padded
            shape = (n, heads, sel.shape[1], bs, head_dim)
            if not reads:
                blocks = [np.zeros(shape, dtype=np.float32) for _ in kinds]
            else:
                blocks, missed, paired = self.dequant_cache.lookup(
                    layer, sel, kind,
                    lambda miss: (self._dequant_kind(layer, miss, "k"),
                                  self._dequant_kind(layer, miss, "v")),
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
                stats.streamed_bytes += self.block_bytes * (
                    2 * paired + len(kinds) * (missed - paired))
            if len(in_chunk):
                for kd, chunk in zip(kinds, blocks):
                    chunk[in_chunk, :, offsets] = bufs[kd][in_rows]
                # Write-buffer reads stream the live buffered tokens
                # (matching used_bytes' FP32 accounting), not the whole
                # block's padding.
                stats.streamed_bytes += len(kinds) * heads * head_dim * 4 \
                    * buffered
            cache._note_scratch(sum(chunk.nbytes for chunk in blocks))
            yield (b0 * bs, *(chunk.reshape(n, heads, sel.shape[1] * bs,
                                            head_dim) for chunk in blocks))
