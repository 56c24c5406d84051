"""Block codecs: how a paged KV cache stores, seals and reads its blocks.

A :class:`~repro.nn.paged_kv_cache.PagedKVCache` owns what every format
shares — block tables, reference counts, row lengths, the per-forward
memo, sharing and rollback, byte accounting.  Its *codec* owns what a
block holds and the three data paths over it: the token write, the span
write, and the chunked block-table read :mod:`repro.nn.block_attention`
iterates.  Each path is a *plan*, resolved by the first layer of a
forward (the cache memoises it for the rest), and a per-layer execution.
Both codecs keep their blocks in one
:class:`~repro.nn.dequant_cache.DequantBlockCache` — FP32 K and V, which
the cache grows with its pool and copies blocks in — and the read is one
chunk loop for both: a codec's plan is an id table into the store.

* :class:`FP32Codec`, the identity codec: a block holds the FP32 values
  written to it, a row's current block is a pool block written in
  place, and sealing a full block is a no-op.  Its store is FP32 K and
  V with one spare zero block, which padding gathers.
* :class:`FineQCodec`: sealed blocks quantized as the paper's 2.33-bit
  cluster format, extending FineQ's memory story from weights to the KV
  cache.  Its store is the same FP32 K and V, holding each sealed
  block's quantized values — the one copy kept; the payload format is
  priced (``block_bytes``), not held — and each row's current block in
  FP32 in a spare block, so chunks gather every block from the store as
  the FP32 codec gathers from its own.

The FineQ seal kernel, :func:`quantize_kv_block`, comes first.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.core.clusters import CLUSTER_SIZE
from repro.core.encoding import encode_channels
from repro.core.packing import CLUSTERS_PER_GROUP, GROUP_BYTES
from repro.nn.dequant_cache import DequantBlockCache


def quantize_kv_block(blocks: np.ndarray) -> np.ndarray:
    """FineQ-quantize ``(n, heads, block, head_dim)`` FP32 K/V blocks.

    Each ``(head, dim)`` pair is a channel; its ``block`` tokens are
    clustered in threes along the token axis and run through the paper's
    pipeline (outlier schemes -> pair harmonization -> Eq. 1 channel
    scale -> grid rounding), the :func:`encode_channels` kernel the
    weight quantizer runs.  Returns the blocks' quantized values, same
    shape, float32: the integer codes times the channel scales rounded
    to FP16 — bitwise what the 2.33-bit payload and FP16 scales of
    :mod:`repro.core.packing` decode to, so what a seal stores is what a
    decoder ahead of the attention datapath would hand it.  Channels are
    independent, so any mix of blocks (K and V, several layers)
    quantizes in one call to the values separate calls would produce.
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
    codes, _, scales = encode_channels(clusters)
    tokens = codes.transpose(1, 2, 0).reshape(-1, rows)[:block]
    values = tokens.astype(np.float32) \
        * scales.reshape(-1).astype(np.float16).astype(np.float32)
    return np.moveaxis(values.reshape(block, n, heads, head_dim), 0, 2)


class _BlockCodec:
    """What both codecs share: the protocol and the chunk read.

    The protocol, as the cache calls it: ``setup()`` builds the block
    ``store`` (a :class:`DequantBlockCache` of FP32 K and V with no
    blocks yet; the cache grows it with the pool and copies blocks in
    it) at the first write and sets ``block_bytes`` (the price of one
    sealed block of one operand in one layer); ``plan_token`` /
    ``plan_span`` / ``read_plan`` resolve a forward's write or read and
    ``write_token`` / ``write_span`` / :meth:`read` run it on one layer;
    ``adopt`` takes in a shared prefix's partial tail copy-on-write;
    ``shrink`` hears that rows were freed or rolled back.  ``buffered``
    says where the current block lives: in the pool (a row owns every
    block its tokens touch, and every block stays writable) or outside
    it, written in FP32 until it is sealed, when the codec also provides
    ``seal_current``, which shares that block.

    :meth:`read` is the one chunk loop: a codec supplies only its plan,
    ``(chunks, streamed tokens, store hits)`` with the chunks of
    :meth:`_gather_index` over its id table into the store.
    """

    buffered = False

    def __init__(self, cache):
        # A proxy: the cache owns its codec, and a strong reference back
        # would leave every retired cache, pools included, to the cycle
        # collector instead of freeing it with its last reference.
        self.cache = weakref.proxy(cache)
        self._chunk_scratch = np.empty((2, 0), dtype=np.float32)
        self._chunk_rows = 0        # reader rows the buffers have room for

    def setup(self) -> None:
        """Build the store: the zero block last and, for a ``buffered``
        codec, one current block per row before it."""
        cache = self.cache
        self.store = DequantBlockCache(
            cache.num_layers, cache.batch + 1 if self.buffered else 1,
            (cache._heads, cache.block_size, cache._head_dim))

    def shrink(self, rows: np.ndarray) -> None:
        pass

    def _chunk_buffers(self, n: int) -> np.ndarray:
        """The two chunk buffers, K in one and V in the other, reused by
        every chunk, layer and step (fresh ~MB temporaries get trimmed
        off the heap and page-faulted back in on every call): one window
        each for the cache's batch, allocated at the first read (reading
        more rows than the cache has — repeated ``rows`` — is the only
        case that reallocates)."""
        if n > self._chunk_rows:
            cache = self.cache
            self._chunk_rows = max(n, cache.batch)
            self._chunk_scratch = np.empty(
                (2, self._chunk_rows * cache._heads * cache.chunk_blocks
                 * cache.block_size * cache._head_dim), dtype=np.float32)
        return self._chunk_scratch

    def _gather_index(self, ids: np.ndarray) -> list[tuple]:
        """Per chunk of the ``(rows, blocks)`` id table, ``(first
        block, index, padded index)``: ``index[r, h, b] = id * heads +
        h`` addresses a free ``(blocks * heads, block, head_dim)`` view
        of block storage, and the padded index extends a short last
        chunk to a full window with the zero block's id, ``-1``."""
        cache = self.cache
        cb, nblk = cache.chunk_blocks, ids.shape[1]
        grid = np.full((len(ids), -(-nblk // cb) * cb), -1, dtype=np.int64)
        grid[:, :nblk] = ids
        index = grid[:, None, :] * cache._heads \
            + np.arange(cache._heads)[None, :, None]
        chunks = []
        for b0 in range(0, nblk, cb):
            padded = np.ascontiguousarray(index[:, :, b0:b0 + cb])
            chunks.append((b0, np.ascontiguousarray(padded[:, :, :nblk - b0]),
                           padded))
        return chunks

    def read(self, layer: int, n: int, plan, kind: str, pad: bool):
        """Iterate one layer's read of ``plan`` for ``n`` reader rows as
        ``(start, chunk, ...)``, one chunk per ``kind`` operand, each one
        ``take`` into its chunk buffer: ``views[operand]`` is a free
        ``(blocks * heads, block, head_dim)`` view of block storage and
        ``index[r, h, b]`` addresses row ``r``'s block ``b`` of head
        ``h`` in it (a negative id counts from the view's end; ``-1`` is
        its zero block), so the chunk lands in the attended layout, no
        transposed copy.  The plan's totals book what the read streams
        and how many blocks it serves from the store."""
        cache = self.cache
        bs, heads, head_dim = cache.block_size, cache._heads, cache._head_dim
        operands = (0, 1) if kind == "kv" else (0,) if kind == "k" else (1,)
        chunks, tokens, hits = plan
        stats = cache._read_stats
        stats.streamed_bytes += len(operands) * heads * head_dim * 4 * tokens
        stats.dequant_hits += len(operands) * hits
        views = self.store.views(layer)
        buffers = self._chunk_buffers(n)
        for b0, plain, padded in chunks:
            index = padded if pad else plain
            shape = index.shape + (bs, head_dim)
            size = index.size * bs * head_dim
            # mode="wrap" sends negative ids to the spare blocks at the
            # end; the default "raise" would make take stage ``out``
            # through a buffer.
            out = [views[operand].take(
                       index, 0, buffers[operand, :size].reshape(shape),
                       "wrap").reshape(n, heads, shape[2] * bs, head_dim)
                   for operand in operands]
            cache._note_scratch(len(out) * out[0].nbytes)
            yield (b0 * bs, *out)


class FP32Codec(_BlockCodec):
    """The identity codec: FP32 pool blocks, written in place.

    The current block lives in the pool, so a row owns every block its
    tokens touch, and every block stays writable.  The store's one spare
    is the all-zero block past the cache's blocks, never handed out and
    never counted: the read's padding columns address it.
    """

    def setup(self) -> None:
        super().setup()
        cache = self.cache
        self.block_bytes = cache._heads * cache.block_size \
            * cache._head_dim * 4

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
        k_store, v_store = self.store.arrays
        k_store[layer][ids, :, slots] = k[:, :, 0]
        v_store[layer][ids, :, slots] = v[:, :, 0]

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
        pool_k, pool_v = (array[layer] for array in self.store.arrays)
        for j, block_id, lo, take, src in plan:
            pool_k[block_id, :, lo:lo + take] = k[j, :, src:src + take]
            pool_v[block_id, :, lo:lo + take] = v[j, :, src:src + take]

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def read_plan(self, total: int, rows: np.ndarray, ids: np.ndarray
                  ) -> tuple:
        """``(chunks, live tokens, 0)``: the chunks of
        :meth:`_gather_index` over the pool, and no store hits."""
        cache = self.cache
        # Streamed bytes count the rows' *real* context tokens, the
        # population ``used_bytes`` counts (ragged rows also gather
        # padding blocks, which the accelerator projection must not
        # charge).
        live = int(np.minimum(cache._row_len[rows], total).sum())
        return self._gather_index(ids), live, 0


class FineQCodec(_BlockCodec):
    """Sealed blocks quantized in the FineQ format; reads gather the
    FP32 store.

    A seal quantizes a block per ``(head, dim)`` channel along the token
    axis — clusters of 3 under a shared 2-bit pair scheme and one FP16
    scale per channel — and stores the quantized values in FP32, the
    one copy of the block.  ``block_bytes`` prices it in the paper's
    2.33-bit payload + scale format, which the store does not hold: the
    FP32 values are the served format, the output of a decoder stage
    ahead of the attention datapath.  A row's pool blocks are its
    *sealed* blocks only; its current block is written in FP32 into its
    spare block of the store, id ``-2 - row``, before the zero block at
    ``-1``.  Decode seals a block lazily, when the row writes the first
    token of its next one, so ``block_size`` is the exactness horizon:
    the newest ``<= block_size`` tokens of each row read back bit-exact.
    A span seals every block it completes at once (:meth:`plan_span`).
    Sealed blocks are lossy, so a row can only roll back inside its
    current block.

    The seal happens once per boundary crossing, not once per layer: in
    a forward, the first layer to see a crossing quantizes every layer's
    K and V in one kernel call (:meth:`_seal_crossing`) and stores the
    quantized values in the store, indexed by block id.  Reads gather
    every block from there, sealed and current alike; the byte
    accounting of :meth:`~repro.nn.paged_kv_cache.PagedKVCache.used_bytes`
    prices the sealed ones at ``block_bytes``.
    """

    buffered = True

    def __init__(self, cache):
        super().__init__(cache)
        # Exclusive end position of the tokens each layer's current
        # block holds for each row (0 = empty).  It names both the block
        # and how full it is, per layer: layers write one after another
        # within a forward, and direct callers may lag further.
        self._buf_end = np.zeros((cache.num_layers, cache.batch),
                                 dtype=np.int64)

    def setup(self) -> None:
        super().setup()
        cache = self.cache
        groups = -(-(-(-cache.block_size // CLUSTER_SIZE))
                   // CLUSTERS_PER_GROUP)
        # Priced in the paper's format: each (head, dim) channel's
        # packed cluster groups and its FP16 scale.
        self.block_bytes = cache._heads * cache._head_dim \
            * (groups * GROUP_BYTES + 2)

    def shrink(self, rows: np.ndarray) -> None:
        """Current blocks hold nothing past the rows' kept tokens."""
        self._buf_end[:, rows] = np.minimum(self._buf_end[:, rows],
                                            self.cache._row_len[rows])

    # ------------------------------------------------------------------ #
    # seal
    # ------------------------------------------------------------------ #
    def _flush(self, layers: np.ndarray, ids: np.ndarray,
               k_blocks: np.ndarray, v_blocks: np.ndarray,
               charge: bool = True) -> None:
        """Quantize complete blocks into the store in one kernel call.

        ``k_blocks[i]``/``v_blocks[i]`` are the FP32 ``(heads, block,
        head_dim)`` contents of pool block ``ids[i]`` of layer
        ``layers[i]``.  K and V of every layer go through a single
        :func:`quantize_kv_block` — channels are independent, so
        batching is bit-exact.  With ``charge`` (a full block, which
        rows will read) the seal is charged the one payload+scale fetch
        a decoder ahead of the attention datapath would stream for it.
        """
        count = len(ids)
        values = quantize_kv_block(np.concatenate([k_blocks, v_blocks]))
        for array, blocks in zip(self.store.arrays,
                                 (values[:count], values[count:])):
            array[layers, ids] = blocks
        stats = self.cache._read_stats
        stats.flush_calls += 1
        stats.flush_blocks += 2 * count
        if charge:
            stats.streamed_bytes += count * 2 * self.block_bytes

    def _seal_crossing(self, layer: int, rows: np.ndarray,
                       positions: np.ndarray) -> None:
        """``rows`` are about to write slot 0 of a new block at
        ``positions``: seal the complete block each one leaves as
        ``layer``'s current block — once, for all layers.

        Every layer whose current block is that same complete block goes
        into the one kernel call.  In a model forward that is all of
        them (the previous step filled every layer's), so the layers
        after the first find theirs already sealed; a layer that
        genuinely lags — a direct caller driving one layer at a time —
        is left out and seals when its own write gets here.  Rows whose
        previous block is already in the pool have an empty current
        block and skip: adopted (a shared, block-aligned prefix match —
        sealing would overwrite the shared block) or sealed by a span
        write.
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
        k_store, v_store = self.store.arrays
        self._flush(layers, ids[col], k_store[layers, -2 - at],
                    v_store[layers, -2 - at])
        self._buf_end[layers, at] = 0

    def seal_current(self, row: int, fill: int) -> int:
        """Share ``row``'s current block: quantize a snapshot of its
        first ``fill`` tokens (zero-padded so garbage beyond ``fill``
        cannot inflate the channel scales) into a fresh pool block the
        caller owns.  A shared prefix is therefore always served in the
        2.33-bit format — quantized once, read by every reader."""
        cache, layers = self.cache, self.cache.num_layers
        block = cache._take_block()
        keep = (np.arange(cache.block_size) < fill)[:, None]
        k_store, v_store = self.store.arrays
        # A partial block is only ever adopted copy-on-write (copied as
        # the adopter's current block), never read in place: no charge.
        self._flush(np.arange(layers), np.full(layers, block),
                    k_store[:, -2 - row] * keep, v_store[:, -2 - row] * keep,
                    charge=fill == cache.block_size)
        return block

    def adopt(self, row: int, tail_id: int | None, length: int) -> list[int]:
        """COW in the quantized format: the shared partial tail is
        *copied, inside the store, into the row's current block* — its
        quantized values are what the row reads and keeps appending
        to, without touching the shared original.  No pool block joins
        the row's chain.  A block-aligned prefix leaves every layer's
        current block empty."""
        self._buf_end[:, row] = 0 if tail_id is None else length
        if tail_id is not None:
            self.store.copy(tail_id, -2 - row)
        return []

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #
    def plan_token(self, rows: np.ndarray, positions: np.ndarray) -> tuple:
        """``(rows, their current block ids, slots, block ends, rows
        opening a block, their positions)``: tokens land in the rows'
        current blocks, so no block table is read."""
        slots = positions % self.cache.block_size
        opens = (slots == 0) & (positions > 0)
        return (rows, -2 - rows, slots, positions + 1, rows[opens],
                positions[opens])

    def write_token(self, layer: int, k: np.ndarray, v: np.ndarray,
                    plan: tuple) -> None:
        rows, current, slots, ends, open_rows, open_positions = plan
        self._seal_crossing(layer, open_rows, open_positions)
        k_store, v_store = self.store.arrays
        k_store[layer][current, :, slots] = k[:, :, 0]
        v_store[layer][current, :, slots] = v[:, :, 0]
        # Clone-rows verify repeats a row at ascending positions; the
        # last (highest) assignment wins.
        self._buf_end[layer, rows] = ends

    def plan_span(self, layer: int, rows: np.ndarray, starts: np.ndarray,
                  lens: np.ndarray) -> tuple:
        """Span writes pass every block — the final, possibly partial
        one included — through the row's current block and seal each
        block the moment the span completes it; only a ragged tail stays
        current.  That eager seal keeps *chunked* prefill bit-identical
        to one-shot: a chunk ending on a block boundary leaves the block
        quantized, as the one-shot span rolling past it does.
        Speculative verify writes do not come through here: they run as
        clone-rows decode, whose lazy seal keeps each verify query's own
        block in FP32.

        Returns ``(segments, seal ids, opening rows, their starts,
        written rows, block ends)``: segments are ``(j, current block
        id, lo, take, src, completes)`` copies, seal ids the pool blocks
        the completing ones quantize into."""
        cache, bs = self.cache, self.cache.block_size
        # A span that opens a new block behind a lazily kept one (a
        # decode that stopped exactly on the boundary) seals it first,
        # as write_token would, before the span overwrites it.
        opens = (lens > 0) & (starts > 0) & (starts % bs == 0)
        self._seal_crossing(layer, rows[opens], starts[opens])
        ends = starts + lens
        wrote = lens > 0
        cache._ensure_row_blocks(rows[wrote], ends[wrote] // bs)
        segments, seal_ids = [], []
        for j, row, block, lo, take, src \
                in cache._span_segments(rows, starts, lens):
            segments.append((j, -2 - row, lo, take, src, lo + take == bs))
            if lo + take == bs:
                seal_ids.append(cache._tables[row, block])
        return (segments, np.asarray(seal_ids, dtype=np.int64), rows[opens],
                starts[opens], rows[wrote],
                np.where(ends % bs, ends, 0)[wrote])

    def write_span(self, layer: int, k: np.ndarray, v: np.ndarray,
                   plan: tuple) -> None:
        segments, seal_ids, open_rows, open_starts, wrote, buf_ends = plan
        self._seal_crossing(layer, open_rows, open_starts)
        k_store, v_store = (array[layer] for array in self.store.arrays)
        seal_k, seal_v = [], []
        for j, current, lo, take, src, completes in segments:
            k_store[current, :, lo:lo + take] = k[j, :, src:src + take]
            v_store[current, :, lo:lo + take] = v[j, :, src:src + take]
            if completes:
                seal_k.append(k_store[current].copy())
                seal_v.append(v_store[current].copy())
        self._buf_end[layer, wrote] = buf_ends
        if seal_k:
            # Other layers do not hold these tokens yet, so a span
            # seals per layer — K and V together.
            self._flush(np.full(len(seal_ids), layer), seal_ids,
                        np.stack(seal_k), np.stack(seal_v))

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    def read_plan(self, total: int, rows: np.ndarray, ids: np.ndarray
                  ) -> tuple:
        """``(chunks, streamed tokens, store hits)`` over a table of the
        rows' *sealed* block ids, ``-2 - row`` in the column of each
        row's current block and ``-1`` (zeros) in stale and padding
        slots.  Every sealed block read is a store *hit*, its payload
        fetch charged at its seal, so only the current blocks' live
        tokens stream (as ``used_bytes`` counts them)."""
        cache = self.cache
        bs, nblk = cache.block_size, ids.shape[1]
        owned_counts = cache._blocks_per_row[rows]
        row_lens = cache._row_len[rows]
        table = np.where(np.arange(nblk) < owned_counts[:, None], ids, -1)
        # Only rows holding tokens past their sealed blocks read a
        # current block: a row whose context is entirely adopted sealed
        # blocks (a block-aligned prefix match) has an empty one.
        held = row_lens - owned_counts * bs
        column = (row_lens - 1) // bs
        live = np.nonzero((held > 0) & (column < nblk))[0]
        table[live, column[live]] = -2 - rows[live]
        return (self._gather_index(table), int(held[live].sum()),
                int(np.count_nonzero(table >= 0)))
