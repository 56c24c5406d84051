"""The memo of dequantized blocks the FineQ block codec reads through.

:class:`~repro.nn.kv_codec.FineQCodec` serves every sealed-block read of
a :class:`~repro.nn.paged_kv_cache.QuantizedPagedKVCache` from a
:class:`DequantBlockCache`, and its seals write their dequantized values
through into it.
"""

from __future__ import annotations

import numpy as np

_NO_IDS = np.zeros(0, dtype=np.int64)


class DequantBlockCache:
    """LRU memo of dequantized quantized-pool blocks, keyed by
    ``(layer, block id)``.

    Quantized pool blocks are immutable once written, so their
    dequantized ``(heads, block, head_dim)`` K/V values can be reused
    across readers, layers' worth of decode steps, and sessions of the
    same engine.  Entries live in slot-pooled value stores (one K and
    one V array); the slot count is ``budget_bytes`` divided by the
    per-entry footprint, grown lazily and recycled LRU.  A reader
    resolves block ids to slots with :meth:`lookup` and gathers from
    :attr:`views` itself, one ``take`` per operand straight into the
    layout attention multiplies.  The FineQ codec resolves a layer's
    whole read at once when the budget can pin every block it touches
    (``whole=True``) and reuses those slots while :attr:`generation`
    stands still; otherwise it looks up chunk by chunk.  Entries arrive
    two ways: a :meth:`lookup` miss dequantizes the payload, and a
    flush *writes through* (:meth:`fill`) the values it already holds,
    so a block the step has just encoded is never decoded back.
    :meth:`invalidate` drops entries whenever a payload is rewritten or
    the block returns to the free list, so a recycled block id can
    never serve stale values.

    Slot 0 of the stores is a permanent all-zero entry that no key owns:
    the absent id ``-1`` resolves to it (through a sentinel last column
    of the slot table, which ``-1`` indexes), so a chunk whose table has
    unowned or padding positions is still one gather.
    """

    def __init__(self, num_layers: int, heads: int, block_size: int,
                 head_dim: int, budget_bytes: int):
        self.num_layers = num_layers
        self.entry_bytes = 2 * heads * block_size * head_dim * 4  # K + V
        self.capacity = max(0, int(budget_bytes) // self.entry_bytes)
        self._shape = (heads, block_size, head_dim)
        self._store_k = np.zeros((1,) + self._shape, dtype=np.float32)
        self._store_v = np.zeros((1,) + self._shape, dtype=np.float32)
        self._publish_views()
        # (layer, block id) -> slot, as an array so a chunk's lookups are
        # one fancy index instead of per-id dict probes (-1 = absent).
        self._slot_table = np.zeros((num_layers, 1), dtype=np.int64)
        self._entries = 0
        # Per-slot bookkeeping, index 0 (the zero entry) never occupied.
        self._key_layer = np.zeros(1, dtype=np.int64)
        self._key_block = np.zeros(1, dtype=np.int64)
        self._occupied = np.zeros(1, dtype=bool)
        self._last_used = np.zeros(1, dtype=np.int64)
        self._free: list[int] = []
        self._tick = 0
        self.evictions = 0
        #: Bumped whenever a key is bound to a slot or unbound from one
        #: (fill, miss, eviction, invalidation): slots a reader resolved
        #: stay valid exactly while it is unchanged.
        self.generation = 0

    def __len__(self) -> int:
        return self._entries

    def slot(self, layer: int, block_id: int) -> int:
        """Slot holding ``(layer, block_id)``, or ``-1`` when absent."""
        if not 0 <= int(block_id) < self._slot_table.shape[1] - 1:
            return -1
        return int(self._slot_table[layer, int(block_id)])

    def _ensure_blocks(self, max_block: int) -> None:
        width = self._slot_table.shape[1] - 1
        if max_block < width:
            return
        wider = np.full((self.num_layers, max(max_block + 1, 2 * width) + 1),
                        -1, dtype=np.int64)
        wider[:, :width] = self._slot_table[:, :width]
        wider[:, -1] = 0
        self._slot_table = wider

    def _publish_views(self) -> None:
        """Set :attr:`views`: the K and V stores as free ``(slots *
        heads, block, head_dim)`` views, the arrays :meth:`lookup`'s
        slots address."""
        self.views = tuple(store.reshape((-1,) + self._shape[1:])
                           for store in (self._store_k, self._store_v))

    def _grow(self, needed: int) -> None:
        """Allocate more slots (amortized doubling, capped at capacity)."""
        have = len(self._occupied) - 1
        new = min(self.capacity, max(needed, 2 * have, 16))
        if new <= have:
            return
        for name in ("_store_k", "_store_v", "_key_layer", "_key_block",
                     "_occupied", "_last_used"):
            old = getattr(self, name)
            grown = np.zeros((new + 1,) + old.shape[1:], dtype=old.dtype)
            grown[:have + 1] = old
            setattr(self, name, grown)
        self._publish_views()
        self._free.extend(range(have + 1, new + 1))

    def _claim_slots(self, count: int, tick: int) -> np.ndarray:
        """Up to ``count`` free-or-evicted slots (never ones used at
        ``tick`` — entries read in the current lookup stay pinned)."""
        # Grow only when the free list cannot cover the request (lazy:
        # the store tracks the working set, not the whole budget).
        have = len(self._occupied) - 1
        if len(self._free) < count and have < self.capacity:
            self._grow(have - len(self._free) + count)
        keep = max(0, len(self._free) - count)
        slots = self._free[keep:]
        del self._free[keep:]
        short = count - len(slots)
        if short > 0:
            # Vectorized victim pick: occupied slots not touched this
            # lookup, the `short` least-recently-used of them (partial
            # partition, not a full sort — this runs on the decode hot
            # path whenever the working set outgrows the budget).
            candidates = np.nonzero(self._occupied
                                    & (self._last_used < tick))[0]
            if len(candidates):
                take = min(short, len(candidates))
                victims = candidates[np.argpartition(
                    self._last_used[candidates], take - 1)[:take]]
                self._slot_table[self._key_layer[victims],
                                 self._key_block[victims]] = -1
                self._occupied[victims] = False
                self._entries -= take
                self.evictions += take
                self.generation += 1
                slots += victims.tolist()
        return np.asarray(slots, dtype=np.int64)

    def _store(self, slots: np.ndarray, layers, ids: np.ndarray,
               k_vals: np.ndarray, v_vals: np.ndarray, tick: int) -> None:
        """Bind ``slots`` to the ``(layers, ids)`` keys and their values."""
        self._store_k[slots] = k_vals
        self._store_v[slots] = v_vals
        self._slot_table[layers, ids] = slots
        self._key_layer[slots] = layers
        self._key_block[slots] = ids
        self._occupied[slots] = True
        self._last_used[slots] = tick
        self._entries += len(slots)
        self.generation += 1

    def lookup(self, layer: int, ids: np.ndarray, kind: str,
               dequant_pair, dequant_kind, whole: bool = False):
        """Memo slots for block ``ids`` (duplicates welcome — many rows
        reading one shared block is the expected shape; ``-1`` resolves
        to the all-zero slot 0).

        ``ids`` is a ``(..., blocks)`` table — one row of block ids per
        reader — and ``slots`` comes back in its shape: gathering ``slots
        * heads + h`` from :attr:`views` lands the values in the attended
        layout, heads ahead of the block axis.  Returns ``(slots, wanted,
        paired, spill)``: ``wanted`` are the *unique* blocks that had to
        be dequantized — sixteen readers of one cold shared block are one
        miss (the fifteen served from its fresh dequant count as hits,
        and the streamed-bytes charge stays one payload fetch) — and
        ``paired <= len(wanted)`` is how many of them were pinned with
        both operands.

        Misses claim slots *before* dequantizing: blocks that win a slot
        dequantize both operands via ``dequant_pair(ids) -> (k, v)`` (so
        the sibling operand's read hits), while blocks the budget cannot
        pin dequantize only the operands ``kind`` asks for
        (``dequant_kind`` for a single one) — a saturated (or
        zero-budget) cache therefore degrades to one dequant per operand
        read instead of paying double LUT work while thrashing.  Those
        come back as ``spill = (positions, values)``: their ``slots``
        read the zero entry, and ``values`` (one array per operand, one
        ``(heads, block, head_dim)`` block per ``True`` position of the
        boolean ``positions``) replace them after the gather.

        ``whole`` asks for all or nothing: when the budget cannot pin
        every distinct block of ``ids`` at once, nothing changes and the
        call returns ``None``.
        """
        ids = np.asarray(ids, dtype=np.int64)
        self._ensure_blocks(int(ids.max(initial=0)))
        slots = self._slot_table[layer, ids]
        absent = slots < 0
        if not absent.any():
            # The steady state, since flushes write through.
            self._tick += 1
            self._last_used[slots] = self._tick
            return slots, _NO_IDS, 0, None
        wanted = np.unique(ids[absent])
        if whole and len(wanted) + len(np.unique(slots[slots > 0])) \
                > self.capacity:
            return None
        self._tick += 1
        tick = self._tick
        self._last_used[slots[~absent]] = tick  # pin this lookup's hits
        granted = self._claim_slots(len(wanted), tick)
        paired = len(granted)
        spill = None
        if paired:
            k_vals, v_vals = dequant_pair(wanted[:paired])
            self._store(granted, layer, wanted[:paired], k_vals, v_vals,
                        tick)
            slots = self._slot_table[layer, ids]
            absent = slots < 0
        if paired < len(wanted):
            values = (dequant_pair(wanted[paired:]) if kind == "kv"
                      else (dequant_kind(wanted[paired:]),))
            order = np.searchsorted(wanted, ids[absent]) - paired
            spill = absent, tuple(vals[order] for vals in values)
            slots = np.where(absent, 0, slots)
        return slots, wanted, paired, spill

    def fill(self, layers, ids: np.ndarray, k_vals: np.ndarray,
             v_vals: np.ndarray) -> int:
        """Write-through: memoise freshly quantized blocks' values.

        ``(layers[i], ids[i])`` are distinct keys whose payloads were
        just (re)written; ``k_vals``/``v_vals`` are their dequantized
        ``(heads, block, head_dim)`` values.  Stale entries for the keys
        are dropped, slots are claimed by the same LRU rule a miss uses,
        and as many leading keys as the budget grants are stored.
        Returns that count.
        """
        self.invalidate(ids, layers)
        self._ensure_blocks(int(ids.max()))
        self._tick += 1
        slots = self._claim_slots(len(ids), self._tick)
        count = len(slots)
        if count:
            self._store(slots, layers[:count], ids[:count],
                        k_vals[:count], v_vals[:count], self._tick)
        return count

    def invalidate(self, block_ids, layer=None) -> None:
        """Drop blocks' entries — the stale dequant must never be served
        again.  ``block_ids`` is one id or an array of distinct ids.
        ``layer`` scopes the drop: an int for one layer's entries, an
        array pairing a layer with each id (a flush rewrites exactly
        those payloads; sibling layers' cached values stay valid), or
        ``None`` to sweep every layer (block freed or recycled — the id
        means something new everywhere)."""
        ids = np.asarray(block_ids, dtype=np.int64).reshape(-1)
        known = ids < self._slot_table.shape[1] - 1
        if layer is None:
            at = (slice(None), ids[known])
        else:
            layer = np.asarray(layer)
            at = (layer[known] if layer.ndim else layer, ids[known])
        slots = self._slot_table[at]
        held = slots[slots >= 0]
        if held.size:
            self._slot_table[at] = -1
            self._occupied[held] = False
            self._last_used[held] = 0
            self._free.extend(held.tolist())
            self._entries -= held.size
            self.generation += 1
