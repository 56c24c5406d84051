"""The quantized KV cache's memo of dequantized blocks.

Moved out of :mod:`repro.nn.paged_kv_cache`, which imports
:class:`DequantBlockCache` back for :class:`~repro.nn.paged_kv_cache
.QuantizedPagedKVCache`'s reads and flushes.
"""

from __future__ import annotations

import numpy as np


class DequantBlockCache:
    """LRU memo of dequantized quantized-pool blocks, keyed by
    ``(layer, block id)``.

    Quantized pool blocks are immutable once written, so their
    dequantized ``(heads, block, head_dim)`` K/V values can be reused
    across readers, layers' worth of decode steps, and sessions of the
    same engine.  Entries live in slot-pooled value stores (one K and
    one V array) so chunk assembly is a single gather per operand,
    straight into the layout attention multiplies; the slot count is
    ``budget_bytes`` divided by the per-entry footprint, grown lazily
    and recycled LRU.  Entries arrive two ways: a
    :meth:`lookup` miss dequantizes the payload, and a flush *writes
    through* (:meth:`fill`) the values it already holds, so a block the
    step has just encoded is never decoded back.  :meth:`invalidate`
    drops entries whenever a payload is rewritten or the block returns
    to the free list, so a recycled block id can never serve stale
    values.

    Slot 0 of the stores is a permanent all-zero entry that no key owns:
    the absent id ``-1`` resolves to it (through a sentinel last column
    of the slot table, which ``-1`` indexes), so a chunk whose table has
    unowned positions is still one gather.
    """

    def __init__(self, num_layers: int, heads: int, block_size: int,
                 head_dim: int, budget_bytes: int):
        self.num_layers = num_layers
        self.entry_bytes = 2 * heads * block_size * head_dim * 4  # K + V
        self.capacity = max(0, int(budget_bytes) // self.entry_bytes)
        self._shape = (heads, block_size, head_dim)
        self._head_offsets = np.arange(heads)[:, None]
        self._store_k = np.zeros((1,) + self._shape, dtype=np.float32)
        self._store_v = np.zeros((1,) + self._shape, dtype=np.float32)
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

    def lookup(self, layer: int, ids: np.ndarray, kind: str,
               dequant_pair, dequant_kind):
        """Dequantized values for block ``ids`` (duplicates welcome —
        many rows reading one shared block is the expected shape; ``-1``
        reads as an all-zero block).

        ``ids`` is a ``(..., blocks)`` table — one row of block ids per
        reader — and the values come back in the *attended layout*,
        heads ahead of the block axis: ``ids.shape[:-1] + (heads,
        blocks, block, head_dim)`` float32, whose ``(..., heads, blocks
        * block, head_dim)`` reshape is a view (1-D ``ids`` therefore
        return ``(heads, len(ids), block, head_dim)``).  ``kind``
        selects the operand: ``"k"`` or ``"v"`` return one such array,
        ``"kv"`` a ``(k, v)`` pair from a single slot resolution.
        Returns ``(values, misses, paired)``: ``misses`` counts the
        *unique* blocks that had to be dequantized — sixteen readers of
        one cold shared block are one miss (the fifteen served from its
        fresh dequant count as hits, and the streamed-bytes charge stays
        one payload fetch) — and ``paired <= misses`` is how many of
        them were pinned with both operands.

        When every id is resident — the steady state, since flushes
        write through — the values are one ``take`` per operand through
        the stores' free ``(slots * heads, block, head_dim)`` view.
        Otherwise slots are claimed *before* dequantizing: blocks that
        win a slot dequantize both operands via ``dequant_pair(ids) ->
        (k, v)`` (so the sibling pass hits), while blocks the budget
        cannot pin dequantize only what was asked for (``dequant_kind``
        for a single operand) — a saturated (or zero-budget) cache therefore
        degrades to one dequant per operand read instead of paying
        double LUT work while thrashing.
        """
        self._tick += 1
        tick = self._tick
        ids = np.asarray(ids, dtype=np.int64)
        self._ensure_blocks(int(ids.max(initial=0)))
        slots = self._slot_table[layer, ids]
        absent = slots < 0
        misses = paired = 0
        spilled = None
        if absent.any():
            self._last_used[slots[~absent]] = tick  # pin this lookup's hits
            wanted = np.unique(ids[absent])
            misses = len(wanted)
            granted = self._claim_slots(misses, tick)
            paired = len(granted)
            if paired:
                k_vals, v_vals = dequant_pair(wanted[:paired])
                self._store(granted, layer, wanted[:paired], k_vals, v_vals,
                            tick)
                slots = self._slot_table[layer, ids]
                absent = slots < 0
            if paired < misses:
                spilled = (dequant_pair(wanted[paired:]) if kind == "kv"
                           else (dequant_kind(wanted[paired:]),))
                order = np.searchsorted(wanted, ids[absent]) - paired
                slots = np.where(absent, 0, slots)
        self._last_used[slots] = tick
        stores = {"k": (self._store_k,), "v": (self._store_v,),
                  "kv": (self._store_k, self._store_v)}[kind]
        flat = slots[..., None, :] * self._shape[0] + self._head_offsets
        values = tuple(store.reshape((-1,) + self._shape[1:])
                       .take(flat, axis=0) for store in stores)
        if spilled is not None:
            for out, vals in zip(values, spilled):
                np.moveaxis(out, -4, -3)[absent] = vals[order]
        return (values if kind == "kv" else values[0]), misses, paired

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
