"""The decoded store the FineQ block codec reads every block from.

Every seal of :class:`~repro.nn.kv_codec.FineQCodec` writes the
dequantized values its quantizer already holds into a
:class:`DequantBlockCache`, indexed by block id, so a sealed block is
decoded once, when it is written — the decoder stage ahead of the PE
array.  Each row's current block is written into the same store, at a
spare id of its own, so every read is a plain FP32 gather of block ids.
"""

from __future__ import annotations

import numpy as np


class DequantBlockCache:
    """Decoded FP32 K/V by block id: sealed blocks and current blocks.

    ``values`` holds one K and one V array of ``(layers, blocks + batch
    + 1, heads, block, head_dim)`` float32: block id ``i`` of layer
    ``l`` is ``values[operand][l, i]``.  The ``batch + 1`` spare blocks
    at the end are addressed from the end, so their ids survive growth:
    row ``r``'s current block is id ``-2 - r``, and the last block is
    all zeros and no id owns it, so ``-1`` (absent: an unowned table
    slot, a padding column) gathers zeros through ``take(mode="wrap")``,
    as on the FP32 pool.  :meth:`fill` stores what a seal decoded,
    growing the arrays to the largest id (amortized doubling) and
    keeping the spares; the codec seals every block before any row
    reads it, so an id is never read past them.  Nothing is ever
    evicted: the store is bounded by the pool.
    """

    def __init__(self, num_layers: int, batch: int, heads: int,
                 block_size: int, head_dim: int):
        shape = (num_layers, batch + 1, heads, block_size, head_dim)
        self.values = (np.zeros(shape, np.float32),
                       np.zeros(shape, np.float32))
        self._spares = batch + 1

    def fill(self, layers: np.ndarray, ids: np.ndarray, k_vals: np.ndarray,
             v_vals: np.ndarray) -> None:
        """Store ``(heads, block, head_dim)`` values for block ``ids[i]``
        of layer ``layers[i]``, replacing whatever that id held."""
        have = self.values[0].shape[1] - self._spares
        top = int(ids.max())
        if top >= have:
            grown = max(top + 1, 2 * have)
            resized = []
            for old in self.values:
                new = np.zeros((old.shape[0], grown + self._spares)
                               + old.shape[2:], np.float32)
                new[:, :have] = old[:, :have]
                new[:, grown:] = old[:, have:]
                resized.append(new)
            self.values = tuple(resized)
        self.values[0][layers, ids] = k_vals
        self.values[1][layers, ids] = v_vals

    def views(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """``layer``'s K and V as free ``(blocks * heads, block,
        head_dim)`` views: row ``id * heads + h`` is head ``h`` of block
        ``id``, and the last ``heads`` rows are the zero block."""
        return tuple(vals[layer].reshape((-1,) + vals.shape[3:])
                     for vals in self.values)
