"""The block store both KV codecs keep every block in.

A :class:`~repro.nn.paged_kv_cache.PagedKVCache`'s codec holds all its
block storage in one :class:`DequantBlockCache`: FP32 K and V arrays
whose axis 1 is the block id, grown with the cache's pool and copied
block by block by the cache, one call each.  Every read is a plain
gather of block ids from them: on the FP32 codec they are the blocks
themselves; on the FineQ codec they hold each sealed block's quantized
values, written once, when it is sealed — the decoder stage's output
ahead of the PE array — and each row's current block sits there too, at
a spare id of its own.
"""

from __future__ import annotations

import numpy as np


class DequantBlockCache:
    """A codec's block storage: FP32 K and V, one block shape.

    ``arrays`` is ``(K, V)``, each ``(layers, blocks + spares) +
    block_shape`` float32: block id ``i`` of layer ``l`` is
    ``arrays[operand][l, i]``.  The ``spares`` blocks at the end are
    addressed from the end, so their ids survive growth; the last one is
    all zeros and no id owns it, so ``-1`` (absent: an unowned table
    slot, a padding column) gathers zeros through ``take(mode="wrap")``.
    Nothing is ever evicted: the store holds exactly the pool's blocks
    and the spares.
    """

    def __init__(self, num_layers: int, spares: int, block_shape: tuple):
        self.arrays = tuple(np.zeros((num_layers, spares) + block_shape,
                                     np.float32) for _ in range(2))
        self._spares = spares

    def grow(self, blocks: int) -> None:
        """Resize to ``blocks`` blocks, keeping every block and spare."""
        have = self.arrays[0].shape[1] - self._spares
        resized = []
        for old in self.arrays:
            # Zero-filled on purpose: stale block reads must stay finite
            # so masked rows contribute exact zeros, never NaNs.
            new = np.zeros((old.shape[0], blocks + self._spares)
                           + old.shape[2:], old.dtype)
            new[:, :have] = old[:, :have]
            new[:, blocks:] = old[:, have:]
            resized.append(new)
        self.arrays = tuple(resized)

    def copy(self, src: int, dst: int) -> None:
        """Copy block ``src`` over block ``dst`` in every layer."""
        for array in self.arrays:
            array[:, dst] = array[:, src]

    def views(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """``layer``'s K and V as free ``(blocks * heads, block,
        head_dim)`` views: row ``id * heads + h`` is head ``h`` of block
        ``id``, and the last ``heads`` rows are the zero block."""
        return tuple(array[layer].reshape((-1,) + array.shape[3:])
                     for array in self.arrays)
