"""Key/value cache for incremental decoding.

The cache preallocates ``(batch, heads, capacity, head_dim)`` buffers per
layer and grows them by amortized doubling, so a decode step is an
in-place write plus a zero-copy view instead of an O(T) concatenation
(O(T^2) per generated sequence with the old concatenate-per-token cache).

This rectangle is the *sequential reference*: its one write path,
:meth:`KVCache.append` (uniform append for all batch rows, returning the
full context), is what :meth:`repro.nn.model.TransformerLM.generate`
decodes through, and what the serving engine's paged caches are tested
against.  Serving — and cached perplexity evaluation, which scores
through the serving forward — runs on :mod:`repro.nn.paged_kv_cache`.

Also provides the byte accounting used by the Fig. 2(b) serving-memory
experiment (weights vs KV cache vs other).
"""

from __future__ import annotations

import numpy as np


class KVCache:
    """Per-layer preallocated K/V storage with amortized-doubling growth.

    Keys/values are stored as ``(batch, heads, capacity, head_dim)``
    arrays, mirroring the attention layout; the cache is an inference-path
    object so no gradients flow through it.  ``batch`` may be pinned at
    construction or inferred from the first append.
    """

    def __init__(self, num_layers: int, batch: int | None = None,
                 initial_capacity: int = 64):
        if initial_capacity < 1:
            raise ValueError("initial_capacity must be >= 1")
        self.num_layers = num_layers
        self.batch = batch
        self.initial_capacity = initial_capacity
        self._keys: list[np.ndarray | None] = [None] * num_layers
        self._values: list[np.ndarray | None] = [None] * num_layers
        self._lengths: list[int] = [0] * num_layers

    # ------------------------------------------------------------------ #
    # storage management
    # ------------------------------------------------------------------ #
    def _ensure(self, layer: int, like: np.ndarray, needed: int) -> None:
        """Allocate or double layer buffers until ``needed`` steps fit."""
        buf = self._keys[layer]
        if buf is None:
            capacity = self.initial_capacity
            while capacity < needed:
                capacity *= 2
            batch = self.batch if self.batch is not None else like.shape[0]
            shape = (batch, like.shape[1], capacity, like.shape[3])
            self._keys[layer] = np.zeros(shape, dtype=like.dtype)
            self._values[layer] = np.zeros(shape, dtype=like.dtype)
            return
        capacity = buf.shape[2]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        used = self._lengths[layer]
        for store in (self._keys, self._values):
            old = store[layer]
            new = np.zeros(old.shape[:2] + (capacity, old.shape[3]),
                           dtype=old.dtype)
            new[:, :, :used] = old[:, :, :used]
            store[layer] = new

    def _views(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        length = self._lengths[layer]
        return (self._keys[layer][:, :, :length],
                self._values[layer][:, :, :length])

    # ------------------------------------------------------------------ #
    # write path
    # ------------------------------------------------------------------ #
    def append(self, layer: int, k: np.ndarray, v: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Append new K/V for ``layer``; return views of the full cache.
        Oracle: the sequential reference write, never a serving one."""
        start = self._lengths[layer]
        stop = start + k.shape[2]
        self._ensure(layer, k, stop)
        self._keys[layer][:, :, start:stop] = k
        self._values[layer][:, :, start:stop] = v
        self._lengths[layer] = stop
        return self._views(layer)

    # ------------------------------------------------------------------ #
    # bookkeeping
    # ------------------------------------------------------------------ #
    @property
    def seq_len(self) -> int:
        return self._lengths[0]

    def layer_len(self, layer: int) -> int:
        """Cached time steps for ``layer`` (may lag ``seq_len`` mid-forward)."""
        return self._lengths[layer]

    def capacity(self, layer: int) -> int:
        """Allocated time slots for ``layer`` (0 before first write)."""
        buf = self._keys[layer]
        return 0 if buf is None else buf.shape[2]

    def num_bytes(self, bytes_per_element: int = 2) -> int:
        """Logical cache footprint (used slots) assuming FP16 by default."""
        total = 0
        for k, length in zip(self._keys, self._lengths):
            if k is not None:
                batch, heads, _, head_dim = k.shape
                total += 2 * batch * heads * length * head_dim * bytes_per_element
        return total

    def allocated_bytes(self, bytes_per_element: int = 2) -> int:
        """Physical footprint of the preallocated buffers."""
        total = 0
        for k in self._keys:
            if k is not None:
                total += 2 * k.size * bytes_per_element
        return total

    @staticmethod
    def projected_bytes(num_layers: int, num_heads: int, head_dim: int,
                        seq_len: int, batch: int = 1,
                        bytes_per_element: int = 2) -> int:
        """Closed-form footprint for a hypothetical serving configuration."""
        return 2 * num_layers * num_heads * head_dim * seq_len * batch * bytes_per_element
