"""Preallocated KV cache: growth, bit-exactness, byte accounting."""

import numpy as np
import pytest

from repro.nn.attention import causal_mask
from repro.nn.kv_cache import KVCache


class ConcatReferenceCache:
    """The seed implementation: grow-by-concatenation (ground truth)."""

    def __init__(self, num_layers):
        self._keys = [None] * num_layers
        self._values = [None] * num_layers

    def append(self, layer, k, v):
        if self._keys[layer] is None:
            self._keys[layer] = k
            self._values[layer] = v
        else:
            self._keys[layer] = np.concatenate([self._keys[layer], k], axis=2)
            self._values[layer] = np.concatenate([self._values[layer], v], axis=2)
        return self._keys[layer], self._values[layer]


def random_kv(rng, batch, heads, seq, head_dim):
    return (rng.standard_normal((batch, heads, seq, head_dim)).astype(np.float32),
            rng.standard_normal((batch, heads, seq, head_dim)).astype(np.float32))


def test_matches_concat_cache_across_growth_boundaries():
    """Bit-for-bit identical to the seed cache while doubling 4->8->16->32."""
    rng = np.random.default_rng(0)
    cache = KVCache(2, initial_capacity=4)
    reference = ConcatReferenceCache(2)
    for seq in (3, 1, 2, 5, 8, 1, 9):  # crosses every doubling boundary
        for layer in range(2):
            k, v = random_kv(rng, 2, 3, seq, 8)
            got_k, got_v = cache.append(layer, k, v)
            want_k, want_v = reference.append(layer, k, v)
            np.testing.assert_array_equal(got_k, want_k)
            np.testing.assert_array_equal(got_v, want_v)
    assert cache.seq_len == 29
    assert cache.capacity(0) == 32


def test_append_returns_zero_copy_views():
    cache = KVCache(1, initial_capacity=8)
    k = np.ones((1, 2, 3, 4), dtype=np.float32)
    got_k, got_v = cache.append(0, k, k.copy())
    assert np.shares_memory(got_k, cache._keys[0])
    assert np.shares_memory(got_v, cache._values[0])


def test_earlier_views_survive_later_appends():
    """Later writes land beyond a returned view, never inside it."""
    rng = np.random.default_rng(1)
    cache = KVCache(1, initial_capacity=16)
    k1, v1 = random_kv(rng, 1, 2, 4, 4)
    view_k, _ = cache.append(0, k1, v1)
    snapshot = view_k.copy()
    k2, v2 = random_kv(rng, 1, 2, 3, 4)
    cache.append(0, k2, v2)
    np.testing.assert_array_equal(view_k, snapshot)


def test_byte_accounting_counts_used_not_allocated():
    cache = KVCache(2, initial_capacity=64)
    k = np.zeros((1, 2, 4, 8), dtype=np.float32)
    cache.append(0, k, k.copy())
    assert cache.num_bytes(bytes_per_element=2) == 2 * k.size * 2
    assert cache.allocated_bytes(bytes_per_element=2) == 2 * (1 * 2 * 64 * 8) * 2
    assert cache.allocated_bytes() >= cache.num_bytes()


def test_amortized_doubling_capacities():
    cache = KVCache(1, initial_capacity=2)
    k = np.zeros((1, 1, 1, 2), dtype=np.float32)
    seen = set()
    for _ in range(33):
        cache.append(0, k, k)
        seen.add(cache.capacity(0))
    assert seen == {2, 4, 8, 16, 32, 64}


def test_rejects_bad_initial_capacity():
    with pytest.raises(ValueError):
        KVCache(1, initial_capacity=0)


def test_causal_mask_is_memoised_and_correct():
    first = causal_mask(3, 5)
    assert first is causal_mask(3, 5)
    want = np.array([[0, 0, 0, -np.inf, -np.inf],
                     [0, 0, 0, 0, -np.inf],
                     [0, 0, 0, 0, 0]], dtype=np.float32)
    np.testing.assert_array_equal(first, want)


def test_mask_cache_is_bounded_with_lru_eviction():
    """Perplexity sweeps produce many (seq, total) shapes; the cache must
    not grow without limit, and hot shapes must survive eviction."""
    from repro.nn.attention import _MASK_CACHE, _MASK_CACHE_LIMIT

    hot = causal_mask(7, 7)
    for total in range(8, 8 + 2 * _MASK_CACHE_LIMIT):
        causal_mask(7, total)
        assert causal_mask(7, 7) is hot  # touching keeps it resident
    assert len(_MASK_CACHE) <= _MASK_CACHE_LIMIT

    # Evicted shapes are rebuilt correctly on demand.
    rebuilt = causal_mask(2, 4)
    want = np.array([[0, 0, 0, -np.inf], [0, 0, 0, 0]], dtype=np.float32)
    np.testing.assert_array_equal(rebuilt, want)
