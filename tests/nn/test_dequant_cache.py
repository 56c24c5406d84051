"""Dequant-block-cache correctness: hits, invalidation, eviction, COW.

Quantized pool blocks are immutable once written, which is the whole
licence for memoising their dequantized values; these tests pin the
invalidation edges where that immutability could silently break — block
free/reuse, payload rewrite, copy-on-write divergence — plus the LRU
budget and the disabled-cache round-trip.
"""

import numpy as np

from repro.nn.paged_kv_cache import DequantBlockCache, QuantizedPagedKVCache
from tests.kv_oracle import dense_context

HEADS, HEAD_DIM, BS = 2, 8, 4


def make_cache(batch=2, num_layers=2, seq=13, dequant_cache_bytes=None,
               seed=0):
    kwargs = {}
    if dequant_cache_bytes is not None:
        kwargs["dequant_cache_bytes"] = dequant_cache_bytes
    cache = QuantizedPagedKVCache(num_layers, batch=batch, block_size=BS,
                                  chunk_blocks=2, **kwargs)
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((batch, HEADS, seq, HEAD_DIM)).astype(np.float32)
    v = rng.standard_normal((batch, HEADS, seq, HEAD_DIM)).astype(np.float32)
    for layer in range(num_layers):
        cache.prefill_rows(layer, k, v, np.arange(batch),
                           np.zeros(batch, dtype=np.int64),
                           np.full(batch, seq))
    return cache, rng


def read_context(cache, layer=0, kind="k"):
    total = cache.layer_len(layer)
    parts = [c.copy() for _s, c in cache.context_blocks(layer, kind=kind)]
    return np.concatenate(parts, axis=2)[:, :, :total]


def chill(cache):
    """Drop every memo entry (flushes write through, so a freshly
    written cache starts warm; the miss path needs a cold one)."""
    cache.codec.dequant_cache.invalidate(np.arange(cache._total_blocks))
    assert len(cache.codec.dequant_cache) == 0
    cache.take_read_stats()


def test_second_read_hits_and_values_stay_identical():
    cache, _ = make_cache()
    chill(cache)
    first = read_context(cache)
    stats = cache.take_read_stats()
    assert stats.dequant_misses > 0
    second = read_context(cache)
    stats = cache.take_read_stats()
    assert stats.dequant_misses == 0 and stats.dequant_hits > 0
    np.testing.assert_array_equal(first, second)


def test_free_rows_invalidates_and_recycled_block_rereads_fresh():
    """Hit-then-invalidate: freeing a row drops its blocks' entries, and
    a recycled block id serves the *new* payload, never the stale memo."""
    cache, rng = make_cache()
    read_context(cache)                      # populate the memo
    freed = [int(b) for b in cache._tables[0, :cache._blocks_per_row[0]]]
    assert len(cache.codec.dequant_cache) > 0
    cache.free_rows(np.array([0]))
    for layer in range(cache.num_layers):
        for block in freed:
            assert cache.codec.dequant_cache.slot(layer, block) == -1
    # Re-prefill row 0 with different content; the freed ids recycle.
    seq = 13
    k2 = rng.standard_normal((1, HEADS, seq, HEAD_DIM)).astype(np.float32)
    v2 = rng.standard_normal((1, HEADS, seq, HEAD_DIM)).astype(np.float32)
    for layer in range(cache.num_layers):
        cache.prefill_rows(layer, k2, v2, np.array([0]), np.array([0]),
                           np.array([seq]))
    got = read_context(cache)
    np.testing.assert_array_equal(got, dense_context(cache, 0)[0])


def test_payload_rewrite_invalidates_entry():
    """_flush (a flush into a block) must never leave the old memo for
    the target ids: the entry is replaced by the new payload's values,
    or dropped when the flush does not memoise."""
    cache, rng = make_cache(batch=1, num_layers=1, seq=BS)
    # Token BS starts block 1 and flushes the buffered block 0.
    k1 = rng.standard_normal((1, HEADS, 1, HEAD_DIM)).astype(np.float32)
    cache.write_token(0, k1, k1.copy(), np.array([BS]))
    block = int(cache._tables[0, 0])
    memo = cache.codec.dequant_cache
    assert memo.slot(0, block) >= 0           # written through
    assert np.abs(memo._store_k[memo.slot(0, block)]).max() > 0
    zeros = np.zeros((1, HEADS, BS, HEAD_DIM), np.float32)
    cache.codec._flush(np.array([0]), np.array([block]), zeros, zeros)
    assert not memo._store_k[memo.slot(0, block)].any()
    np.testing.assert_array_equal(read_context(cache)[:, :, :BS], zeros)
    cache.codec._flush(np.array([0]), np.array([block]), zeros + 1, zeros,
                 memoise=False)
    assert memo.slot(0, block) == -1
    assert read_context(cache)[:, :, :BS].max() > 0


def test_eviction_under_budget_keeps_results_bit_identical():
    """A budget that can hold only a couple of blocks thrashes but never
    changes values vs the uncached dequant."""
    entry = 2 * HEADS * BS * HEAD_DIM * 4
    small, _ = make_cache(seq=29, dequant_cache_bytes=2 * entry)
    uncached, _ = make_cache(seq=29, dequant_cache_bytes=0)
    assert small.codec.dequant_cache.capacity == 2
    assert uncached.codec.dequant_cache.capacity == 0
    for _round in range(3):
        for layer in range(small.num_layers):
            for kind in ("k", "v"):
                np.testing.assert_array_equal(
                    read_context(small, layer, kind),
                    read_context(uncached, layer, kind))
    assert small.codec.dequant_cache.evictions > 0
    assert len(small.codec.dequant_cache) <= 2


def test_disabled_cache_round_trips_through_block_path():
    """dequant_cache_bytes=0: every read re-dequantizes, the read stats
    count pure misses, and over a multi-chunk context both the chunk
    values and the attention output are bitwise the memoised cache's —
    so serving with the memo off cannot move a token."""
    from repro.nn.block_attention import block_decode_attention

    cache, rng = make_cache(seq=29, dequant_cache_bytes=0)
    memoised, _ = make_cache(seq=29)
    assert cache.layer_len(0) > cache.chunk_blocks * BS  # several chunks
    q = rng.standard_normal((2, HEADS, 1, HEAD_DIM)).astype(np.float32)
    for layer in range(cache.num_layers):
        for index, kind in enumerate(("k", "v")):
            got = read_context(cache, layer, kind)
            np.testing.assert_array_equal(got,
                                          dense_context(cache, layer)[index])
            np.testing.assert_array_equal(
                got, read_context(memoised, layer, kind))
        np.testing.assert_array_equal(
            block_decode_attention(q, cache, layer),
            block_decode_attention(q, memoised, layer))
    stats = cache.take_read_stats()
    assert stats.dequant_hits == 0 and stats.dequant_misses > 0


def test_lru_evicts_least_recently_used_first():
    memo = DequantBlockCache(num_layers=1, heads=1, block_size=2,
                             head_dim=2, budget_bytes=2 * (2 * 1 * 2 * 2 * 4))
    assert memo.capacity == 2

    def dequant_pair(ids):
        vals = np.ones((len(ids), 1, 2, 2), np.float32) \
            * np.asarray(ids, np.float32)[:, None, None, None]
        return vals, -vals

    def dequant_kind(ids):
        return dequant_pair(ids)[0]

    def look(ids, kind="k"):
        return memo.lookup(0, np.asarray(ids), kind, dequant_pair,
                           dequant_kind)

    look([7])
    look([9])
    look([7])    # 7 most recent
    look([11])   # evicts 9
    assert memo.slot(0, 9) == -1
    assert memo.slot(0, 7) >= 0 and memo.slot(0, 11) >= 0
    vals, misses, _paired = look([7, 11], kind="v")
    assert misses == 0
    assert vals.shape == (1, 2, 2, 2)  # (heads, ids, block, head_dim)
    np.testing.assert_array_equal(vals[0, :, 0, 0], [-7.0, -11.0])
