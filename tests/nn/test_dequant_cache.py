"""The store FineQ reads every block from: re-seals, frees, COW.

Every seal stores the block's quantized values by block id, and reads
only ever gather from there, so these tests pin the edges where a read
could see values its block no longer holds — a block freed and its id
recycled, a payload sealed again, either between the K and V passes of a
layer or between two layers of a forward — and the store's own shape:
grown with the pool, each row's current block and a zero block last.
"""

import numpy as np
import pytest

from repro.nn.paged_kv_cache import PagedKVCache, QuantizedPagedKVCache
from tests.kv_oracle import current_blocks, dense_context

HEADS, HEAD_DIM, BS = 2, 8, 4


def make_cache(batch=2, num_layers=2, seq=13, seed=0):
    cache = QuantizedPagedKVCache(num_layers, batch=batch, block_size=BS,
                                  chunk_blocks=2)
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


def test_second_read_hits_and_values_stay_identical():
    """Sealed blocks are read from the store, every one a hit, and a
    second read returns the same bytes as the first and the oracle."""
    cache, _ = make_cache()
    cache.take_read_stats()
    first = read_context(cache)
    sealed = int(cache._blocks_per_row.sum())
    assert cache.take_read_stats().dequant_hits == sealed > 0
    second = read_context(cache)
    assert cache.take_read_stats().dequant_hits == sealed
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(first, dense_context(cache, 0)[0])


def test_free_rows_invalidates_and_recycled_block_rereads_fresh():
    """A freed block's id is recycled by the next seal, which stores the
    *new* values: the reader sees them, never the old ones."""
    cache, rng = make_cache()
    before = read_context(cache)
    freed = {int(b) for b in cache._tables[0, :cache._blocks_per_row[0]]}
    cache.free_rows(np.array([0]))
    # Re-prefill row 0 with different content; the freed ids recycle.
    seq = 13
    k2 = rng.standard_normal((1, HEADS, seq, HEAD_DIM)).astype(np.float32)
    v2 = rng.standard_normal((1, HEADS, seq, HEAD_DIM)).astype(np.float32)
    for layer in range(cache.num_layers):
        cache.prefill_rows(layer, k2, v2, np.array([0]), np.array([0]),
                           np.array([seq]))
    assert freed & {int(b) for b in
                    cache._tables[0, :cache._blocks_per_row[0]]}
    got = read_context(cache)
    np.testing.assert_array_equal(got, dense_context(cache, 0)[0])
    assert not np.array_equal(got[0], before[0])


def test_payload_rewrite_invalidates_entry():
    """A seal into a block — charged, as a full block is, or not, as a
    partial shared tail is — replaces what the store held for it: the
    next read serves the new payload's values."""
    cache, rng = make_cache(batch=1, num_layers=1, seq=BS)
    # Token BS starts block 1 and seals the buffered block 0.
    k1 = rng.standard_normal((1, HEADS, 1, HEAD_DIM)).astype(np.float32)
    cache.write_token(0, k1, k1.copy(), np.array([BS]))
    block = int(cache._tables[0, 0])
    assert np.abs(cache.codec.store.arrays[0][0, block]).max() > 0
    zeros = np.zeros((1, HEADS, BS, HEAD_DIM), np.float32)
    before = read_context(cache)[:, :, :BS]
    for fill, charge in ((zeros, True), (zeros + 1, False), (zeros, False),
                         (zeros - 1, True)):
        cache.codec._flush(np.array([0]), np.array([block]), fill, zeros,
                           charge=charge)
        got = read_context(cache)[:, :, :BS]
        np.testing.assert_array_equal(
            got, dense_context(cache, 0)[0][:, :, :BS])
        assert not np.array_equal(got, before)
        assert (got == 0).all() == (fill == 0).all()
        before = got


def test_store_grows_with_the_pool_and_keeps_the_spares_last():
    """Decode two rows from a two-block pool through several pool
    growths, on either codec: after each, the store is two FP32 arrays,
    K and V, holding exactly the pool's blocks, on FineQ one current
    block per row — the current blocks still holding what the rows
    wrote there — and the zero block; and chunk reads equal the
    oracle's."""
    batch, layers, steps = 2, 2, 26
    rng = np.random.default_rng(5)
    written = rng.standard_normal(
        (2, layers, batch, HEADS, steps, HEAD_DIM)).astype(np.float32)
    for cls, spares in ((QuantizedPagedKVCache, batch + 1),
                        (PagedKVCache, 1)):
        cache = cls(layers, batch=batch, block_size=BS, initial_blocks=2,
                    chunk_blocks=2)
        sizes = []
        for pos in range(steps):
            for layer in range(layers):
                k, v = written[:, layer, :, :, pos:pos + 1]
                cache.write_token(layer, k, v, np.full(batch, pos))
            if cache._total_blocks in sizes:
                continue
            sizes.append(cache._total_blocks)
            assert [(array.shape, array.dtype)
                    for array in cache.codec.store.arrays] == \
                [((layers, cache._total_blocks + spares, HEADS, BS,
                   HEAD_DIM), np.float32)] * 2
            lo = pos - pos % BS
            for current, want in zip(current_blocks(cache) if spares > 1
                                     else (), written):
                assert current[:, :, :, :pos - lo + 1].tobytes() == \
                    want[:, :, :, lo:pos + 1].tobytes()
            assert not cache.codec.store.arrays[0][:, -1].any()
            for layer in range(layers):
                want = dense_context(cache, layer)
                for index, kind in enumerate(("k", "v")):
                    np.testing.assert_array_equal(
                        read_context(cache, layer, kind), want[index])
        assert len(sizes) >= 4                  # the first pool + 3 growths


def rewrite_block(cache, layer):
    """Re-encode row 0's second block of ``layer`` with new values."""
    block = int(cache._tables[0, 1])
    ones = np.ones((1, HEADS, BS, HEAD_DIM), np.float32)
    cache.codec._flush(np.array([layer]), np.array([block]), ones * 2,
                       ones * 3)


MUTATIONS = {
    "rewrite": rewrite_block,
    "free-rows": lambda cache, layer: cache.free_rows(np.array([0])),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_memo_change_between_k_and_v_passes_is_honoured(mutation):
    """A block sealed again or freed between a layer's K pass and its V
    pass: the V pass, which reuses the forward's read plan, reads what
    the cache holds now."""
    cache, _ = make_cache(seq=29)
    assert cache.layer_len(0) > 2 * cache.chunk_blocks * BS  # 3+ chunks
    for _start, _k in cache.context_blocks(0, kind="k"):
        pass
    MUTATIONS[mutation](cache, 0)
    np.testing.assert_array_equal(read_context(cache, 0, "v"),
                                  dense_context(cache, 0)[1])


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_memo_change_between_layers_is_honoured(mutation):
    """The same between two layers of one forward: layer 1 reads what
    the mutation left, not what layer 0's read plan saw."""
    cache, _ = make_cache(seq=29)
    for kind in ("k", "v"):
        read_context(cache, 0, kind)
    MUTATIONS[mutation](cache, 1)
    want = dense_context(cache, 1)
    for index, kind in enumerate(("k", "v")):
        np.testing.assert_array_equal(read_context(cache, 1, kind),
                                      want[index])
