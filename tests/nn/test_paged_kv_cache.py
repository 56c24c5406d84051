"""Paged + FineQ-quantized KV caches: block pooling, parity, round-trips."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.clusters import cluster_weights, initial_schemes
from repro.core.encoding import (channel_scales, harmonize_pairs,
                                 quantize_codes)
from repro.nn.kv_cache import KVCache
from repro.nn.kv_codec import dequantize_kv_channels, quantize_kv_block
from repro.nn.paged_kv_cache import PagedKVCache, QuantizedPagedKVCache
from tests.kv_oracle import dense_context


def random_kv(rng, batch, heads, seq, head_dim):
    return (rng.standard_normal((batch, heads, seq, head_dim)).astype(np.float32),
            rng.standard_normal((batch, heads, seq, head_dim)).astype(np.float32))


def prefill(cache, layer, k, v, rows, lens=None):
    """Fresh-row prefill: a span write from position zero (``lens`` are
    the true lengths of right-padded rows; default the full width)."""
    if lens is None:
        lens = np.full(len(rows), k.shape[2])
    cache.prefill_rows(layer, k, v, rows, np.zeros(len(rows), dtype=np.int64),
                       lens)


# ---------------------------------------------------------------------- #
# FP32 paged cache vs the rectangular reference
# ---------------------------------------------------------------------- #
def test_spans_match_rectangular_cache_across_block_boundaries():
    """Uniform span writes gather value-identical to the rectangular
    cache's appends."""
    rng = np.random.default_rng(0)
    paged = PagedKVCache(2, batch=2, block_size=4, initial_blocks=2)
    rect = KVCache(2, batch=2, initial_capacity=4)
    rows = np.arange(2)
    for seq in (3, 1, 2, 5, 8, 1, 9):  # crosses many block boundaries
        for layer in range(2):
            k, v = random_kv(rng, 2, 3, seq, 8)
            paged.prefill_rows(layer, k, v, rows,
                               np.full(2, paged.layer_len(layer)),
                               np.full(2, seq))
            got_k, got_v = dense_context(paged, layer)
            want_k, want_v = rect.append(layer, k, v)
            np.testing.assert_array_equal(got_k, want_k)
            np.testing.assert_array_equal(got_v, want_v)
    assert paged.seq_len == 29
    assert paged.blocks_in_use() == 2 * 8  # ceil(29/4) blocks per row


def test_write_token_matches_rectangular_cache():
    """Uniform single-token writes read back what the rectangle's
    appends hold."""
    rng = np.random.default_rng(1)
    paged = PagedKVCache(1, batch=3, block_size=4)
    rect = KVCache(1, batch=3, initial_capacity=4)
    k0, v0 = random_kv(rng, 3, 2, 4, 8)
    prefill(paged, 0, k0, v0, np.arange(3))
    rect.append(0, k0, v0)
    positions = np.array([4, 4, 4])
    for _ in range(6):  # rows advance together across the block boundary
        k1, v1 = random_kv(rng, 3, 2, 1, 8)
        assert paged.write_token(0, k1, v1, positions) is None
        got_k, got_v = dense_context(paged, 0)
        want_k, want_v = rect.append(0, k1, v1)
        np.testing.assert_array_equal(got_k, want_k)
        np.testing.assert_array_equal(got_v, want_v)
        positions = positions + 1


def test_write_token_ragged_positions():
    """Rows at different depths write into different blocks of their own."""
    rng = np.random.default_rng(2)
    cache = PagedKVCache(1, batch=3, block_size=4)
    k0, v0 = random_kv(rng, 3, 2, 6, 8)
    prefill(cache, 0, k0[:1], v0[:1], np.array([0]))
    k1, v1 = random_kv(rng, 3, 2, 1, 8)
    positions = np.array([6, 0, 0])
    cache.write_token(0, k1, v1, positions)
    got_k, _ = dense_context(cache, 0)
    assert got_k.shape[2] == 7
    np.testing.assert_array_equal(got_k[0, :, 6], k1[0, :, 0])
    np.testing.assert_array_equal(got_k[1, :, 0], k1[1, :, 0])
    np.testing.assert_array_equal(got_k[0, :, :6], k0[0])


def test_prefill_rows_fills_a_freed_subset():
    rng = np.random.default_rng(3)
    cache = PagedKVCache(1, batch=4, block_size=4)
    k0, v0 = random_kv(rng, 4, 2, 6, 8)
    prefill(cache, 0, k0, v0, np.arange(4))
    k1, v1 = random_kv(rng, 2, 2, 3, 8)
    cache.free_rows(np.array([1, 3]))
    prefill(cache, 0, k1, v1, np.array([1, 3]))
    cache.write_token(0, *random_kv(rng, 4, 2, 1, 8),
                      positions=np.array([6, 3, 6, 3]))
    got_k, _ = dense_context(cache, 0)
    np.testing.assert_array_equal(got_k[1, :, :3], k1[0])
    np.testing.assert_array_equal(got_k[3, :, :3], k1[1])
    np.testing.assert_array_equal(got_k[0, :, :6], k0[0])


# ---------------------------------------------------------------------- #
# block allocation / free / reuse
# ---------------------------------------------------------------------- #
def test_free_rows_returns_blocks_and_slots_are_reused():
    rng = np.random.default_rng(4)
    cache = PagedKVCache(1, batch=2, block_size=4, initial_blocks=4)
    k, v = random_kv(rng, 1, 2, 10, 8)  # 3 blocks
    prefill(cache, 0, k, v, np.array([0]))
    assert cache.blocks_in_use() == 3
    pool_before = cache.allocated_bytes()

    cache.free_rows(np.array([0]))
    assert cache.blocks_in_use() == 0
    assert cache.cached_tokens == 0
    assert cache.used_bytes() == 0

    # A new sequence reuses the freed blocks: the pool must not grow.
    k2, v2 = random_kv(rng, 1, 2, 12, 8)  # 3 blocks again
    prefill(cache, 0, k2, v2, np.array([0]))
    assert cache.blocks_in_use() == 3
    assert cache.allocated_bytes() == pool_before
    cache.write_token(0, *random_kv(rng, 2, 2, 1, 8),
                      positions=np.array([12, 0]))
    got_k, _ = dense_context(cache, 0)
    np.testing.assert_array_equal(got_k[0, :, :12], k2[0])


def test_pool_grows_when_free_list_runs_dry():
    rng = np.random.default_rng(5)
    cache = PagedKVCache(1, batch=1, block_size=2, initial_blocks=1)
    k, v = random_kv(rng, 1, 1, 9, 4)
    prefill(cache, 0, k, v, np.array([0]))
    got_k, _ = dense_context(cache, 0)
    np.testing.assert_array_equal(got_k, k)
    assert cache.blocks_in_use() == 5
    assert cache.allocated_bytes() >= cache.used_bytes()


def test_memory_tracks_live_tokens_not_batch_times_max():
    """The paged win: short rows stop paying for the longest row."""
    rng = np.random.default_rng(6)
    batch, long_len, short_len = 4, 32, 4
    paged = PagedKVCache(1, batch=batch, block_size=4)
    k, v = random_kv(rng, 1, 2, long_len, 8)
    prefill(paged, 0, k, v, np.array([0]))
    ks, vs = random_kv(rng, batch - 1, 2, short_len, 8)
    prefill(paged, 0, ks, vs, np.arange(1, batch))
    # 8 + 3x1 blocks of 4 tokens vs a 4 x 32 rectangle.
    assert paged.blocks_in_use() == 8 + 3
    rectangle = KVCache.projected_bytes(1, 2, 8, long_len, batch=batch,
                                        bytes_per_element=4)
    assert paged.used_bytes() < rectangle / 2


def test_used_bytes_counts_cached_tokens():
    cache = PagedKVCache(2, batch=1, block_size=4)
    k = np.ones((1, 2, 5, 8), dtype=np.float32)
    for layer in range(2):
        prefill(cache, layer, k, k.copy(), np.array([0]))
    # 2 layers x K+V x 5 tokens x heads x head_dim x fp32.
    assert cache.used_bytes() == 2 * 2 * 5 * 2 * 8 * 4


def test_boundary_at_large_positions():
    """Writes at a max_seq_len-style boundary land in the last block."""
    cache = PagedKVCache(1, batch=1, block_size=16)
    k = np.ones((1, 2, 1, 4), dtype=np.float32)
    cache.write_token(0, k, k.copy(), np.array([511]))
    got_k, _ = dense_context(cache, 0)
    assert got_k.shape[2] == 512
    assert cache.blocks_in_use() == 32
    np.testing.assert_array_equal(got_k[0, :, 511], k[0, :, 0])
    assert np.isfinite(got_k).all()  # unwritten slots are zero, not garbage


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PagedKVCache(1, batch=0)
    with pytest.raises(ValueError):
        PagedKVCache(1, batch=1, block_size=0)


# ---------------------------------------------------------------------- #
# quantized paged cache
# ---------------------------------------------------------------------- #
def reference_block_reconstruction(block):
    """FineQ-encode one ``(heads, bs, hd)`` block exactly as the cache does."""
    heads, bs, head_dim = block.shape
    matrix = block.transpose(0, 2, 1).reshape(heads * head_dim, bs)
    clusters, _ = cluster_weights(matrix)
    schemes = initial_schemes(clusters)
    scales = channel_scales(clusters, schemes)
    harmonized = harmonize_pairs(clusters, schemes, scales)
    if harmonized is not schemes:
        schemes = harmonized
        scales = channel_scales(clusters, schemes)
    codes = quantize_codes(clusters, schemes, scales)
    # The cache stores scales as FP16, so reconstruct with FP16 scales.
    fp16_scales = scales.reshape(-1).astype(np.float16).astype(np.float32)
    values = codes.astype(np.float32) * fp16_scales[:, None, None]
    flat = values.reshape(heads * head_dim, -1)[:, :bs]
    return flat.reshape(heads, head_dim, bs).transpose(0, 2, 1)


def test_quantized_block_roundtrip_matches_reference():
    """A flushed block reads back exactly as the FineQ pipeline predicts."""
    rng = np.random.default_rng(7)
    bs, heads, head_dim = 16, 2, 8
    cache = QuantizedPagedKVCache(1, batch=1, block_size=bs)
    k, v = random_kv(rng, 1, heads, bs, head_dim)
    prefill(cache, 0, k, v, np.array([0]))
    # Writing the first token of block 1 flushes (quantizes) block 0.
    k1, v1 = random_kv(rng, 1, heads, 1, head_dim)
    cache.write_token(0, k1, v1, np.array([bs]))
    got_k, got_v = dense_context(cache, 0)
    np.testing.assert_allclose(got_k[0, :, :bs],
                               reference_block_reconstruction(k[0]),
                               rtol=0, atol=1e-6)
    np.testing.assert_allclose(got_v[0, :, :bs],
                               reference_block_reconstruction(v[0]),
                               rtol=0, atol=1e-6)
    # The buffered (current-block) token stays bit-exact FP32.
    np.testing.assert_array_equal(got_k[0, :, bs], k1[0, :, 0])


def test_quantized_roundtrip_error_is_bounded_per_channel():
    """Reconstruction error never exceeds the channel's own magnitude."""
    rng = np.random.default_rng(8)
    block = rng.standard_normal((2, 16, 8)).astype(np.float32)
    payload, scales = quantize_kv_block(block[None])
    restored = dequantize_kv_channels(payload, scales, 16)
    matrix = block.transpose(0, 2, 1).reshape(-1, 16)
    max_abs = np.abs(matrix).max(axis=1, keepdims=True)
    assert (np.abs(restored - matrix) <= max_abs + 1e-6).all()


def test_quantized_buffer_is_exact_until_block_fills():
    """Tokens in the current block read back bit-for-bit."""
    rng = np.random.default_rng(9)
    cache = QuantizedPagedKVCache(1, batch=2, block_size=8)
    kept = []
    for position in range(8):
        k, v = random_kv(rng, 2, 2, 1, 4)
        kept.append(k)
        cache.write_token(0, k, v, np.full(2, position))
        got_k, _ = dense_context(cache, 0)
        for t, want in enumerate(kept):
            np.testing.assert_array_equal(got_k[:, :, t], want[:, :, 0])
    assert cache.blocks_in_use() == 0  # nothing flushed yet


def test_quantized_used_bytes_at_least_4x_smaller_on_full_blocks():
    rng = np.random.default_rng(10)
    heads, head_dim, bs, seq = 4, 32, 16, 129  # 8 full blocks + 1 buffered
    quant = QuantizedPagedKVCache(1, batch=1, block_size=bs)
    plain = PagedKVCache(1, batch=1, block_size=bs)
    k, v = random_kv(rng, 1, heads, seq, head_dim)
    prefill(quant, 0, k, v, np.array([0]))
    prefill(plain, 0, k, v, np.array([0]))
    assert quant.cached_tokens == plain.cached_tokens == seq
    assert quant.used_bytes() * 4 <= plain.used_bytes()


def test_quantized_free_and_reuse():
    rng = np.random.default_rng(11)
    cache = QuantizedPagedKVCache(1, batch=1, block_size=4)
    k, v = random_kv(rng, 1, 2, 11, 4)  # 2 quantized blocks + 3 buffered
    prefill(cache, 0, k, v, np.array([0]))
    assert cache.blocks_in_use() == 2
    cache.free_rows(np.array([0]))
    assert cache.blocks_in_use() == 0
    assert cache.used_bytes() == 0
    k2, v2 = random_kv(rng, 1, 2, 5, 4)
    prefill(cache, 0, k2, v2, np.array([0]))
    cache.write_token(0, *random_kv(rng, 1, 2, 1, 4),
                      positions=np.array([5]))
    got_k, _ = dense_context(cache, 0)
    np.testing.assert_array_equal(got_k[0, :, 4:5], k2[0, :, 4:5])


def test_prefill_rows_ragged_lengths_account_true_tokens():
    """Right-padded prefills must not charge short rows for padding."""
    rng = np.random.default_rng(12)
    cache = PagedKVCache(1, batch=2, block_size=4)
    k, v = random_kv(rng, 2, 2, 10, 8)  # padded width 10; true lens 5, 10
    prefill(cache, 0, k, v, np.array([0, 1]),
                     lens=np.array([5, 10]))
    assert cache.cached_tokens == 15
    assert cache.blocks_in_use() == 2 + 3  # ceil(5/4) + ceil(10/4)
    cache.write_token(0, *random_kv(rng, 2, 2, 1, 8),
                      positions=np.array([5, 10]))
    got_k, _ = dense_context(cache, 0)
    np.testing.assert_array_equal(got_k[0, :, :5], k[0, :, :5])
    np.testing.assert_array_equal(got_k[1, :, :10], k[1])


def test_quantized_ragged_prefill_keeps_overlay_aligned():
    """Regression: a padded prefill crossing a block boundary must not
    shift the short row's FP32 current-block overlay (tokens written
    after admission were surfacing at masked positions while their real
    positions read quantized padding garbage)."""
    rng = np.random.default_rng(13)
    cache = QuantizedPagedKVCache(1, batch=2, block_size=4)
    k, v = random_kv(rng, 2, 2, 10, 8)  # row 0 truly 5 tokens, row 1 ten
    prefill(cache, 0, k, v, np.array([0, 1]),
                     lens=np.array([5, 10]))
    assert cache.cached_tokens == 15
    # Decode one token per row at each row's true next position.
    k1, v1 = random_kv(rng, 2, 2, 1, 8)
    cache.write_token(0, k1, v1, np.array([5, 10]))
    got_k, _ = dense_context(cache, 0)
    # The freshly written tokens are visible at their true positions...
    np.testing.assert_array_equal(got_k[0, :, 5], k1[0, :, 0])
    np.testing.assert_array_equal(got_k[1, :, 10], k1[1, :, 0])
    # ...and each row's buffered (not yet quantized) tokens stay exact.
    np.testing.assert_array_equal(got_k[0, :, 4], k[0, :, 4])
    np.testing.assert_array_equal(got_k[1, :, 8:10], k[1, :, 8:10])


# ---------------------------------------------------------------------- #
# one sharing contract and one byte accounting for both formats
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
def test_share_block_advertises_only_written_tokens(cls):
    """A row holding 5 tokens of an 8-token block can share 1-5 of them:
    ``fill=0`` and any fill past the written tokens are refused on both
    formats, so the prefix store can never advertise unwritten slots."""
    rng = np.random.default_rng(20)
    cache = cls(1, batch=2, block_size=8)
    k, v = random_kv(rng, 1, 2, 5, 4)
    prefill(cache, 0, k, v, np.array([0]))
    for depth, fill in ((0, 0), (0, 6), (0, 8), (1, 1)):
        with pytest.raises(ValueError):
            cache.share_block(0, depth, fill)
    block = cache.share_block(0, 0, 5)
    assert cache.block_refcount(block) >= 1
    cache.release_blocks([block])


def byte_states(cls):
    """``(used, physical, allocated)`` bytes after each step of a session
    that adopts a shared prefix with a copy-on-write partial tail, leaves
    a full block lazily buffered and frees a row."""
    rng = np.random.default_rng(21)
    cache = cls(2, batch=4, block_size=4, initial_blocks=4)
    states = []

    def note():
        states.append((cache.used_bytes(), cache.physical_used_bytes(),
                       cache.allocated_bytes()))

    def span(row, start, length):
        k, v = random_kv(rng, 1, 2, length, 8)
        for layer in range(2):
            cache.prefill_rows(layer, k, v, np.array([row]),
                               np.array([start]), np.array([length]))

    note()
    span(0, 0, 10)                        # two full blocks and a tail
    note()
    shared = [cache.share_block(0, depth, 4) for depth in range(2)]
    shared.append(cache.share_block(0, 2, 2))
    cache.adopt_prefix(1, shared[:2], shared[2], 2)
    note()                                # the prefix store keeps `shared`
    span(1, 2 * 4 + 2, 1)                 # writes into the copied tail
    note()
    for pos in range(4):                  # fills block 0; nothing flushed
        k, v = random_kv(rng, 1, 2, 1, 8)
        for layer in range(2):
            cache.write_token(layer, k, v, np.array([pos]),
                              rows=np.array([2]))
    note()
    span(3, 0, 7)
    cache.free_rows(np.array([3]))
    note()
    cache.release_blocks(shared)
    note()
    return states


#: ``byte_states`` per format: what the gated ``kv_bytes_per_token``
#: and the engine's memory stats read.
PINNED_BYTES = {
    PagedKVCache: [(0, 0, 0), (2560, 3072, 4096), (5120, 4096, 4096),
                   (5376, 4096, 4096), (6400, 5120, 8192),
                   (6400, 5120, 8192), (6400, 5120, 8192)],
    QuantizedPagedKVCache: [(0, 0, 0), (1664, 1664, 6400),
                            (3328, 2752, 6400), (3584, 3008, 6400),
                            (4608, 4032, 6400), (4608, 4032, 6400),
                            (4608, 3456, 6400)],
}


@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
def test_byte_accounting_is_pinned(cls):
    assert byte_states(cls) == PINNED_BYTES[cls]


@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
def test_retired_cache_goes_with_its_last_reference(cls):
    """The codec refers back to its cache without a reference cycle, so
    an engine's retired cache frees its pools at once, not whenever the
    cycle collector next runs."""
    rng = np.random.default_rng(22)
    cache = cls(1, batch=1, block_size=4)
    k, v = random_kv(rng, 1, 2, 9, 4)
    prefill(cache, 0, k, v, np.array([0]))
    gone = weakref.ref(cache)
    gc.disable()
    try:
        del cache
        assert gone() is None
    finally:
        gc.enable()
