"""Block-resident attention reads: chunk values, decode and prefill
parity, chunk-grid stability, memoisation."""

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F
from repro.nn.block_attention import (block_decode_attention,
                                      block_prefill_attention)
from repro.nn.paged_kv_cache import PagedKVCache, QuantizedPagedKVCache
from tests.kv_oracle import dense_context


HEADS, HEAD_DIM = 2, 8


def build_cache(cls, num_layers=2, batch=3, block_size=4, seq=None,
                chunk_blocks=2, seed=0, **kwargs):
    """A cache with ragged rows crossing several block boundaries."""
    rng = np.random.default_rng(seed)
    cache = cls(num_layers, batch=batch, block_size=block_size,
                chunk_blocks=chunk_blocks, **kwargs)
    lens = np.array([seq or 13, 6, 10][:batch])
    width = int(lens.max())
    k = rng.standard_normal((batch, HEADS, width, HEAD_DIM)).astype(np.float32)
    v = rng.standard_normal((batch, HEADS, width, HEAD_DIM)).astype(np.float32)
    for layer in range(num_layers):
        cache.prefill_rows(layer, k, v, np.arange(batch),
                           np.zeros(batch, dtype=np.int64), lens)
    return cache, rng


def concat_chunks(cache, layer, kind, rows=None):
    total = cache.layer_len(layer)
    # A chunk lives in the cache's reusable buffers: copy to keep it.
    parts = [chunk.copy() for _start, chunk in
             cache.context_blocks(layer, rows=rows, kind=kind)]
    return np.concatenate(parts, axis=2)[:, :, :total]


def reference_attention(q, k, v, kv_mask):
    """The dense path's math: the float32 ``Tensor`` / ``F.softmax`` op
    sequence ``MultiHeadAttention.forward`` runs on a cached context."""
    q, k, v = Tensor(q), Tensor(k), Tensor(v)
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(q.shape[-1]))
    if kv_mask is not None:
        scores = scores + Tensor(kv_mask)
    return (F.softmax(scores, axis=-1) @ v).data


def length_mask(cache, rows=None):
    lens = cache._row_len if rows is None else cache._row_len[rows]
    total = cache.layer_len(0)
    allow = np.arange(total)[None, :] < lens[:, None]
    return np.where(allow, 0.0, -np.inf).astype(np.float32)[:, None, None, :]


# ---------------------------------------------------------------------- #
# chunk values match the dense gather bit for bit
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
@pytest.mark.parametrize("kind", ["k", "v"])
def test_chunks_concatenate_to_gather_context(cls, kind):
    """context_blocks yields exactly the values the dense gather holds — the
    'same dequant values' half of the block-resident parity claim."""
    cache, _ = build_cache(cls)
    for layer in range(cache.num_layers):
        dense = dense_context(cache, layer)[0 if kind == "k" else 1]
        np.testing.assert_array_equal(concat_chunks(cache, layer, kind),
                                      dense)


@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
def test_kv_chunks_match_single_kind_passes(cls):
    """kind="kv" yields the same operand chunks as the two single passes."""
    cache, _ = build_cache(cls)
    total = cache.layer_len(0)
    both = [(s, k.copy(), v.copy())
            for s, k, v in cache.context_blocks(0, kind="kv")]
    k_joint = np.concatenate([k for _s, k, _v in both], axis=2)[:, :, :total]
    v_joint = np.concatenate([v for _s, _k, v in both], axis=2)[:, :, :total]
    np.testing.assert_array_equal(k_joint, concat_chunks(cache, 0, "k"))
    np.testing.assert_array_equal(v_joint, concat_chunks(cache, 0, "v"))


@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
def test_context_chunk_pair_matches_gather(cls):
    cache, _ = build_cache(cls, chunk_blocks=8)  # whole context, one chunk
    k, v = cache.context_chunk_pair(0)
    want_k, want_v = dense_context(cache, 0)
    np.testing.assert_array_equal(k, want_k)
    np.testing.assert_array_equal(v, want_v)


def test_chunks_respect_row_subsets():
    cache, _ = build_cache(QuantizedPagedKVCache)
    rows = np.array([0, 2])
    dense_k, _ = dense_context(cache, 0, rows=rows)
    np.testing.assert_array_equal(concat_chunks(cache, 0, "k", rows=rows),
                                  dense_k)


# ---------------------------------------------------------------------- #
# attention output parity with the pre-change path
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
def test_single_chunk_attention_bit_identical(cls):
    """Contexts inside one chunk window reproduce the dense path's
    output bit for bit (same values, same op order, same matmuls, same
    float32 arithmetic)."""
    cache, rng = build_cache(cls, chunk_blocks=4)  # 16-token window >= 13
    q = rng.standard_normal((3, HEADS, 1, HEAD_DIM)).astype(np.float32)
    kv_mask = length_mask(cache)
    got = block_decode_attention(q, cache, 0, kv_mask=kv_mask)
    assert got.dtype == np.float32
    k, v = dense_context(cache, 0)
    np.testing.assert_array_equal(got, reference_attention(q, k, v, kv_mask))


@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
def test_multi_chunk_attention_matches_gather_reference(cls):
    """Beyond one chunk the scores/probabilities stay bit-identical and
    the streamed value accumulation agrees to accumulation rounding."""
    cache, rng = build_cache(cls, seq=29, chunk_blocks=2)
    q = rng.standard_normal((3, HEADS, 1, HEAD_DIM)).astype(np.float32)
    kv_mask = length_mask(cache)
    for layer in range(cache.num_layers):
        got = block_decode_attention(q, cache, layer, kv_mask=kv_mask)
        assert got.dtype == np.float32
        k, v = dense_context(cache, layer)
        want = reference_attention(q, k, v, kv_mask)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
        # The score path itself is exact: masked positions contribute
        # exact zeros, so fully-masked tail slots cannot perturb rows.
        assert np.isfinite(got).all()


def test_multi_chunk_scores_bit_identical_to_dense():
    """The per-chunk q @ kᵀ reduction equals the dense matmul exactly."""
    cache, rng = build_cache(PagedKVCache, seq=29, chunk_blocks=2)
    q = rng.standard_normal((3, HEADS, 1, HEAD_DIM)).astype(np.float32)
    total = cache.layer_len(0)
    chunks = []
    for start, k_chunk in cache.context_blocks(0, kind="k"):
        width = min(k_chunk.shape[2], total - start)
        chunks.append(q @ k_chunk[:, :, :width].transpose(0, 1, 3, 2))
    k_dense, _ = dense_context(cache, 0)
    np.testing.assert_array_equal(np.concatenate(chunks, axis=-1),
                                  q @ k_dense.transpose(0, 1, 3, 2))


def test_write_token_returns_none():
    cache, rng = build_cache(PagedKVCache)
    k = rng.standard_normal((3, HEADS, 1, HEAD_DIM)).astype(np.float32)
    positions = cache._row_len.copy()
    assert cache.write_token(0, k, k.copy(), positions) is None
    got_k, _ = dense_context(cache, 0)
    np.testing.assert_array_equal(
        got_k[np.arange(3), :, positions], k[:, :, 0])


# ---------------------------------------------------------------------- #
# per-step block-id memoisation (shared tables resolved once per step)
# ---------------------------------------------------------------------- #
def test_block_ids_memoised_across_layers_until_table_mutation():
    cache, rng = build_cache(PagedKVCache)
    nblk = -(-cache.layer_len(0) // cache.block_size)
    first = cache._block_ids(nblk)
    assert cache._block_ids(nblk) is first  # layer 2..N reuse layer 1's
    rows = np.array([0, 2])
    sub = cache._block_ids(nblk, rows)
    assert cache._block_ids(nblk, rows) is sub
    # Crossing a block boundary (new block allocated) must invalidate.
    k = rng.standard_normal((1, HEADS, 1, HEAD_DIM)).astype(np.float32)
    cache.write_token(0, k, k.copy(), np.array([16]), rows=np.array([0]))
    assert cache._block_ids(nblk + 1) is not first
    ids = cache._block_ids(nblk + 1)
    np.testing.assert_array_equal(ids[:, :nblk], np.asarray(first))


def test_block_ids_memo_invalidated_on_free_and_adopt():
    cache, _ = build_cache(PagedKVCache)
    nblk = -(-cache.layer_len(0) // cache.block_size)
    first = cache._block_ids(nblk)
    shared = cache.share_block(0, 0, cache.block_size)
    cache.free_rows(np.array([1]))
    assert cache._block_ids(nblk) is not first
    again = cache._block_ids(nblk)
    cache.adopt_prefix(1, [shared])
    assert cache._block_ids(nblk) is not again


# ---------------------------------------------------------------------- #
# multi-query prefill attention over the chunk grid
# ---------------------------------------------------------------------- #
def suffix_mask(cache, starts, widths, rows, total=None):
    """Per-row causal mask for suffix queries at absolute positions
    ``starts[j] + i`` (the engine's chunk-wave mask), ``total`` keys
    wide (default: the whole cache-wide context)."""
    total = cache.layer_len(0) if total is None else total
    offsets = np.arange(int(widths.max()))
    query_pos = starts[:, None] + offsets[None, :]
    allow = np.arange(total)[None, None, :] <= query_pos[:, :, None]
    return np.where(allow, 0.0, -np.inf).astype(np.float32)[:, None]


@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
def test_prefill_attention_matches_dense_reference(cls):
    """Multi-query chunked prefill attention agrees with the dense
    gather reference over ragged rows incl. partial-block tails."""
    cache, rng = build_cache(cls, seq=13, chunk_blocks=2)
    lens = cache._row_len.copy()
    starts = np.zeros(3, dtype=np.int64)
    q = rng.standard_normal((3, HEADS, int(lens.max()),
                             HEAD_DIM)).astype(np.float32)
    kv_mask = suffix_mask(cache, starts, lens, np.arange(3))
    for layer in range(cache.num_layers):
        got = block_prefill_attention(q, cache, layer, kv_mask=kv_mask)
        assert got.dtype == np.float32
        k, v = dense_context(cache, layer)
        want = reference_attention(q, k, v, kv_mask)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def _grid_outputs(cls, q):
    """Rows 0-1's 13-token prefill attention with row 2 short or four
    windows longer, under a cache-wide mask and one that stops at the
    queries' own reach."""
    rows = np.array([0, 1])
    starts = np.zeros(2, dtype=np.int64)
    widths = np.array([13, 13], dtype=np.int64)
    outs = []
    for extra in (0, 30):  # row 2 ends at 10 or 40 of the 8-key windows
        cache, _ = build_cache(cls, seq=13, chunk_blocks=2, seed=0)
        if extra:
            filler = np.random.default_rng(9).standard_normal(
                (1, HEADS, extra, HEAD_DIM)).astype(np.float32)
            for layer in range(cache.num_layers):
                cache.prefill_rows(layer, filler, filler.copy(),
                                   np.array([2]), np.array([10]),
                                   np.array([extra]))
        for total in (cache.layer_len(0), 13):  # grid: 2 or 5 windows, 2
            kv_mask = suffix_mask(cache, starts, widths, rows, total)
            outs.append(block_prefill_attention(q, cache, 0, kv_mask=kv_mask,
                                                rows=rows))
    return outs


def test_prefill_attention_chunk_grid_stable():
    """The bit-exactness invariant behind chunked == one-shot prefill: a
    row's attention output must not move when *other* rows grow the
    cache-wide context, nor when the mask — and with it the chunk grid
    and the read — stops at the queries' own reach instead of there.
    (Both backends looped, not parametrized, so the test keeps its id.)"""
    rng = np.random.default_rng(3)
    q = rng.standard_normal((2, HEADS, 13, HEAD_DIM)).astype(np.float32)
    for cls in (PagedKVCache, QuantizedPagedKVCache):
        first, *others = _grid_outputs(cls, q)
        for out in others:
            np.testing.assert_array_equal(out, first, err_msg=cls.__name__)
