"""The fineq KV write path: one all-layer flush into the store.

A boundary crossing quantizes every layer's K and V buffers in one
kernel call and stores the quantized values.  That may not change a
stored byte, a read value or an accounted byte, so every scenario here
is driven twice — on the production cache and on the
``stepwise_fineq_cache`` reference (per-layer flushes through the
line-by-line kernel and per-bit packer, its store filled by decoding its
own payload) — and compared bit for bit.  The seal kernel itself never
packs: a property pins its values to the decoded 2.33-bit format.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clusters import cluster_weights
from repro.core.encoding import encode_channels
from repro.core.packing import pack_matrix
from repro.nn.kv_codec import quantize_kv_block
from repro.nn.paged_kv_cache import QuantizedPagedKVCache
from tests.kv_oracle import dense_context, reference_quantize, unpack_blocks

LAYERS, BATCH, HEADS, HEAD_DIM = 3, 4, 2, 4


def read(cache, layer, rows=None):
    """The block-resident read, concatenated: what attention consumes."""
    total = cache.layer_len(layer)
    chunks = [(s, k.copy(), v.copy()) for s, k, v in
              cache.context_blocks(layer, rows=rows, kind="kv")]
    k = np.concatenate([c[1] for c in chunks], axis=2)[:, :, :total]
    v = np.concatenate([c[2] for c in chunks], axis=2)[:, :, :total]
    return k, v


class Session:
    """Applies one operation stream to several caches in lockstep."""

    def __init__(self, caches, seed, block_size):
        self.caches = caches
        self.rng = np.random.default_rng(seed)
        self.bs = block_size
        self.lens = np.zeros(BATCH, dtype=np.int64)   # 0 = idle row
        self.streamed = [0] * len(caches)
        self.on_step = []

    def kv(self, n, seq):
        shape = (LAYERS, 2, n, HEADS, seq, HEAD_DIM)
        data = self.rng.standard_normal(shape).astype(np.float32)
        # Channel-aligned outliers, like real K/V activations.
        data[..., self.rng.integers(HEAD_DIM)] *= 8.0
        return data

    def _finish(self, rows):
        for i, cache in enumerate(self.caches):
            for layer in range(LAYERS):
                got = read(cache, layer, rows)
                want = dense_context(cache, layer, rows)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
            self.streamed[i] += cache.take_read_stats().streamed_bytes
        for check in self.on_step:
            check()

    def prefill(self, row, length):
        start = int(self.lens[row])
        data = self.kv(1, length)
        rows = np.array([row])
        for cache in self.caches:
            for layer in range(LAYERS):
                cache.prefill_rows(layer, data[layer, 0], data[layer, 1],
                                   rows, np.array([start]),
                                   np.array([length]))
        self.lens[row] += length
        self._finish(rows)

    def decode(self, rows, positions=None):
        rows = np.asarray(rows)
        positions = self.lens[rows] if positions is None else positions
        data = self.kv(len(rows), 1)
        for cache in self.caches:
            for layer in range(LAYERS):
                cache.write_token(layer, data[layer, 0], data[layer, 1],
                                  positions, rows=rows)
        np.maximum.at(self.lens, rows, positions + 1)
        self._finish(rows)

    def verify(self, rows):
        """Speculative clone-rows verify, then rollback: every position
        is its own width-1 row, chunked at the block boundary."""
        rows = np.asarray(rows)
        before = self.lens[rows].copy()
        take = self.rng.integers(1, self.bs - before % self.bs + 1)
        clone_rows = np.repeat(rows, take)
        clone_pos = np.concatenate([np.arange(s, s + t)
                                    for s, t in zip(before, take)])
        self.decode(clone_rows, clone_pos)
        kept = before + self.rng.integers(1, take + 1)
        rollback = kept < self.lens[rows]
        for cache in self.caches:
            cache.truncate_rows(rows[rollback], kept[rollback])
        self.lens[rows] = kept
        self._finish(rows)

    def cancel(self, row):
        for cache in self.caches:
            cache.free_rows(np.array([row]))
        self.lens[row] = 0
        self._finish(np.flatnonzero(self.lens > 0))

    def share(self, src, dst, with_tail):
        """``dst`` (idle) adopts ``src``'s full blocks — freezing the
        current one when it is exactly full — and optionally its tail."""
        full = int(self.lens[src]) // self.bs
        fill = int(self.lens[src]) - full * self.bs if with_tail else 0
        for cache in self.caches:
            ids = [cache.share_block(src, depth, self.bs)
                   for depth in range(full)]
            tail = cache.share_block(src, full, fill) if fill else None
            cache.adopt_prefix(dst, ids, tail, fill)
            cache.release_blocks(ids + ([tail] if fill else []))
        self.lens[dst] = full * self.bs + fill
        self._finish(np.array([src, dst]))

    def some(self, rows, share):
        """A random non-empty subset of ``rows``."""
        picked = rows[self.rng.random(len(rows)) < share]
        return picked if len(picked) else rows[:1]

    def step(self):
        rng = self.rng
        live = np.flatnonzero(self.lens > 0)
        idle = np.flatnonzero(self.lens == 0)
        op = rng.choice(["prefill", "decode", "decode", "decode", "verify",
                         "cancel", "share", "chunk"])
        if op == "prefill" and len(idle):
            self.prefill(rng.choice(idle), int(rng.integers(1, 3 * self.bs)))
        elif op == "chunk" and len(live):
            self.prefill(rng.choice(live), int(rng.integers(1, 2 * self.bs)))
        elif op == "decode" and len(live):
            self.decode(self.some(live, 0.7))
        elif op == "verify" and len(live):
            self.verify(self.some(live, 0.6))
        elif op == "cancel" and len(live):
            self.cancel(rng.choice(live))
        elif op == "share" and len(live) and len(idle):
            src = rng.choice(live)
            if self.lens[src] >= self.bs:
                self.share(src, rng.choice(idle), bool(rng.integers(2)))


def assert_same_storage(fused, reference):
    for name in ("_tables", "_blocks_per_row", "_row_len", "_refcount"):
        np.testing.assert_array_equal(getattr(fused, name),
                                      getattr(reference, name))
    for index, (got, want) in enumerate(zip(fused.codec.store.arrays,
                                            reference.codec.store.arrays)):
        for layer in range(LAYERS):
            assert got[layer].tobytes() == want[layer].tobytes(), \
                (index, layer)


def make(cls, block_size, **kwargs):
    return cls(LAYERS, batch=BATCH, block_size=block_size, chunk_blocks=2,
               **kwargs)


# 12 examples under the ``default`` profile; ``soak`` scales them up.
@settings(max_examples=settings.default.max_examples // 5, deadline=None)
@given(seed=st.integers(0, 10_000), block_size=st.sampled_from([4, 8]))
def test_pools_equal_per_layer_stepwise_flush(stepwise_fineq_cache,
                                              assert_store_coherent, seed,
                                              block_size):
    """(a) Ragged decode, cancels, block-aligned and tail adoption,
    rollback and clone-rows verify: every pool byte, buffer byte, read
    value and streamed byte equals the per-layer reference flush's; (b)
    the decoded store stays coherent after every write."""
    fused = make(QuantizedPagedKVCache, block_size)
    reference = make(stepwise_fineq_cache, block_size)
    session = Session([fused, reference], seed, block_size)

    def check():
        assert_same_storage(fused, reference)
        assert_store_coherent(fused)
        assert_store_coherent(reference)
        assert session.streamed[0] == session.streamed[1]

    session.on_step.append(check)
    session.prefill(0, 2 * block_size + 1)
    for _ in range(40):
        session.step()
    assert fused.take_read_stats().flush_calls == 0   # drained per step
    assert session.streamed[0] > 0


def test_crossing_flushes_all_layers_in_one_call(monkeypatch):
    import repro.nn.kv_codec as module
    calls = []
    real = module.quantize_kv_block

    def counting(blocks):
        calls.append(len(blocks))
        return real(blocks)

    monkeypatch.setattr(module, "quantize_kv_block", counting)
    cache = make(QuantizedPagedKVCache, 4)
    session = Session([cache], 0, 4)
    for row in range(3):
        session.prefill(row, 3)
    calls.clear()
    session.decode([0, 1, 2])            # fills block 0: nothing flushed
    assert calls == []
    session.decode([0, 1, 2])            # slot 0 of block 1: one flush
    assert calls == [3 * LAYERS * 2]     # rows x layers x {K, V}
    sealed = cache._tables[:3, 0]        # now in the store, every layer
    for values in cache.codec.store.arrays:
        assert values[:, sealed].any(axis=(2, 3, 4)).all()


def test_lagging_layer_flushes_on_its_own_crossing(stepwise_fineq_cache,
                                                   assert_store_coherent):
    """A direct caller driving one layer at a time: the sibling layers'
    buffers are incomplete when layer 0 crosses, so they are left out of
    that flush and quantize their own block when they get there."""
    bs, tokens = 4, 11
    rng = np.random.default_rng(3)
    data = rng.standard_normal(
        (LAYERS, 2, 1, HEADS, tokens, HEAD_DIM)).astype(np.float32)
    rows = np.array([1])

    def drive(cache, order):
        for layer, pos in order:
            cache.write_token(layer, data[layer, 0][:, :, pos:pos + 1],
                              data[layer, 1][:, :, pos:pos + 1],
                              np.array([pos]), rows=rows)

    lockstep = [(layer, pos) for pos in range(tokens)
                for layer in range(LAYERS)]
    layerwise = [(layer, pos) for layer in range(LAYERS)
                 for pos in range(tokens)]
    # Layer 2 runs a block ahead of layer 0, layer 1 in between.
    staggered = sorted(lockstep, key=lambda lp: lp[1] - 2 * lp[0])
    want = make(stepwise_fineq_cache, bs)
    drive(want, lockstep)
    for order in (lockstep, layerwise, staggered):
        cache = make(QuantizedPagedKVCache, bs)
        drive(cache, order)
        assert_same_storage(cache, want)
        assert_store_coherent(cache)
        for layer in range(LAYERS):
            got, ref = read(cache, layer, rows), dense_context(want, layer,
                                                               rows)
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()


def packed_round_trip(blocks):
    """``blocks`` through the production kernels of the weight path:
    fused encode, LUT packer, then the payload decoded back."""
    matrix = blocks.transpose(0, 1, 3, 2).reshape(-1, blocks.shape[2])
    clusters, _ = cluster_weights(matrix)
    codes, schemes, scales = encode_channels(clusters)
    return unpack_blocks(pack_matrix(codes, schemes, scales.reshape(-1),
                                     matrix.shape), blocks.shape)


# 15 examples per block size under the ``default`` profile.
@pytest.mark.parametrize("block", [4, 8, 16, 20])
@settings(max_examples=settings.default.max_examples // 4, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 3),
       fill=st.integers(1, 20), halves=st.booleans(),
       outliers=st.integers(0, HEAD_DIM), zeros=st.integers(0, HEAD_DIM))
def test_write_through_values_equal_decoded_payload(block, seed, n, fill,
                                                    halves, outliers, zeros):
    """What a seal stores is, bit for bit, what the 2.33-bit payload and
    FP16 scales of the same blocks decode to — through the weight
    path's kernels and through the line-by-line reference — so the
    stored values and the priced format cannot drift.  Blocks mix
    channel outliers, all-zero channels and a zero-padded tail (a
    partial block sealed for sharing); ``halves`` draws multiples of
    0.5, whose ``|x| / scale`` hits exact rounding ties and whose
    cluster ratios hit the outlier threshold exactly."""
    rng = np.random.default_rng(seed)
    shape = (n, HEADS, block, HEAD_DIM)
    blocks = rng.integers(-6, 7, size=shape) * 0.5 if halves \
        else rng.standard_normal(shape)
    blocks[..., rng.permutation(HEAD_DIM)[:outliers]] *= 12.0
    blocks[..., rng.permutation(HEAD_DIM)[:zeros]] = 0.0
    blocks[:, :, fill:] = 0.0
    blocks = blocks.astype(np.float32)
    values = quantize_kv_block(blocks)
    assert values.shape == shape and values.dtype == np.float32
    got = np.ascontiguousarray(values).tobytes()
    assert got == packed_round_trip(blocks).tobytes()
    assert got == reference_quantize(blocks).tobytes()


def test_batched_quantize_equals_separate_calls():
    """Channels are independent: one call over many blocks stores the
    values separate calls would."""
    rng = np.random.default_rng(1)
    blocks = rng.standard_normal((6, HEADS, 16, HEAD_DIM)).astype(np.float32)
    values = quantize_kv_block(blocks)
    for i in range(len(blocks)):
        assert values[i].tobytes() == \
            quantize_kv_block(blocks[i:i + 1])[0].tobytes()


def test_span_after_boundary_decode_flushes_the_buffered_block():
    """Decode stops exactly on a block boundary (block still buffered,
    lazily), then a span write continues the row: the span must flush
    that block before reusing the buffer, as the next decode would."""
    bs = 4
    rng = np.random.default_rng(8)
    data = rng.standard_normal(
        (LAYERS, 2, 1, HEADS, 2 * bs + 2, HEAD_DIM)).astype(np.float32)
    rows = np.array([2])

    def token(cache, pos):
        for layer in range(LAYERS):
            cache.write_token(layer, data[layer, 0][:, :, pos:pos + 1],
                              data[layer, 1][:, :, pos:pos + 1],
                              np.array([pos]), rows=rows)

    spanned, decoded = (make(QuantizedPagedKVCache, bs) for _ in range(2))
    for pos in range(2 * bs):
        token(spanned, pos)
        token(decoded, pos)
    assert int(spanned._blocks_per_row[2]) == 1      # block 1 still buffered
    for layer in range(LAYERS):
        spanned.prefill_rows(layer, data[layer, 0][:, :, 2 * bs:],
                             data[layer, 1][:, :, 2 * bs:], rows,
                             np.array([2 * bs]), np.array([2]))
    token(decoded, 2 * bs)
    token(decoded, 2 * bs + 1)
    assert_same_storage(spanned, decoded)
    for layer in range(LAYERS):
        got, want = read(spanned, layer, rows), read(decoded, layer, rows)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
