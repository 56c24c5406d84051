"""The fineq KV write path: one all-layer flush, written through.

A boundary crossing quantizes every layer's K and V buffers in one
kernel call and memoises the dequantized values it already holds.
Neither may change a stored byte, a read value or an accounted byte, so
every scenario here is driven twice — on the production cache and on the
``stepwise_fineq_cache`` reference (per-layer flushes through the
line-by-line kernel, no write-through) — and compared bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.kv_codec import dequantize_kv_channels, quantize_kv_block
from repro.nn.paged_kv_cache import DequantBlockCache, QuantizedPagedKVCache
from tests.kv_oracle import dense_context

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
    for name in ("_payload_k", "_payload_v", "_scale_k", "_scale_v"):
        for layer in range(LAYERS):
            assert getattr(fused.codec, name)[layer].tobytes() == \
                getattr(reference.codec, name)[layer].tobytes(), (name, layer)
    assert fused.codec._buf_k.tobytes() == reference.codec._buf_k.tobytes()
    assert fused.codec._buf_v.tobytes() == reference.codec._buf_v.tobytes()


def make(cls, block_size, **kwargs):
    return cls(LAYERS, batch=BATCH, block_size=block_size, chunk_blocks=2,
               **kwargs)


# 12 examples under the ``default`` profile; ``soak`` scales them up.
@settings(max_examples=settings.default.max_examples // 5, deadline=None)
@given(seed=st.integers(0, 10_000), block_size=st.sampled_from([4, 8]))
def test_pools_equal_per_layer_stepwise_flush(stepwise_fineq_cache,
                                              assert_memo_coherent, seed,
                                              block_size):
    """(a) Ragged decode, cancels, block-aligned and tail adoption,
    rollback and clone-rows verify: every pool byte, buffer byte and read
    value equals the per-layer reference flush's; (b) the memo stays
    coherent after every write, with a roomy budget and with one so small
    that fills evict."""
    entry = 2 * HEADS * block_size * HEAD_DIM * 4
    fused = make(QuantizedPagedKVCache, block_size)
    tiny = make(QuantizedPagedKVCache, block_size,
                dequant_cache_bytes=3 * entry)
    reference = make(stepwise_fineq_cache, block_size)
    session = Session([fused, tiny, reference], seed, block_size)

    def check():
        assert_same_storage(fused, reference)
        assert_same_storage(tiny, reference)
        assert_memo_coherent(fused)
        assert_memo_coherent(tiny)
        assert_memo_coherent(reference)

    session.on_step.append(check)
    session.prefill(0, 2 * block_size + 1)
    for _ in range(40):
        session.step()
    assert fused.take_read_stats().flush_calls == 0   # drained per step
    assert tiny.codec.dequant_cache.evictions > 0


def test_crossing_flushes_all_layers_in_one_call(monkeypatch):
    import repro.nn.kv_codec as module
    calls = []
    real = module.quantize_kv_block

    def counting(blocks, **kwargs):
        calls.append(len(blocks))
        return real(blocks, **kwargs)

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
    assert len(cache.codec.dequant_cache) == 3 * LAYERS


def test_lagging_layer_flushes_on_its_own_crossing(stepwise_fineq_cache,
                                                   assert_memo_coherent):
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
        assert_memo_coherent(cache)
        for layer in range(LAYERS):
            got, ref = read(cache, layer, rows), dense_context(want, layer,
                                                               rows)
            assert got[0].tobytes() == ref[0].tobytes()
            assert got[1].tobytes() == ref[1].tobytes()


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_streamed_bytes_unchanged_by_write_through(seed):
    """(c) A fill is charged the payload fetch of the first-read miss it
    replaces: over a session whose flushed blocks are all read, the
    streamed-byte total equals that of a cache whose fills are dropped
    (every flushed block then takes the miss)."""
    bs = 4
    fused = make(QuantizedPagedKVCache, bs)
    dropped = make(QuantizedPagedKVCache, bs)
    session = Session([fused, dropped], seed, bs)
    session.prefill(0, 1)                 # allocates the memos

    def drop(layers, ids, k_vals, v_vals):
        dropped.codec.dequant_cache.invalidate(ids, layers)
        return 0

    dropped.codec.dequant_cache.fill = drop     # this instance only
    for row in range(1, BATCH):
        session.prefill(row, int(session.rng.integers(1, 3 * bs)))
    for _ in range(30):
        live = np.flatnonzero(session.lens > 0)
        if session.rng.random() < 0.3:
            session.verify(session.some(live, 0.6))
        else:
            session.decode(session.some(live, 0.8))
    assert session.streamed[0] == session.streamed[1] > 0
    assert len(fused.codec.dequant_cache) == len(dropped.codec.dequant_cache)


@pytest.mark.parametrize("block", [8, 16, 20])
def test_write_through_values_equal_decoded_payload(block):
    rng = np.random.default_rng(block)
    blocks = rng.standard_normal((5, HEADS, block, HEAD_DIM)) \
        .astype(np.float32)
    blocks[:, :, :, 1] *= 12.0
    payload, scales, values = quantize_kv_block(blocks, with_values=True)
    plain = quantize_kv_block(blocks)
    assert plain[0].tobytes() == payload.tobytes()
    assert plain[1].tobytes() == scales.tobytes()
    decoded = dequantize_kv_channels(payload, scales, block).reshape(
        5, HEADS, HEAD_DIM, block).transpose(0, 1, 3, 2)
    assert values.shape == decoded.shape and values.dtype == np.float32
    assert np.ascontiguousarray(values).tobytes() == \
        np.ascontiguousarray(decoded).tobytes()


def test_batched_quantize_equals_separate_calls():
    """Channels are independent: one call over many blocks stores the
    bytes separate calls would."""
    rng = np.random.default_rng(1)
    blocks = rng.standard_normal((6, HEADS, 16, HEAD_DIM)).astype(np.float32)
    payload, scales = quantize_kv_block(blocks)
    for i in range(len(blocks)):
        one_payload, one_scales = quantize_kv_block(blocks[i:i + 1])
        per = HEADS * HEAD_DIM
        assert payload[i * per:(i + 1) * per].tobytes() == \
            one_payload.tobytes()
        assert scales[i * per:(i + 1) * per].tobytes() == \
            one_scales.tobytes()


def test_memo_invalidate_takes_id_arrays():
    memo = DequantBlockCache(num_layers=2, heads=1, block_size=2,
                             head_dim=2, budget_bytes=1 << 20)
    ones = np.ones((4, 1, 2, 2), np.float32)
    layers = np.array([0, 0, 1, 1])
    ids = np.array([3, 5, 3, 9])
    assert memo.fill(layers, ids, ones, 2 * ones) == 4
    memo.invalidate(np.array([3, 9]), np.array([0, 1]))   # paired
    assert [memo.slot(0, 3), memo.slot(1, 9)] == [-1, -1]
    assert memo.slot(1, 3) >= 0 and memo.slot(0, 5) >= 0
    memo.invalidate(np.array([3, 5, 40]))                 # every layer
    assert len(memo) == 0
    assert sorted(memo._free) == list(range(1, len(memo._occupied)))


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
