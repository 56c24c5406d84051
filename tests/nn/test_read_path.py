"""The one-gather read path and the per-forward resolution.

Generative: random sessions on both backends — ragged spans, sub-batch
and clone-row decodes, rollbacks, cancels, shared and copied blocks,
pool growth — with every chunk of every read shape compared, bit for
bit, against the dense-gather oracle computed on a *fresh*
resolution, after each mutation.  A resolution the mutation should have
cleared but did not therefore shows up as a wrong chunk.

Counter-based: what a read books as scratch, how many times a forward
resolves its block table, and the read/flush counters of one scripted
session pinned to the values the two-step assembly produced.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.nn.block_attention import (block_decode_attention,
                                      block_prefill_attention)
from repro.nn.paged_kv_cache import (DEFAULT_DEQUANT_CACHE_BYTES, KVReadStats,
                                     PagedKVCache, QuantizedPagedKVCache)
from tests import kv_oracle

LAYERS, BATCH, HEADS, HEAD_DIM, BS = 2, 4, 2, 4, 4
ENTRY_BYTES = 2 * HEADS * BS * HEAD_DIM * 4     # one dequant-memo entry


def dense_context(cache, layer, rows):
    """The oracle on a fresh resolution: it must not read the
    memo the chunk reads are being checked against."""
    saved, cache._ids_memo = cache._ids_memo, {}
    try:
        return kv_oracle.dense_context(cache, layer, rows)
    finally:
        cache._ids_memo = saved


def assert_reads_match_dense(cache, rows, layers=None):
    """Every chunk of ``context_blocks`` (each ``kind``, padded or not)
    and ``context_chunk_pair`` equals the dense gather's slice."""
    bs = cache.block_size
    window = cache.chunk_blocks * bs
    for layer in range(cache.num_layers) if layers is None else layers:
        total = cache.layer_len(layer)
        if not total:
            continue
        want = dense_context(cache, layer, rows)
        nblk = -(-total // bs)
        for kind, operands in (("k", (0,)), ("v", (1,)), ("kv", (0, 1))):
            plain = {}
            for start, *chunks in cache.context_blocks(layer, rows=rows,
                                                       kind=kind):
                width = min(chunks[0].shape[2], total - start)
                for chunk, operand in zip(chunks, operands):
                    assert chunk.dtype == np.float32
                    assert chunk[:, :, :width].tobytes() == \
                        want[operand][:, :, start:start + width].tobytes()
                    plain[start, operand] = chunk.copy()
            assert sorted({s for s, _ in plain}) == \
                list(range(0, nblk * bs, window))
            # Padded chunks are the plain ones, zero-extended to a window.
            for start, *chunks in cache.context_blocks(layer, rows=rows,
                                                       kind=kind, pad=True):
                for chunk, operand in zip(chunks, operands):
                    held = plain[start, operand].shape[2]
                    assert chunk.shape[2] == window
                    assert chunk[:, :, :held].tobytes() == \
                        plain[start, operand].tobytes()
                    assert not chunk[:, :, held:].any()
        if total <= window:
            k, v = cache.context_chunk_pair(layer, rows=rows)
            assert k.tobytes() == want[0].tobytes()
            assert v.tobytes() == want[1].tobytes()


def assert_no_read_resolution(cache):
    """Right after a mutation nothing a read resolved may survive (the
    write that caused it may have left its own plan).  Values alone
    cannot show this for every mutation: a rollback inside a block
    moves only the token counts behind ``streamed_bytes``."""
    assert not [key for key in cache._ids_memo
                if key[0] in ("read", "ids")]


class Session:
    """Seeded random operations on one cache, a read check after each."""

    def __init__(self, cache, seed):
        self.cache = cache
        self.rng = np.random.default_rng(seed)
        self.lens = np.zeros(BATCH, dtype=np.int64)     # 0 = idle row

    def kv(self, n, seq):
        return self.rng.standard_normal(
            (LAYERS, 2, n, HEADS, seq, HEAD_DIM)).astype(np.float32)

    def check(self):
        rng = self.rng
        live = np.flatnonzero(self.lens > 0)
        assert_reads_match_dense(self.cache, None)      # idle rows too
        if len(live):
            # A sub-batch with repeats, as a clone-rows verify reads.
            rows = rng.choice(live, size=int(rng.integers(1, len(live) + 3)))
            assert_reads_match_dense(self.cache, rows)

    def span(self, row, length):
        data = self.kv(1, length)
        start = np.array([self.lens[row]])
        for layer in range(LAYERS):
            self.cache.prefill_rows(layer, data[layer, 0], data[layer, 1],
                                    np.array([row]), start,
                                    np.array([length]))
            if layer == 0:
                assert_no_read_resolution(self.cache)
            assert_reads_match_dense(self.cache, None, layers=[layer])
        self.lens[row] += length

    def decode(self, rows, positions=None):
        rows = np.asarray(rows)
        positions = self.lens[rows] if positions is None else positions
        data = self.kv(len(rows), 1)
        for layer in range(LAYERS):
            self.cache.write_token(layer, data[layer, 0], data[layer, 1],
                                   positions, rows=rows)
            if layer == 0:
                assert_no_read_resolution(self.cache)
            # Mid-forward: layer 0 resolves the read, and the sibling
            # layers' writes must leave that resolution valid.
            assert_reads_match_dense(self.cache, rows, layers=[layer])
        np.maximum.at(self.lens, rows, positions + 1)

    def verify(self, rows):
        """Clone-rows verify up to the block boundary, then rollback."""
        before = self.lens[rows].copy()
        take = self.rng.integers(1, BS - before % BS + 1)
        self.decode(np.repeat(rows, take),
                    np.concatenate([np.arange(s, s + t)
                                    for s, t in zip(before, take)]))
        self.check()
        kept = before + self.rng.integers(1, take + 1)
        self.cache.truncate_rows(rows, kept)
        assert_no_read_resolution(self.cache)
        self.lens[rows] = kept

    def share(self, src, dst, with_tail):
        """``dst`` (idle) adopts ``src``'s full blocks and, optionally,
        its partial tail (copy-on-write: ``copy_block`` on FP32)."""
        cache = self.cache
        full = int(self.lens[src]) // BS
        fill = int(self.lens[src]) - full * BS if with_tail else 0
        ids = [cache.share_block(src, depth, BS) for depth in range(full)]
        tail = cache.share_block(src, full, fill) if fill else None
        cache.adopt_prefix(dst, ids, tail, fill)
        assert_no_read_resolution(cache)
        cache.release_blocks(ids + ([tail] if fill else []))
        self.lens[dst] = full * BS + fill

    def step(self):
        rng = self.rng
        live = np.flatnonzero(self.lens > 0)
        idle = np.flatnonzero(self.lens == 0)
        op = rng.choice(["prefill", "chunk", "decode", "decode", "verify",
                         "cancel", "share", "copy"])
        if op == "prefill" and len(idle):
            self.span(rng.choice(idle), int(rng.integers(1, 4 * BS)))
        elif op == "chunk" and len(live):
            self.span(rng.choice(live), int(rng.integers(1, 2 * BS)))
        elif op == "decode" and len(live):
            some = live[rng.random(len(live)) < 0.7]
            self.decode(some if len(some) else live)
        elif op == "verify" and len(live):
            self.verify(live[:int(rng.integers(1, len(live) + 1))])
        elif op == "cancel" and len(live):
            row = rng.choice(live)
            self.cache.free_rows(np.array([row]))
            assert_no_read_resolution(self.cache)
            self.lens[row] = 0
        elif op == "share" and len(live) and len(idle):
            src = rng.choice(live)
            if self.lens[src] >= BS:
                self.share(src, rng.choice(idle), bool(rng.integers(2)))
        elif op == "copy" and self.cache.blocks_in_use() \
                and not isinstance(self.cache, QuantizedPagedKVCache):
            # A copied FP32 block takes a fresh id (growing the pool when
            # the free list is dry) and must not disturb any reader; the
            # quantized cache never copies a pool block (its COW is
            # ``_adopt_tail``'s dequantize-into-buffer, the share op).
            row = rng.choice(np.flatnonzero(self.cache._blocks_per_row))
            copy = self.cache.copy_block(int(self.cache._tables[row, 0]))
            self.check()
            self.cache.release_blocks([copy])
        self.check()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       cls=st.sampled_from([PagedKVCache, QuantizedPagedKVCache]),
       chunk_blocks=st.sampled_from([1, 2, 8]),
       budget=st.sampled_from([0, ENTRY_BYTES, DEFAULT_DEQUANT_CACHE_BYTES]))
def test_chunk_reads_equal_dense_gather_after_every_mutation(
        seed, cls, chunk_blocks, budget):
    """``budget`` sizes the dequant memo: disabled, one entry (every
    lookup spills, writing dequantized blocks into the gathered chunk),
    roomy.  ``initial_blocks=1`` makes the pool grow under the session."""
    kwargs = {"dequant_cache_bytes": budget} \
        if cls is QuantizedPagedKVCache else {}
    cache = cls(LAYERS, batch=BATCH, block_size=BS, initial_blocks=1,
                chunk_blocks=chunk_blocks, **kwargs)
    session = Session(cache, seed)
    session.span(0, 2 * BS + 1)
    session.check()
    for _ in range(16):
        session.step()


# ---------------------------------------------------------------------- #
# counters: scratch, resolutions per forward, a pinned scripted session
# ---------------------------------------------------------------------- #
def filled(cls, lens, num_layers=LAYERS, **kwargs):
    rng = np.random.default_rng(0)
    lens = np.asarray(lens)
    cache = cls(num_layers, batch=len(lens), block_size=BS, **kwargs)
    data = rng.standard_normal(
        (num_layers, 2, len(lens), HEADS, int(lens.max()), HEAD_DIM)
    ).astype(np.float32)
    for layer in range(num_layers):
        cache.prefill_rows(layer, data[layer, 0], data[layer, 1],
                           np.arange(len(lens)), np.zeros_like(lens), lens)
    cache.take_read_stats()
    return cache, rng


@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
def test_single_chunk_read_books_one_copy_per_operand(cls):
    """K and V, each gathered once into the attended layout: no block-
    major staging buffer, no transposed copy."""
    cache, _ = filled(cls, [9, 5, 11])
    rows = np.array([0, 2])
    cache.context_chunk_pair(0, rows=rows)
    blocks = 3                                          # ceil(11 / BS)
    assert cache.take_read_stats().peak_scratch_bytes == \
        2 * len(rows) * HEADS * blocks * BS * HEAD_DIM * 4


def test_chunk_buffers_are_allocated_once():
    """Window-sized for the batch at the first read; reads of any width
    up to the window reuse them."""
    cache, rng = filled(PagedKVCache, [3, 2], chunk_blocks=2)
    cache.context_chunk_pair(0, rows=np.array([1]))
    buffers = cache._chunk_scratch
    assert buffers.shape == (2, 2 * HEADS * 2 * BS * HEAD_DIM)
    k = rng.standard_normal((2, HEADS, 1, HEAD_DIM)).astype(np.float32)
    for position in range(3, 20):                       # one to five chunks
        cache.write_token(0, k, k, np.array([position, 2]))
        for _ in cache.context_blocks(0, kind="kv"):
            pass
        for _ in cache.context_blocks(0, kind="k", pad=True):
            pass
    assert cache._chunk_scratch is buffers


@pytest.fixture
def resolutions(monkeypatch):
    """Counts calls of the three per-forward resolvers."""
    counts = {}
    for cls in (PagedKVCache, QuantizedPagedKVCache):
        for name in ("_resolve_token_write", "_resolve_span_write",
                     "_resolve_read"):
            if name not in cls.__dict__:
                continue

            def counting(self, *args, _real=cls.__dict__[name], _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(self, *args)

            monkeypatch.setattr(cls, name, counting)
    return counts


@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
@pytest.mark.parametrize("lens", [[9, 5, 11], [37, 5, 40]],
                         ids=["one-chunk", "multi-chunk"])
def test_decode_forward_resolves_block_table_once(cls, lens, resolutions):
    num_layers = 5
    cache, rng = filled(cls, lens, num_layers=num_layers)
    rows = np.array([0, 2])
    positions = np.asarray(lens)[rows]
    k = rng.standard_normal((2, HEADS, 1, HEAD_DIM)).astype(np.float32)
    resolutions.clear()
    for _step in range(2):
        for layer in range(num_layers):
            cache.write_token(layer, k, k, positions, rows=rows)
            block_decode_attention(k, cache, layer, rows=rows)
        positions = positions + 1
    assert resolutions == {"_resolve_token_write": 2, "_resolve_read": 2}


@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
def test_span_forward_resolves_block_table_once(cls, resolutions):
    num_layers = 5
    cache, rng = filled(cls, [9, 5, 11], num_layers=num_layers)
    rows, starts, lens = np.array([1, 2]), np.array([5, 11]), np.array([7, 3])
    k = rng.standard_normal((2, HEADS, 7, HEAD_DIM)).astype(np.float32)
    resolutions.clear()
    for layer in range(num_layers):
        cache.prefill_rows(layer, k, k, rows, starts, lens)
        block_prefill_attention(k, cache, layer, rows=rows)
    assert resolutions == {"_resolve_span_write": 1, "_resolve_read": 1}


@pytest.mark.parametrize("cls, want", [        # (streamed bytes, memo hits)
    (PagedKVCache, [(98304, 0), (196608, 0)]),
    (QuantizedPagedKVCache, [(13824, 32), (13824, 64)])],
    ids=["paged", "fineq"])
def test_span_forward_reads_its_reach_not_the_widest_row(cls, want,
                                                         monkeypatch):
    """A fresh row's 128-token chunks forwarded beside a 400-token row
    gather ``ceil(reach / window)`` chunks per operand per layer — one,
    then two, never the neighbour's four — and fetch what they always
    fetched: the windows left out hold no block the reader row owns, so
    streamed bytes and memo hits / misses are the full-grid read's."""
    model = TransformerLM(tiny_config(vocab_size=64, seed=3, max_seq_len=512))
    layers = model.config.num_layers
    cache = cls(layers, batch=2)            # 16-token blocks, 128-key window
    rng = np.random.default_rng(0)
    gathered = {}

    def spy(self, layer, *args, kind, _real=cls.context_blocks, **kwargs):
        for item in _real(self, layer, *args, kind=kind, **kwargs):
            gathered[layer, kind] = gathered.get((layer, kind), 0) + 1
            yield item

    monkeypatch.setattr(cls, "context_blocks", spy)

    def span(row, start, length):
        gathered.clear()
        model(rng.integers(0, 64, size=(1, length)), cache=cache,
              positions=start + np.arange(length)[None], rows=np.array([row]),
              span_lens=np.array([length]), logits_positions=np.array([-1]))
        return cache.take_read_stats()

    span(1, 0, 400)
    assert set(gathered.values()) == {4}
    for chunk, (streamed, hits) in enumerate(want):
        stats = span(0, 128 * chunk, 128)
        assert gathered == {(layer, kind): chunk + 1
                            for layer in range(layers) for kind in "kv"}
        assert (stats.streamed_bytes, stats.dequant_hits,
                stats.dequant_misses) == (streamed, hits, 0)


SCRIPT_HEADS, SCRIPT_HEAD_DIM = 2, 8


def scripted_session(cls, **kwargs):
    """A fixed session touching every read/write shape the engine
    drives: ragged span prefill, single- and multi-chunk decode on a
    sub-batch, a shared prefix, a clone-rows verify with rollback."""
    layers, heads, head_dim = 3, SCRIPT_HEADS, SCRIPT_HEAD_DIM
    rng = np.random.default_rng(7)
    cache = cls(layers, batch=4, block_size=BS, chunk_blocks=2, **kwargs)

    def kv(n, seq):
        return rng.standard_normal(
            (2, layers, n, heads, seq, head_dim)).astype(np.float32)

    def span(rows, starts, lens):
        rows, starts, lens = map(np.asarray, (rows, starts, lens))
        k, v = kv(len(rows), int(lens.max()))
        q = rng.standard_normal(
            (len(rows), heads, int(lens.max()), head_dim)).astype(np.float32)
        for layer in range(layers):
            cache.prefill_rows(layer, k[layer], v[layer], rows, starts, lens)
            block_prefill_attention(q, cache, layer, rows=rows)

    def decode(rows, positions):
        rows, positions = np.asarray(rows), np.asarray(positions)
        k, v = kv(len(rows), 1)
        q = rng.standard_normal(
            (len(rows), heads, 1, head_dim)).astype(np.float32)
        for layer in range(layers):
            cache.write_token(layer, k[layer], v[layer], positions, rows=rows)
            block_decode_attention(q, cache, layer, rows=rows)

    span([0, 1], [0, 0], [5, 3])                 # single chunk, ragged
    for step in range(4):                        # row 0 enters chunk 2
        decode([0, 1], [5 + step, 3 + step])
    shared = cache.share_block(0, 0, BS)
    cache.adopt_prefix(2, [shared])
    cache.release_blocks([shared])
    span([2], [4], [9])                          # suffix behind a shared block
    for step in range(3):
        decode([0, 2], [9 + step, 13 + step])
    decode([1, 1, 1], [7, 8, 9])                 # clone-rows verify...
    cache.truncate_rows(np.array([1]), np.array([8]))   # ...rolled back
    cache.free_rows(np.array([0]))
    decode([1, 2], [8, 16])
    return cache.take_read_stats()


#: ``scripted_session``'s counters under the two-step assembly (gather,
#: then transposed copy) this read path replaced, per backend and memo
#: budget: the same blocks are fetched, hit and flushed.
#: ``peak_scratch_bytes`` is the one that moved — it is the copy count.
PINNED = {
    "paged": (PagedKVCache, {}, KVReadStats(streamed_bytes=79488)),
    "fineq": (QuantizedPagedKVCache, {}, KVReadStats(
        streamed_bytes=30240, dequant_hits=216, flush_calls=9,
        flush_blocks=42)),
    "fineq-one-entry": (
        QuantizedPagedKVCache,
        {"dequant_cache_bytes": 2 * SCRIPT_HEADS * BS * SCRIPT_HEAD_DIM * 4},
        KVReadStats(streamed_bytes=59616, dequant_hits=57,
                    dequant_misses=159, flush_calls=9, flush_blocks=42)),
    # A zero budget pins nothing, so every block a chunk reads is
    # dequantized afresh — once per chunk, however many rows read it: the
    # 30 hits are same-chunk readers of a block another row just missed
    # (shared prefix, clone rows), the memo's own convention.  Same 216
    # lookups, same bytes.
    "fineq-no-memo": (
        QuantizedPagedKVCache, {"dequant_cache_bytes": 0},
        KVReadStats(streamed_bytes=50976, dequant_hits=30,
                    dequant_misses=186, flush_calls=9, flush_blocks=42)),
}


@pytest.mark.parametrize("name", PINNED)
def test_scripted_session_counters_are_pinned(name):
    cls, kwargs, want = PINNED[name]
    got = scripted_session(cls, **kwargs)
    # At most a three-row window (2 blocks) of K plus one of V.
    assert 0 < got.peak_scratch_bytes <= 2 * 3 * SCRIPT_HEADS * 2 * BS \
        * SCRIPT_HEAD_DIM * 4
    got.peak_scratch_bytes = 0
    assert got == want
