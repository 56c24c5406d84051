"""The raw-ndarray serving forward against its ``Tensor``-op oracle.

``TransformerLM.forward(cache=..., positions=...)`` runs on raw arrays;
:func:`reference_forward` below is the ``Tensor`` serving branch it
replaced (``MultiHeadAttention.forward``'s write-then-attend case plus
``TransformerLM.forward``'s ``logits_positions`` gather), kept here so
"same float32 ops, same order, same layouts" stays checked bit for bit.
It also builds its attention mask the way the engine's call sites used
to, by hand, so the mask the forward now derives from ``positions`` and
``span_lens`` is checked against that spelling on every call shape, and
spells each span projection as the one ``(rows * seq, d)`` GEMM
``Linear.apply`` runs (:func:`linear`).
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models.configs import tiny_config
from repro.nn import ModelConfig, Parameter, TransformerLM
from repro.nn.block_attention import (additive_mask, block_decode_attention,
                                      block_prefill_attention)
from repro.nn.paged_kv_cache import PagedKVCache, QuantizedPagedKVCache
from repro.nn.rope import rotate

BATCH, BLOCK, VOCAB = 3, 4, 64


def linear(layer, x):
    """``layer(x)`` on a ``(rows, seq, d)`` ``Tensor``: a span
    (``seq > 1``) flattened to one ``(rows * seq, d)`` GEMM, a decode
    left as one GEMV per row."""
    rows, seq, d = x.shape
    if seq == 1:
        return layer(x)
    return layer(x.reshape(rows * seq, d)).reshape(rows, seq, -1)


def reference_forward(model, tokens, cache, positions, rows=None,
                      span_lens=None, logits_positions=None):
    """The removed serving branch, op for op on ``Tensor``s."""
    batch, seq = tokens.shape
    starts = positions[:, 0]
    if span_lens is not None:
        total = max(int((starts + span_lens).max()), cache.seq_len)
        query_pos = starts[:, None] + np.arange(seq)[None, :]
        allow = np.arange(total)[None, None, :] <= query_pos[:, :, None]
        kv_mask = additive_mask(allow)[:, None]
    else:
        total = max(cache.seq_len, int(starts.max()) + 1)
        kv_mask = additive_mask(
            np.arange(total) < (starts + 1)[:, None])[:, None, None, :]
    cos = model.rope.cos[positions][:, None]
    sin = model.rope.sin[positions][:, None]
    x = model.embed(tokens)
    for index, block in enumerate(model.blocks):
        attn = block.attn
        h = block.attn_norm(x)
        q = attn._split_heads(linear(attn.wq, h), batch, seq)
        k = attn._split_heads(linear(attn.wk, h), batch, seq)
        v = attn._split_heads(linear(attn.wv, h), batch, seq)
        q = Tensor(rotate(q.data, cos, sin))
        k = Tensor(rotate(k.data, cos, sin))
        if span_lens is not None:
            cache.prefill_rows(index, k.data, v.data, rows, starts,
                               span_lens)
            context = block_prefill_attention(
                q.data, cache, index, kv_mask=kv_mask, rows=rows)
        else:
            cache.write_token(index, k.data, v.data, starts, rows=rows)
            context = block_decode_attention(
                q.data, cache, index, kv_mask=kv_mask, rows=rows)
        merged = Tensor(context).transpose(0, 2, 1, 3) \
                                .reshape(batch, seq, attn.d_model)
        x = x + linear(attn.wo, merged)
        ffn = block.ffn
        x = x + linear(ffn.down, linear(ffn.up, block.ffn_norm(x)).relu())
    if logits_positions is not None:
        last = np.asarray(logits_positions, dtype=np.int64)
        keep = np.flatnonzero(last >= 0)
        if len(keep) < len(last):
            logits = np.zeros((batch, 1, model.config.vocab_size),
                              dtype=np.float32)
            if len(keep):
                picked = Tensor(x.data[keep, last[keep]][:, None])
                logits[keep] = model.head(model.final_norm(picked)).data
            return logits
        x = Tensor(x.data[np.arange(batch), last][:, None])
    return linear(model.head, model.final_norm(x)).data


def serving_forward(model, tokens, cache, positions, **kwargs):
    return model(tokens, cache=cache, positions=positions, **kwargs).data


def build_model(with_bias: bool) -> TransformerLM:
    model = TransformerLM(tiny_config(vocab_size=VOCAB, seed=3))
    if with_bias:
        rng = np.random.default_rng(5)
        for layer in (model.blocks[1].attn.wk, model.blocks[1].ffn.down):
            layer.bias = Parameter(
                rng.standard_normal(layer.out_features).astype(np.float32))
    return model


def session(model, cache_cls, forward):
    """Drive one cache through every serving call shape the engine
    makes; returns each call's logits."""
    rng = np.random.default_rng(11)
    cache = cache_cls(model.config.num_layers, batch=BATCH, block_size=BLOCK,
                      chunk_blocks=2)   # 8-token window: multi-chunk reads
    max_pos = model.config.max_seq_len - 1
    lengths = np.zeros(BATCH, dtype=np.int64)
    outs = []

    def prefill(rows, lens, logits_positions):
        rows, lens = np.asarray(rows), np.asarray(lens)
        starts = lengths[rows].copy()
        width = int(lens.max())
        tokens = np.zeros((len(rows), width), dtype=np.int64)
        for j, n in enumerate(lens):
            tokens[j, :n] = rng.integers(0, VOCAB, size=n)
        offsets = np.arange(width)
        positions = np.minimum(starts[:, None] + offsets, max_pos)
        outs.append(forward(model, tokens, cache, positions, rows=rows,
                            span_lens=lens,
                            logits_positions=logits_positions))
        lengths[rows] += lens

    def decode(rows):
        active = np.arange(BATCH) if rows is None else np.asarray(rows)
        tokens = rng.integers(0, VOCAB, size=(len(active), 1))
        outs.append(forward(model, tokens, cache, lengths[active][:, None],
                            rows=rows))
        lengths[active] += 1

    # Chunked prefill: a first chunk that samples nothing (all-negative
    # logits_positions), then one that continues mid-block from ragged
    # non-zero starts and finishes only row 0.
    prefill([0, 1], [6, 3], [-1, -1])
    prefill([0, 1], [5, 2], [4, -1])
    # Ragged span prefill joining late, every row sampled; then no
    # logits_positions at all (the full (batch, seq, vocab) head).
    prefill([2, 1], [7, 4], [6, 3])
    prefill([2], [3], None)
    for _ in range(3):                  # full batch (rows=None)
        decode(None)
    for _ in range(3):                  # draining wave: active sub-batch
        decode([0, 2])
    decode([1])
    return outs


@pytest.mark.parametrize("with_bias", [False, True])
@pytest.mark.parametrize("cache_cls", [PagedKVCache, QuantizedPagedKVCache])
def test_serving_forward_bit_identical_to_tensor_branch(cache_cls, with_bias):
    model = build_model(with_bias)
    got = session(model, cache_cls, serving_forward)
    want = session(model, cache_cls, reference_forward)
    assert len(got) == len(want) == 11
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float32
        assert a.shape == b.shape
        np.testing.assert_array_equal(a, b)
    # Rows skipped by a negative logits_positions come back as zeros.
    assert not got[0].any() and not got[1][1].any() and got[1][0].any()


@pytest.mark.parametrize("cache_cls", [PagedKVCache, QuantizedPagedKVCache])
def test_span_logits_ignore_a_longer_neighbour_row(cache_cls):
    """A span forward attends its own reach: the same chunked prefill of
    row 0 returns the same logits, bit for bit, whether row 1 is idle or
    already holds three 8-key windows more context than row 0 reaches."""
    model = build_model(False)
    rng = np.random.default_rng(2)
    chunks = rng.integers(0, VOCAB, size=(2, 1, 6))     # row 0: 6 + 6 tokens
    neighbour = rng.integers(0, VOCAB, size=(1, 36))    # 12 + 3 * 8
    outs = []
    for crowded in (False, True):
        cache = cache_cls(model.config.num_layers, batch=2, block_size=BLOCK,
                          chunk_blocks=2)
        if crowded:
            serving_forward(model, neighbour, cache, np.arange(36)[None],
                            rows=np.array([1]), span_lens=np.array([36]))
        outs.append([
            serving_forward(model, tokens, cache, start + np.arange(6)[None],
                            rows=np.array([0]), span_lens=np.array([6]))
            for start, tokens in zip((0, 6), chunks)])
    for alone, beside in zip(*outs):
        np.testing.assert_array_equal(alone, beside)


@pytest.mark.parametrize("cache_cls", [PagedKVCache, QuantizedPagedKVCache])
def test_decode_rows_are_batch_independent(cache_cls):
    """A token axis of 1 is not flattened: equal-length rows decoded
    together return, bit for bit, the logits each returns decoded alone
    — one GEMV per row, whatever the batch (greedy parity with
    ``generate`` rests on it; a ``(rows, d)`` GEMM rounds differently)."""
    model = build_model(False)
    rng = np.random.default_rng(4)
    prompts = rng.integers(0, VOCAB, size=(BATCH, 6))
    steps = rng.integers(0, VOCAB, size=(3, BATCH, 1))  # crosses a block
    outs = []
    for together in (True, False):
        cache = cache_cls(model.config.num_layers, batch=BATCH,
                          block_size=BLOCK, chunk_blocks=2)
        for row in range(BATCH):
            serving_forward(model, prompts[row:row + 1], cache,
                            np.arange(6)[None], rows=np.array([row]),
                            span_lens=np.array([6]))
        logits = []
        for step, tokens in enumerate(steps):
            positions = np.full((BATCH, 1), 6 + step)
            if together:
                logits.append(serving_forward(model, tokens, cache,
                                              positions))
            else:
                logits.append(np.concatenate([
                    serving_forward(model, tokens[row:row + 1], cache,
                                    positions[row:row + 1],
                                    rows=np.array([row]))
                    for row in range(BATCH)]))
        outs.append(logits)
    for batched, solo in zip(*outs):
        np.testing.assert_array_equal(batched, solo)


def blas_rows_stable(model, lens, width) -> bool:
    """Whether this BLAS returns each row's own ``(lens[j], d)`` GEMM
    bit for bit inside a wave's ``(rows * width, d)`` one, for every
    projection shape of ``model`` (random operands: the property is the
    kernel's, not the data's)."""
    rng = np.random.default_rng(0)
    layers = [layer for _, layer in model.quantizable_linears()]
    for layer in {layer.weight.shape: layer
                  for layer in layers + [model.head]}.values():
        weight = layer.weight.data.T
        x = rng.standard_normal((len(lens) * width, layer.in_features)
                                ).astype(np.float32)
        wave = x @ weight
        for j, n in enumerate(lens):
            own = slice(j * width, j * width + n)
            if not np.array_equal(x[own] @ weight, wave[own]):
                return False
    return True


@pytest.mark.parametrize("cache_cls", [PagedKVCache, QuantizedPagedKVCache])
def test_wide_span_wave_returns_each_rows_solo_logits(cache_cls):
    """The premise behind equal round digests across the flattened span
    GEMM: a 3-row wave of ragged >= 16-token spans returns each row's
    solo-span logits bit for bit.  It is a property of the BLAS kernel
    (wide GEMM rows do not move with ``M``; at the tiny config's 48-wide
    outputs SkylakeX OpenBLAS rows move up to ``M = 25``, so this runs
    at the zoo's 128 / 512 widths), and where the kernel lacks it there
    is nothing to check."""
    model = TransformerLM(ModelConfig(name="wide", vocab_size=256,
                                      d_model=128, num_layers=2, num_heads=4,
                                      d_ff=512, seed=3))
    lens = np.array([16, 20, 24])
    width = int(lens.max())
    if not blas_rows_stable(model, lens, width):
        pytest.skip("this BLAS kernel's wide GEMM rows move with M")
    rng = np.random.default_rng(6)
    tokens = rng.integers(0, VOCAB, size=(BATCH, width))
    positions = np.broadcast_to(np.arange(width), (BATCH, width))

    def fresh():
        return cache_cls(model.config.num_layers, batch=BATCH,
                         block_size=BLOCK, chunk_blocks=2)

    wave = serving_forward(model, tokens, fresh(), positions,
                           rows=np.arange(BATCH), span_lens=lens)
    for row, n in enumerate(lens):
        solo = serving_forward(model, tokens[row:row + 1, :n], fresh(),
                               positions[row:row + 1, :n],
                               rows=np.array([row]),
                               span_lens=lens[row:row + 1])
        np.testing.assert_array_equal(wave[row, :n], solo[0])


def test_bias_reaches_the_logits():
    """The bias case above is not vacuous: the hand-set biases move the
    serving logits."""
    plain, biased = (session(build_model(b), PagedKVCache,
                             serving_forward)[-1] for b in (False, True))
    assert not np.array_equal(plain, biased)


def test_out_of_range_positions_raise():
    model = build_model(False)
    cache = PagedKVCache(model.config.num_layers, batch=1, block_size=BLOCK)
    for bad in (model.config.max_seq_len, -1):
        with pytest.raises(ValueError, match="positions outside"):
            model(np.array([[1]]), cache=cache, positions=np.array([[bad]]))
    assert cache.seq_len == 0           # checked before any layer wrote


def test_serving_arguments_without_a_cache_are_rejected():
    """The autograd path takes none of them; dropping one silently would
    return differently-shaped logits."""
    model = build_model(False)
    tokens = np.array([[1, 2, 3]])
    with pytest.raises(ValueError, match="cache and positions"):
        model(tokens, logits_positions=np.array([2]))
    with pytest.raises(ValueError, match="cache and positions"):
        model(tokens, positions=np.array([[0, 1, 2]]))


def test_additive_mask_matches_the_cast_down_spelling():
    allow = np.random.default_rng(0).random((3, 5, 7)) < 0.5
    mask = additive_mask(allow)
    assert mask.dtype == np.float32
    np.testing.assert_array_equal(
        mask, np.where(allow, 0.0, -np.inf).astype(np.float32))
