"""Speculative decoding: output parity, rollback accounting, policies.

The acceptance invariants of the draft/verify pipeline: greedy
speculative output is bit-identical to target-only decode on every
cache backend (the drafts only change *how fast* tokens commit, never
*which* tokens), ``"exact"``-policy sampled streams are draw-for-draw
the target-only streams, rejection rollbacks return pool blocks under
refcounts (shared prefixes untouched), and cancel/preempt landing
mid-pipeline reclaim both target and draft cache state.
"""

import numpy as np
import pytest

from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.nn.paged_kv_cache import PagedKVCache, QuantizedPagedKVCache
from repro.serve import GenerationEngine, SamplingParams, SpeculativeConfig
from tests.kv_oracle import dense_context

VOCAB = 64
BACKENDS = ("paged", "fineq")


@pytest.fixture(scope="module")
def model():
    return TransformerLM(tiny_config(vocab_size=VOCAB, seed=3))


@pytest.fixture(scope="module")
def draft():
    """Unrelated weights: near-zero acceptance, so every step rolls back."""
    return TransformerLM(tiny_config(vocab_size=VOCAB, seed=4))


def prompts_for(seed, lengths=(9, 17, 12)):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, VOCAB, size=length) for length in lengths]


def run_engine(model, prompts, budget, params=None, **kwargs):
    engine = GenerationEngine(model, max_batch_size=len(prompts), **kwargs)
    if params is None:
        ids = [engine.submit(p, budget) for p in prompts]
    else:
        ids = [engine.submit(p, params=params) for p in prompts]
    done = {c.request_id: c for c in engine.run()}
    return engine, [done[i].tokens for i in ids]


def test_arriving_row_catches_up_in_its_own_draft_forward(model, draft):
    """A request admitted mid-flight owes the draft its whole prompt
    while its neighbours owe the few tokens a step leaves behind: the
    prompt-wide catch-up must not pad those neighbours to its width
    (same tokens either way — rows are independent — but the padded
    wave costs every row a prompt-width forward per arrival)."""
    k = 3
    rng = np.random.default_rng(11)
    spec = SpeculativeConfig(draft_model=draft, k=k)
    engine = GenerationEngine(model, max_batch_size=2, speculative=spec)
    engine.submit(rng.integers(0, VOCAB, size=40), 12)
    spans = []
    real = draft.forward

    def recording(tokens, *args, span_lens=None, **kwargs):
        if span_lens is not None:
            spans.append((tokens.shape, np.asarray(span_lens).tolist()))
        return real(tokens, *args, span_lens=span_lens, **kwargs)

    draft.forward = recording
    try:
        for _ in range(3):
            engine.step()
        engine.submit(rng.integers(0, VOCAB, size=33), 12)   # arrives late
        while engine.has_work():
            engine.step()
    finally:
        del draft.forward
    arrivals = [(shape, lens) for shape, lens in spans if max(lens) > k + 1]
    assert [lens for _shape, lens in arrivals] == [[41], [34]]
    for shape, lens in spans:
        assert shape[1] == max(lens)
        assert max(lens) <= k + 1 or min(lens) > k + 1       # never mixed


# ---------------------------------------------------------------------- #
# greedy parity: the draft must never change which tokens are emitted
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kv_cache", BACKENDS)
def test_greedy_parity_low_acceptance(model, draft, kv_cache):
    """An unrelated draft is wrong almost every step — all-rollback
    traffic — and the emitted stream still equals target-only decode."""
    prompts = prompts_for(5)
    spec = SpeculativeConfig(draft_model=draft, k=3)
    _, plain = run_engine(model, prompts, 24, kv_cache=kv_cache)
    engine, specd = run_engine(model, prompts, 24, kv_cache=kv_cache,
                               speculative=spec)
    assert engine.stats.spec_proposed > 0
    for got, want in zip(specd, plain):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kv_cache", BACKENDS)
def test_greedy_parity_high_acceptance(model, kv_cache):
    """The model drafting for itself: on the FP32 backends every proposal
    is the target's own argmax, so acceptance is exactly 1.0 and the
    all-commit path (span writes, multi-token emission) carries the
    stream.  The quantized target reads lossy history the FP32 draft does
    not, so its acceptance merely stays positive — parity must hold
    regardless."""
    prompts = prompts_for(6)
    spec = SpeculativeConfig(draft_model=model, k=4)
    _, plain = run_engine(model, prompts, 30, kv_cache=kv_cache)
    engine, specd = run_engine(model, prompts, 30, kv_cache=kv_cache,
                               speculative=spec)
    for got, want in zip(specd, plain):
        np.testing.assert_array_equal(got, want)
    stats = engine.stats
    assert stats.spec_accepted > 0
    if kv_cache != "fineq":
        assert stats.acceptance_rate == 1.0
        # Multi-token commits shrink the step count below token count.
        assert stats.decode_steps < stats.decode_tokens


@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_greedy_parity_under_prefix_sharing(model, draft, kv_cache):
    """Rollback may land on rows whose early blocks are shared with the
    prefix store; refcounted release keeps the shared prefix intact and
    output equal to the same engine run without speculation.  (That is
    the oracle rather than ``model.generate`` because on ``fineq`` a
    prefix adopted from cache already shifts quantization boundaries —
    a pre-existing backend property the draft must simply not alter.)"""
    rng = np.random.default_rng(9)
    system = rng.integers(0, VOCAB, size=24)
    prompts = [np.concatenate([system, rng.integers(0, VOCAB, size=n)])
               for n in (5, 9, 7)]
    spec = SpeculativeConfig(draft_model=draft, k=3)
    _, plain = run_engine(model, prompts, 20, kv_cache=kv_cache,
                          block_size=8, prefix_sharing=True)
    engine, specd = run_engine(model, prompts, 20, kv_cache=kv_cache,
                               block_size=8, prefix_sharing=True,
                               speculative=spec)
    assert engine.stats.shared_prompt_tokens > 0
    for got, want in zip(specd, plain):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------- #
# sampled streams
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kv_cache", BACKENDS)
def test_sampled_exact_policy_stream_seed_regression(model, draft, kv_cache):
    """Sampled speculative streams equal target-only sampled streams
    token for token — the emitted stream is a pure function of target
    logits and the request seed, whatever the draft proposes."""
    prompts = prompts_for(11)
    params = SamplingParams(max_new_tokens=18, temperature=0.9, top_k=12,
                            seed=123)
    spec = SpeculativeConfig(draft_model=draft, k=3)
    _, plain = run_engine(model, prompts, None, params=params,
                          kv_cache=kv_cache)
    _, specd = run_engine(model, prompts, None, params=params,
                          kv_cache=kv_cache, speculative=spec)
    for got, want in zip(specd, plain):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------- #
# cancel / preempt mid-pipeline: pool accounting returns to baseline
# ---------------------------------------------------------------------- #
def assert_pool_drained(cache):
    assert cache.free_blocks() == cache._total_blocks
    for block in range(cache._total_blocks):
        assert cache.block_refcount(block) == 0


@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_cancel_mid_stream_reclaims_target_and_draft_blocks(model, draft,
                                                            kv_cache):
    """Cancelling between speculative steps frees the victim's blocks in
    both the target cache and the paged draft cache; when the session
    drains, every pool block is back on the free list with refcount 0."""
    prompts = prompts_for(17)
    spec = SpeculativeConfig(draft_model=draft, k=3)
    engine = GenerationEngine(model, max_batch_size=len(prompts),
                              kv_cache=kv_cache, block_size=8,
                              speculative=spec)
    ids = [engine.submit(p, 30) for p in prompts]
    for _ in range(4):
        engine.step()
    assert engine.cancel(ids[1])
    done = {c.request_id: c for c in engine.run()}
    assert done[ids[1]].finish_reason == "cancelled"
    assert_pool_drained(engine.cache)
    draft_cache = engine._spec.cache
    assert isinstance(draft_cache, PagedKVCache)
    assert_pool_drained(draft_cache)
    # Cancelled mid-stream but the survivors are still exact (oracle is
    # the same backend without speculation — on fineq the quantized
    # history already diverges from FP32 ``model.generate``).
    _, plain = run_engine(model, prompts, 30, kv_cache=kv_cache,
                          block_size=8)
    for rid, want in zip(ids, plain):
        if rid == ids[1]:
            continue
        np.testing.assert_array_equal(done[rid].tokens, want)


@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_preempt_restore_mid_spec_is_exact_and_reclaims(model, draft,
                                                        kv_cache):
    """A priority arrival preempts a speculatively-decoding victim; the
    victim restores, finishes greedy-exact, and both caches drain."""
    rng = np.random.default_rng(19)
    low_prompt = rng.integers(0, VOCAB, size=10)
    spec = SpeculativeConfig(draft_model=draft, k=3)
    engine = GenerationEngine(model, max_batch_size=1, kv_cache=kv_cache,
                              block_size=8, scheduler="priority",
                              speculative=spec)
    low = engine.submit(low_prompt,
                        params=SamplingParams(max_new_tokens=20, priority=0))
    for _ in range(3):
        engine.step()
    hi = engine.submit(rng.integers(0, VOCAB, size=6),
                       params=SamplingParams(max_new_tokens=6, priority=5))
    done = {c.request_id: c for c in engine.run()}
    assert engine.stats.preemptions >= 1
    _, plain = run_engine(model, [low_prompt], 20, kv_cache=kv_cache,
                          block_size=8)
    np.testing.assert_array_equal(done[low].tokens, plain[0])
    assert len(done[hi].new_tokens) == 6
    assert_pool_drained(engine.cache)
    assert_pool_drained(engine._spec.cache)


# ---------------------------------------------------------------------- #
# truncate_rows: the rollback primitive itself
# ---------------------------------------------------------------------- #
def fill_row(cache, row, count, seed, heads=2, head_dim=4, start=0):
    """Write ``count`` decode tokens into one row of every layer."""
    rng = np.random.default_rng(seed)
    for pos in range(start, start + count):
        for layer in range(cache.num_layers):
            k = rng.standard_normal((1, heads, 1, head_dim)).astype(
                np.float32)
            v = rng.standard_normal((1, heads, 1, head_dim)).astype(
                np.float32)
            cache.write_token(layer, k, v, np.array([pos]),
                              rows=np.array([row]))


def test_truncate_rows_releases_fp32_blocks():
    cache = PagedKVCache(num_layers=2, batch=2, block_size=4)
    fill_row(cache, 0, 11, seed=0)     # 3 blocks: 4 + 4 + 3
    assert cache._total_blocks - cache.free_blocks() == 3
    cache.truncate_rows([0], [5])       # keep 2 blocks (4 + 1)
    assert cache._row_len[0] == 5
    assert cache._blocks_per_row[0] == 2
    assert cache._total_blocks - cache.free_blocks() == 2
    cache.truncate_rows([0], [0])
    assert cache._blocks_per_row[0] == 0
    assert cache.free_blocks() == cache._total_blocks


def test_truncate_rows_honors_shared_refcounts():
    """A block another reader still references survives one row's
    rollback untouched (release drops this row's reference only)."""
    cache = PagedKVCache(num_layers=1, batch=2, block_size=4)
    fill_row(cache, 0, 8, seed=1)       # blocks [b0, b1]
    shared = int(cache._tables[0, 0])
    cache.ref_blocks([shared])          # a second reader (prefix store)
    before_k = cache._pool_k[0][shared].copy()
    cache.truncate_rows([0], [0])
    assert cache.block_refcount(shared) == 1      # still held elsewhere
    np.testing.assert_array_equal(cache._pool_k[0][shared], before_k)
    assert cache._blocks_per_row[0] == 0


def test_truncate_rows_quantized_keeps_buffered_block():
    """Rolling back inside the buffered block (the engine's regime: the
    verify never commits past a quantize boundary it did not fully
    accept) trims lengths without touching pool blocks, and later
    writes continue bitwise as if the rejected tail never happened."""
    cache = QuantizedPagedKVCache(num_layers=1, batch=1, block_size=4)
    mirror = QuantizedPagedKVCache(num_layers=1, batch=1, block_size=4)
    fill_row(cache, 0, 9, seed=2)       # 2 flushed blocks + 1 buffered
    fill_row(mirror, 0, 9, seed=2)
    blocks_before = int(cache._blocks_per_row[0])
    fill_row(cache, 0, 2, seed=3, start=9)    # speculative tail: 9, 10
    cache.truncate_rows([0], [9])             # reject it
    assert cache._row_len[0] == 9
    assert int(cache._blocks_per_row[0]) == blocks_before
    fill_row(cache, 0, 3, seed=4, start=9)    # accepted continuation
    fill_row(mirror, 0, 3, seed=4, start=9)   # never speculated
    np.testing.assert_array_equal(cache._buf_k[0][0], mirror._buf_k[0][0])
    np.testing.assert_array_equal(cache._buf_v[0][0], mirror._buf_v[0][0])
    k_got, v_got = dense_context(cache, 0)
    k_want, v_want = dense_context(mirror, 0)
    np.testing.assert_array_equal(k_got, k_want)
    np.testing.assert_array_equal(v_got, v_want)


def test_truncate_rows_quantized_refuses_to_roll_into_a_flushed_block():
    """Rolling back below the buffered block would have to recover exact
    values from a quantized (lossy) pool block: tokens 4-5 used to read
    back as tokens 8-9's.  It is refused, and nothing is touched."""
    cache = QuantizedPagedKVCache(num_layers=1, batch=1, block_size=4)
    fill_row(cache, 0, 6, seed=5)             # 1 flushed block + 2 buffered
    fill_row(cache, 0, 4, seed=6, start=6)    # crosses the 8-token boundary
    assert int(cache._blocks_per_row[0]) == 2  # second block flushed
    before = [a.copy() for a in dense_context(cache, 0)]
    with pytest.raises(ValueError, match="below its buffered block"):
        cache.truncate_rows([0], [6])
    assert cache._row_len[0] == 10 and int(cache._blocks_per_row[0]) == 2
    for got, want in zip(dense_context(cache, 0), before):
        np.testing.assert_array_equal(got, want)
    # Inside the buffered block, to the row's own length, and to zero
    # (dropping the row) all stay legal.
    cache.truncate_rows([0], [10])
    cache.truncate_rows([0], [9])
    assert cache._row_len[0] == 9 and int(cache._blocks_per_row[0]) == 2
    cache.truncate_rows([0], [0])
    assert cache.free_blocks() == cache._total_blocks


def test_truncate_rows_to_current_length_keeps_an_eagerly_flushed_block():
    """A span that ends on a block boundary flushes that block at once;
    truncating such a row to the length it already has is a no-op, not
    a release of the block holding its newest tokens."""
    cache = QuantizedPagedKVCache(num_layers=1, batch=1, block_size=4)
    rng = np.random.default_rng(8)
    k, v = (rng.standard_normal((1, 2, 8, 4)).astype(np.float32)
            for _ in range(2))
    cache.prefill_rows(0, k, v, np.array([0]), np.array([0]), np.array([8]))
    assert int(cache._blocks_per_row[0]) == 2
    before = [a.copy() for a in dense_context(cache, 0)]
    cache.truncate_rows([0], [8])
    assert int(cache._blocks_per_row[0]) == 2 and cache._row_len[0] == 8
    for got, want in zip(dense_context(cache, 0), before):
        np.testing.assert_array_equal(got, want)


def test_truncate_rows_quantized_invalidates_dequant_memo(model, draft):
    """A fineq speculative session with heavy rollback never serves a
    stale dequantized block: stats stay consistent and a fresh request
    after the churn still decodes greedy-exact."""
    prompts = prompts_for(21)
    spec = SpeculativeConfig(draft_model=draft, k=3)
    engine = GenerationEngine(model, max_batch_size=len(prompts),
                              kv_cache="fineq", block_size=8,
                              speculative=spec)
    for p in prompts:
        engine.submit(p, 24)
    engine.run()
    late = prompts_for(22, lengths=(14,))[0]
    rid = engine.submit(late, 16)
    done = {c.request_id: c for c in engine.run()}
    np.testing.assert_array_equal(
        done[rid].tokens,
        GenerationEngine(model, max_batch_size=1, kv_cache="fineq",
                         block_size=8).generate_batch([late], 16)[0])
    assert_pool_drained(engine.cache)


# ---------------------------------------------------------------------- #
# stats / trace surface
# ---------------------------------------------------------------------- #
def test_spec_stats_and_trace_fields(model, draft):
    prompts = prompts_for(23)
    spec = SpeculativeConfig(draft_model=model, k=3)
    engine = GenerationEngine(model, max_batch_size=len(prompts),
                              kv_cache="paged", record_trace=True,
                              speculative=spec)
    for p in prompts:
        engine.submit(p, 16)
    engine.run()
    stats = engine.stats
    assert stats.spec_proposed > 0
    assert 0.0 < stats.acceptance_rate <= 1.0
    spec_steps = [t for t in engine.trace
                  if t.prefill_tokens == 0 and t.spec_proposed > 0]
    assert spec_steps
    decode_tokens = sum(t.tokens for t in engine.trace
                        if t.prefill_tokens == 0)
    assert decode_tokens == stats.decode_tokens
    for step in spec_steps:
        assert step.spec_accepted <= step.spec_proposed
        assert step.spec_verify_tokens >= step.rows
        assert step.spec_draft_tokens >= step.spec_proposed
