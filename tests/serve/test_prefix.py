"""Prefix-sharing block store: adoption, COW, eviction, and parity.

The acceptance bar for the prefix subsystem: greedy output on the FP32
paged cache stays token-identical to sequential generate *with sharing
enabled* — through block-boundary divergence, mid-block copy-on-write,
cancellation, and a preemption/restore cycle — while refcounts guarantee
that retiring a reader frees exactly its exclusive blocks and that the
LRU eviction of the store never pulls a prefix out from under a reader
mid-decode.
"""

import numpy as np
import pytest

from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.nn.paged_kv_cache import PagedKVCache, QuantizedPagedKVCache
from repro.serve import GenerationEngine, PrefixStore, SamplingParams
from tests.kv_oracle import dense_context

VOCAB = 64


@pytest.fixture(scope="module")
def model():
    return TransformerLM(tiny_config(vocab_size=VOCAB, seed=3))


def shared_prompts(prefix_len=40, suffix_len=5, num=6, seed=0):
    rng = np.random.default_rng(seed)
    prefix = rng.integers(0, VOCAB, size=prefix_len)
    return [np.concatenate([prefix, rng.integers(0, VOCAB, size=suffix_len)])
            for _ in range(num)]


# ---------------------------------------------------------------------- #
# parity with sharing enabled (acceptance criterion)
# ---------------------------------------------------------------------- #
def test_sharing_greedy_parity_on_paged(model):
    """Greedy output with prefix sharing is token-identical to sequential
    generate, across shared, divergent, and unrelated prompts."""
    rng = np.random.default_rng(7)
    prompts = shared_prompts() + [rng.integers(0, VOCAB, size=9)]
    engine = GenerationEngine(model, max_batch_size=3, kv_cache="paged",
                              prefix_sharing=True,
                              scheduler="prefix-affinity")
    ids = [engine.submit(p, 10) for p in prompts]
    done = {c.request_id: c for c in engine.run()}
    for rid, prompt in zip(ids, prompts):
        want = model.generate(prompt, 10, temperature=0.0)
        np.testing.assert_array_equal(done[rid].tokens, want)
    # Sharing actually happened (prefix 40 = 2 full blocks + 8-token tail).
    assert engine.stats.shared_prompt_tokens > 0
    assert engine.stats.prefill_tokens < engine.stats.prompt_tokens


def test_sharing_parity_single_wave_cold_burst(model):
    """A cold burst of identical-prefix prompts admitted into one batch
    still shares: one representative prefills the prefix, the rest adopt
    it in the same step."""
    prompts = shared_prompts(num=4)
    engine = GenerationEngine(model, max_batch_size=4, kv_cache="paged",
                              prefix_sharing=True)
    ids = [engine.submit(p, 6) for p in prompts]
    done = {c.request_id: c for c in engine.run()}
    for rid, prompt in zip(ids, prompts):
        want = model.generate(prompt, 6, temperature=0.0)
        np.testing.assert_array_equal(done[rid].tokens, want)
    stats = engine.stats
    # 3 of 4 prompts adopted the 40-token prefix from the first.
    assert stats.shared_prompt_tokens == 3 * 40


def test_sharing_parity_on_fineq_runs_and_shares(model):
    """The quantized cache serves the same workload (bounded accuracy, so
    only structure is asserted: budgets met, sharing engaged)."""
    prompts = shared_prompts()
    engine = GenerationEngine(model, max_batch_size=3, kv_cache="fineq",
                              prefix_sharing=True)
    ids = [engine.submit(p, 8) for p in prompts]
    done = {c.request_id: c for c in engine.run()}
    for rid, prompt in zip(ids, prompts):
        assert len(done[rid].new_tokens) == 8
        np.testing.assert_array_equal(done[rid].tokens[:len(prompt)], prompt)
    assert engine.stats.shared_prompt_tokens > 0


def test_sharing_with_sampling_per_request_rng_stable(model):
    """Sampled requests draw identical streams whether or not their
    prompt was served from a shared prefix."""
    prompt = shared_prompts(num=1)[0]
    params = SamplingParams(max_new_tokens=10, temperature=1.2, top_k=8,
                            seed=42)
    solo = GenerationEngine(model, max_batch_size=1)
    sid = solo.submit(prompt, params=params)
    want = {c.request_id: c for c in solo.run()}[sid].tokens

    engine = GenerationEngine(model, max_batch_size=2, prefix_sharing=True)
    engine.submit(prompt, 4)                   # donor: caches the prefix
    engine.run()
    rid = engine.submit(prompt, params=params)  # adopts the cached prefix
    got = {c.request_id: c for c in engine.run()}[rid].tokens
    np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------------- #
# divergence: block boundary vs mid-block COW
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_block_boundary_divergence_shares_without_copy(model, kv_cache):
    """Two prompts identical through k full blocks then divergent share
    those k blocks by reference — no COW block is consumed."""
    rng = np.random.default_rng(3)
    prefix = rng.integers(0, VOCAB, size=32)  # exactly 2 blocks of 16
    a = np.concatenate([prefix, rng.integers(0, VOCAB, size=4)])
    b = np.concatenate([prefix, rng.integers(0, VOCAB, size=4)])
    engine = GenerationEngine(model, max_batch_size=1, kv_cache=kv_cache,
                              prefix_sharing=True)
    ra = engine.submit(a, 4)
    engine.run()
    store = engine.prefix_store
    cache = engine.cache
    # The two full prefix blocks are indexed; find them via a peek.
    match = store.peek(b)
    assert match.shared_len >= 32
    assert len(match.full_ids) == 2
    rb = engine.submit(b, 4)
    done = {c.request_id: c for c in engine.run()}
    if kv_cache == "paged":
        np.testing.assert_array_equal(
            done[rb].tokens, model.generate(b, 4, temperature=0.0))
    # Shared blocks are aliased, not copied: store still holds its ref
    # and the blocks were never duplicated for the second reader.
    for block in match.full_ids:
        assert cache.block_refcount(block) >= 1


def test_midblock_divergence_cow_keeps_donor_intact(model):
    """Divergence inside a partially-filled block copy-on-writes: the
    reader gets a private copy, the donor's block is untouched, and both
    continuations stay greedy-exact."""
    rng = np.random.default_rng(4)
    common = rng.integers(0, VOCAB, size=24)       # 1 full block + 8 tail
    a = np.concatenate([common, rng.integers(0, VOCAB, size=3)])
    b = np.concatenate([common, rng.integers(0, VOCAB, size=3)])
    assert not np.array_equal(a, b)
    engine = GenerationEngine(model, max_batch_size=2, kv_cache="paged",
                              prefix_sharing=True)
    ra = engine.submit(a, 8)
    engine.run()
    match = engine.prefix_store.peek(b)
    assert match.tail_id is not None
    assert match.shared_len == 24  # 16 full + 8 matched tail tokens
    tail_before_k = [engine.cache.codec._pool_k[layer][match.tail_id].copy()
                     for layer in range(model.config.num_layers)]
    rb = engine.submit(b, 8)
    done = {c.request_id: c for c in engine.run()}
    np.testing.assert_array_equal(done[rb].tokens,
                                  model.generate(b, 8, temperature=0.0))
    # COW: the shared tail block's payload never changed.
    for layer in range(model.config.num_layers):
        np.testing.assert_array_equal(
            engine.cache.codec._pool_k[layer][match.tail_id],
            tail_before_k[layer])


# ---------------------------------------------------------------------- #
# refcounts: cancel/preempt return exactly the non-shared blocks
# ---------------------------------------------------------------------- #
def test_cancel_reader_returns_exactly_exclusive_blocks(model):
    prompts = shared_prompts(prefix_len=32, suffix_len=4, num=2)
    engine = GenerationEngine(model, max_batch_size=2, kv_cache="paged",
                              prefix_sharing=True)
    donor = engine.submit(prompts[0], 20)
    reader = engine.submit(prompts[1], 20)
    # Decode past the next block boundary (36 + 14 > 48) so the reader
    # owns a decode-only block no prefix capture ever referenced.
    for _ in range(14):
        engine.step()
    cache = engine.cache
    reader_row = engine._live[reader]
    owned = int(cache._blocks_per_row[reader_row])
    table = [int(b) for b in cache._tables[reader_row, :owned]]
    exclusive = [b for b in table if cache.block_refcount(b) == 1]
    shared = [b for b in table if cache.block_refcount(b) > 1]
    assert shared and exclusive  # the workload produces both kinds
    free_before = cache.free_blocks()
    assert engine.cancel(reader)
    # Exactly the exclusively-owned blocks came back to the pool.
    assert cache.free_blocks() - free_before == len(exclusive)
    for block in shared:
        assert cache.block_refcount(block) >= 1  # still resident
    # The surviving donor is unperturbed.
    done = {c.request_id: c for c in engine.run()}
    np.testing.assert_array_equal(
        done[donor].tokens, model.generate(prompts[0], 20, temperature=0.0))


def test_preemption_restores_from_surviving_prefix(model):
    """Preempt/restore parity: the victim resumes exactly, and its
    re-admission adopts the prefix that survived in the store."""
    rng = np.random.default_rng(9)
    low_prompt = np.concatenate([shared_prompts(num=1, prefix_len=32,
                                                suffix_len=0)[0],
                                 rng.integers(0, VOCAB, size=2)])
    hi_prompt = rng.integers(0, VOCAB, size=8)
    engine = GenerationEngine(model, max_batch_size=1, kv_cache="paged",
                              block_size=16, scheduler="priority",
                              prefix_sharing=True)
    low = engine.submit(low_prompt,
                        params=SamplingParams(max_new_tokens=24, priority=0))
    for _ in range(4):
        engine.step()
    shared_before = engine.stats.shared_prompt_tokens
    hi = engine.submit(hi_prompt,
                       params=SamplingParams(max_new_tokens=4, priority=9))
    done = {c.request_id: c for c in engine.run()}
    assert engine.stats.preemptions == 1
    # The restored victim adopted its own captured prompt prefix.
    assert engine.stats.shared_prompt_tokens > shared_before
    for rid, prompt, budget in ((low, low_prompt, 24), (hi, hi_prompt, 4)):
        np.testing.assert_array_equal(
            done[rid].tokens, model.generate(prompt, budget, temperature=0.0))


# ---------------------------------------------------------------------- #
# eviction under a pool budget
# ---------------------------------------------------------------------- #
def test_eviction_refused_while_reader_mid_decode(model):
    """A prefix whose blocks a live request still reads must survive
    budget pressure; it becomes evictable once the reader retires."""
    prompts = shared_prompts(prefix_len=32, suffix_len=4, num=2, seed=11)
    engine = GenerationEngine(model, max_batch_size=2, kv_cache="paged",
                              prefix_sharing=True, prefix_blocks=64)
    rid = engine.submit(prompts[0], 24)
    engine.step()  # prefill + first decode: reader mid-decode
    store = engine.prefix_store
    cache = engine.cache
    pinned = store.pinned_blocks
    assert pinned > 0
    match = store.peek(prompts[1])
    assert match.shared_len >= 32
    # Squeeze the budget to zero: eviction must refuse every entry the
    # live reader still references.
    store.max_blocks = 0
    evicted = store.enforce_budget()
    assert evicted == 0
    assert store.stats.eviction_refusals > 0
    assert store.pinned_blocks == pinned
    assert store.peek(prompts[1]).shared_len >= 32  # prefix still served
    engine.run()  # reader retires -> its references drop
    assert store.enforce_budget() == pinned
    assert store.pinned_blocks == 0
    assert store.peek(prompts[1]).shared_len == 0


def test_lru_eviction_order_and_budget(model):
    """Unreferenced prefixes evict least-recently-used first, down to the
    budget, and the freed blocks return to the pool."""
    rng = np.random.default_rng(5)
    engine = GenerationEngine(model, max_batch_size=1, kv_cache="paged",
                              prefix_sharing=True)
    old = rng.integers(0, VOCAB, size=33)
    new = rng.integers(0, VOCAB, size=33)
    engine.submit(old, 2)
    engine.run()
    engine.submit(new, 2)
    engine.run()
    store = engine.prefix_store
    cache = engine.cache
    free_before = cache.free_blocks()
    before = store.pinned_blocks
    store.max_blocks = before - 1
    assert store.enforce_budget() == 1
    assert cache.free_blocks() == free_before + 1
    # The least-recently-used prefix (old) lost a block, not the new one.
    assert store.peek(new).shared_len >= 32
    assert store.peek(old).shared_len < 33


# ---------------------------------------------------------------------- #
# store-level unit checks
# ---------------------------------------------------------------------- #
def test_store_match_caps_at_prompt_minus_one():
    """A full-prompt cache hit still leaves one token to forward (the
    logits source)."""
    cache = PagedKVCache(num_layers=1, batch=2, block_size=4)
    k = np.random.default_rng(0).standard_normal((1, 2, 8, 4)).astype(np.float32)
    cache.prefill_rows(0, k, k, rows=np.array([0]), starts=np.array([0]),
                       row_lengths=np.array([8]))
    store = PrefixStore(cache)
    tokens = np.arange(8)
    store.capture(0, tokens)
    match = store.match(tokens)  # identical prompt resubmitted
    assert match.shared_len == 4  # only the first full block; token 8-1=7 cap
    longer = np.arange(9)
    assert store.match(longer).shared_len == 8


def test_store_requires_paged_cache():
    from repro.nn.kv_cache import KVCache
    with pytest.raises(TypeError):
        PrefixStore(KVCache(2, batch=2))


def test_quantized_partial_prompt_block_stays_fp32_exact():
    """Regression for the prefill quantization discipline: the final
    partial prompt block routes through the FP32 write buffer (decode's
    rule), so the newest tokens read back bit-exact — including for
    ragged row lengths and for the suffix path."""
    rng = np.random.default_rng(2)
    cache = QuantizedPagedKVCache(num_layers=1, batch=3, block_size=8)
    k = rng.standard_normal((2, 2, 21, 4)).astype(np.float32)
    v = rng.standard_normal((2, 2, 21, 4)).astype(np.float32)
    lens = np.array([21, 11])  # partial fills of 5 and 3
    cache.prefill_rows(0, k, v, rows=np.array([0, 1]),
                       starts=np.array([0, 0]), row_lengths=lens)
    kc, _ = dense_context(cache, 0)
    np.testing.assert_array_equal(kc[0, :, 16:21], k[0, :, 16:21])
    np.testing.assert_array_equal(kc[1, :, 8:11], k[1, :, 8:11])
    # Suffix continuation through prefill_rows obeys the same rule.
    ks = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
    cache.prefill_rows(0, ks, ks, rows=np.array([1]),
                       starts=np.array([11]), row_lengths=np.array([4]))
    kc, _ = dense_context(cache, 0, rows=np.array([1]))
    np.testing.assert_array_equal(kc[0, :, 8:15], np.concatenate(
        [k[1, :, 8:11], ks[0]], axis=1))
