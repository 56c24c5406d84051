"""Chunked prefill: one-shot parity, interleaving, budget arbitration,
mid-prefill cancel/preempt, prefix sharing, and the mask-LRU bound."""

import numpy as np
import pytest

from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.serve import GenerationEngine, SamplingParams

VOCAB = 64
#: The one-shot oracle: a budget of every slot's whole context window,
#: which no admission round can exhaust — each granted span is the whole
#: remaining prompt.
ONE_SHOT = 4 * 512


@pytest.fixture(scope="module")
def model():
    return TransformerLM(tiny_config(vocab_size=VOCAB, seed=3))


@pytest.fixture(scope="module")
def long_model():
    """Tiny dims but a RoPE table long enough for multi-chunk prompts."""
    return TransformerLM(tiny_config(vocab_size=VOCAB, seed=3,
                                     max_seq_len=512))


def run_greedy(model, prompts, budget, **kwargs):
    engine = GenerationEngine(model, max_batch_size=len(prompts), **kwargs)
    ids = [engine.submit(p, budget) for p in prompts]
    done = {c.request_id: c for c in engine.run()}
    return engine, [done[i].tokens for i in ids]


# ---------------------------------------------------------------------- #
# chunked output == one-shot output, token for token
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_chunked_matches_oneshot_ragged_batch(long_model, kv_cache):
    """Greedy outputs are identical whether prompts prefill in one shot
    or in chunks, across a ragged batch with multi-chunk prompts."""
    rng = np.random.default_rng(5)
    prompts = [rng.integers(0, VOCAB, size=n) for n in (200, 150, 9, 33)]
    oneshot_engine, oneshot = run_greedy(long_model, prompts, 24,
                                         kv_cache=kv_cache,
                                         prefill_chunk_tokens=ONE_SHOT)
    assert oneshot_engine.stats.prefill_chunks == len(prompts)
    assert oneshot_engine.stats.prefill_tokens_deferred == 0
    chunked_engine, chunked = run_greedy(long_model, prompts, 24,
                                         kv_cache=kv_cache,
                                         prefill_chunk_tokens=48)
    assert chunked_engine.stats.prefill_chunks > len(prompts)
    for got, want in zip(chunked, oneshot):
        np.testing.assert_array_equal(got, want)


def test_chunked_matches_oneshot_mid_decode_arrival(long_model):
    """The mixed-traffic acceptance shape: a long prompt lands while
    short requests are mid-decode; chunked and one-shot engines must
    produce identical streams, and chunked paged output still equals the
    sequential reference."""
    rng = np.random.default_rng(7)
    shorts = [rng.integers(0, VOCAB, size=n) for n in (9, 14, 17)]
    long_prompt = rng.integers(0, VOCAB, size=260)
    outputs = {}
    for chunk in (ONE_SHOT, 64):
        engine = GenerationEngine(long_model, max_batch_size=4,
                                  kv_cache="paged",
                                  prefill_chunk_tokens=chunk)
        ids = [engine.submit(p, 30) for p in shorts]
        for _ in range(3):
            engine.step()
        ids.append(engine.submit(long_prompt, 30))
        done = {c.request_id: c for c in engine.run()}
        outputs[chunk] = [done[i].tokens for i in ids]
    for got, want in zip(outputs[64], outputs[ONE_SHOT]):
        np.testing.assert_array_equal(got, want)
    for prompt, got in zip(shorts + [long_prompt], outputs[64]):
        np.testing.assert_array_equal(
            got, long_model.generate(prompt, 30, temperature=0.0))


def test_decode_streams_between_chunks(long_model):
    """While a long prompt drains chunk by chunk, decoding rows keep
    emitting tokens every step — the latency bound chunking buys."""
    rng = np.random.default_rng(9)
    engine = GenerationEngine(long_model, max_batch_size=3,
                              kv_cache="paged", prefill_chunk_tokens=32)
    short_ids = [engine.submit(rng.integers(0, VOCAB, size=8), 40)
                 for _ in range(2)]
    engine.step()
    long_id = engine.submit(rng.integers(0, VOCAB, size=200), 8)
    interleaved_steps = 0
    while engine.has_work():
        events = engine.step()
        if engine.num_prefilling:
            assert {e.request_id for e in events} <= set(short_ids)
            if any(e.request_id in short_ids for e in events):
                interleaved_steps += 1
    # 200 tokens at 32/step leave >= 5 prefilling steps, each of which
    # still advanced the decoding shorts.
    assert interleaved_steps >= 5
    assert engine.stats.prefill_chunks >= 7
    done = {c.request_id: c for c in engine.run() + engine.take_completions()}
    assert long_id in done or not engine.has_work()


# ---------------------------------------------------------------------- #
# budget arbitration and accounting
# ---------------------------------------------------------------------- #
def test_priority_order_drains_high_priority_prompt_first(long_model):
    """Under the priority policy the chunk budget feeds the
    high-priority prefill first, so its first token lands earlier."""
    rng = np.random.default_rng(11)
    first_token_step = {}
    engine = GenerationEngine(long_model, max_batch_size=2,
                              scheduler="priority",
                              prefill_chunk_tokens=64)
    low = engine.submit(rng.integers(0, VOCAB, size=150),
                        params=SamplingParams(max_new_tokens=4, priority=0))
    high = engine.submit(rng.integers(0, VOCAB, size=150),
                         params=SamplingParams(max_new_tokens=4, priority=5))
    step = 0
    while engine.has_work():
        step += 1
        for event in engine.step():
            first_token_step.setdefault(event.request_id, step)
    assert first_token_step[high] < first_token_step[low]
    assert engine.stats.prefill_tokens_deferred > 0


def test_chunk_accounting_and_invariant(long_model):
    rng = np.random.default_rng(13)
    prompts = [rng.integers(0, VOCAB, size=n) for n in (190, 40)]
    engine, _ = run_greedy(long_model, prompts, 6, kv_cache="fineq",
                           prefill_chunk_tokens=50)
    stats = engine.stats
    assert stats.prefill_chunks >= 5      # 190 alone needs 4 chunks
    assert stats.prefill_tokens_deferred > 0
    assert stats.prefill_tokens == 230
    assert stats.prompt_tokens == \
        stats.shared_prompt_tokens + stats.prefill_tokens
    assert 0.0 <= stats.prefill_dequant_hit_rate <= 1.0


def test_invalid_chunk_budget_rejected(model):
    with pytest.raises(ValueError):
        GenerationEngine(model, prefill_chunk_tokens=0)


# ---------------------------------------------------------------------- #
# mid-prefill cancel and preempt/restore
# ---------------------------------------------------------------------- #
def test_mid_prefill_cancel_frees_slot(long_model):
    rng = np.random.default_rng(17)
    engine = GenerationEngine(long_model, max_batch_size=1,
                              kv_cache="paged", prefill_chunk_tokens=32)
    victim = engine.submit(rng.integers(0, VOCAB, size=180), 8)
    engine.step()
    assert engine.num_prefilling == 1
    assert engine.cancel(victim)
    follow_prompt = rng.integers(0, VOCAB, size=12)
    follow = engine.submit(follow_prompt, 5)
    done = {c.request_id: c for c in engine.run()}
    assert done[victim].finish_reason == "cancelled"
    assert len(done[victim].new_tokens) == 0
    np.testing.assert_array_equal(
        done[follow].tokens,
        long_model.generate(follow_prompt, 5, temperature=0.0))


def test_mid_prefill_preempt_and_restore(long_model):
    """A higher-priority arrival preempts a row still writing its
    prompt; the victim restores and finishes greedy-exact."""
    rng = np.random.default_rng(19)
    low_prompt = rng.integers(0, VOCAB, size=170)
    hi_prompt = rng.integers(0, VOCAB, size=10)
    engine = GenerationEngine(long_model, max_batch_size=1,
                              scheduler="priority", prefix_sharing=True,
                              prefill_chunk_tokens=32)
    low = engine.submit(low_prompt,
                        params=SamplingParams(max_new_tokens=5, priority=0))
    for _ in range(2):
        engine.step()
    assert engine.num_prefilling == 1  # 170 tokens, 32/step: still writing
    hi = engine.submit(hi_prompt,
                       params=SamplingParams(max_new_tokens=4, priority=9))
    done = {c.request_id: c for c in engine.run()}
    assert engine.stats.preemptions >= 1
    np.testing.assert_array_equal(
        done[hi].tokens, long_model.generate(hi_prompt, 4, temperature=0.0))
    np.testing.assert_array_equal(
        done[low].tokens, long_model.generate(low_prompt, 5, temperature=0.0))


# ---------------------------------------------------------------------- #
# prefix sharing under chunked prefill
# ---------------------------------------------------------------------- #
def test_shared_prefix_waits_for_chunked_capture(long_model):
    """A same-prefix burst defers behind the representative's chunked
    prefill and then adopts the captured prefix instead of redundantly
    prefilling alongside it."""
    rng = np.random.default_rng(21)
    prefix = rng.integers(0, VOCAB, size=120)
    prompts = [np.concatenate([prefix, rng.integers(0, VOCAB, size=4)])
               for _ in range(2)]
    engine = GenerationEngine(long_model, max_batch_size=2,
                              kv_cache="paged", prefix_sharing=True,
                              prefill_chunk_tokens=40)
    ids = [engine.submit(p, 6) for p in prompts]
    done = {c.request_id: c for c in engine.run()}
    assert engine.stats.shared_prompt_tokens >= 112  # whole shared blocks
    for rid, prompt in zip(ids, prompts):
        np.testing.assert_array_equal(
            done[rid].tokens,
            long_model.generate(prompt, 6, temperature=0.0))


def test_fineq_chunked_prefill_hits_dequant_cache(long_model):
    """The acceptance criterion: chunked fineq prefill re-reads context
    through the dequant memo — later chunks (and shared-prefix suffix
    prefills) hit blocks earlier chunks already dequantized."""
    rng = np.random.default_rng(23)
    prefix = rng.integers(0, VOCAB, size=140)
    prompts = [np.concatenate([prefix, rng.integers(0, VOCAB, size=6)])
               for _ in range(3)]
    engine, _ = run_greedy(long_model, prompts, 4, kv_cache="fineq",
                           prefix_sharing=True, prefill_chunk_tokens=48)
    stats = engine.stats
    assert stats.prefill_dequant_hits > 0
    assert stats.prefill_dequant_hit_rate > 0.0


# ---------------------------------------------------------------------- #
# satellite: the causal-mask LRU stays bounded under chunk shape churn
# ---------------------------------------------------------------------- #
def test_mask_cache_stays_bounded_across_chunked_run(long_model):
    from repro.nn.attention import _MASK_CACHE, _MASK_CACHE_LIMIT

    rng = np.random.default_rng(25)
    prompts = [rng.integers(0, VOCAB, size=n) for n in (210, 97, 33, 150)]
    run_greedy(long_model, prompts, 12, kv_cache="paged",
               prefill_chunk_tokens=16)
    assert len(_MASK_CACHE) <= _MASK_CACHE_LIMIT
