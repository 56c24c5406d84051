"""Pluggable admission policies: fifo, prefix-affinity, priority."""

import numpy as np
import pytest

from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.serve import (FIFOScheduler, GenerationEngine,
                         PrefixAffinityScheduler, PriorityScheduler,
                         SamplingParams, Scheduler, get_scheduler)

VOCAB = 64


@pytest.fixture(scope="module")
def model():
    return TransformerLM(tiny_config(vocab_size=VOCAB, seed=3))


def test_get_scheduler_registry_and_validation():
    assert isinstance(get_scheduler("fifo"), FIFOScheduler)
    assert isinstance(get_scheduler("prefix-affinity"),
                      PrefixAffinityScheduler)
    assert isinstance(get_scheduler("priority"), PriorityScheduler)
    custom = PriorityScheduler()
    assert get_scheduler(custom) is custom
    assert isinstance(custom, Scheduler)  # protocol satisfied
    with pytest.raises(ValueError):
        get_scheduler("shortest-job-first")
    with pytest.raises(TypeError):
        get_scheduler(42)


def test_sampling_params_carry_priority():
    assert SamplingParams().priority == 0
    assert SamplingParams(priority=7).priority == 7


def first_admitted_ids(engine):
    """Request ids of the first admitted wave, in slot order."""
    engine.step()
    return [slot.request.request_id
            for slot in engine._slots if slot is not None]


def test_fifo_admits_in_arrival_order(model):
    engine = GenerationEngine(model, max_batch_size=2, scheduler="fifo")
    ids = [engine.submit(np.array([i + 1, i + 2]), 4) for i in range(4)]
    assert first_admitted_ids(engine) == ids[:2]
    done = {c.request_id: c for c in engine.run()}
    assert set(done) == set(ids)


def test_priority_admits_high_first(model):
    engine = GenerationEngine(model, max_batch_size=1, scheduler="priority")
    low = engine.submit(np.array([1, 2]),
                        params=SamplingParams(max_new_tokens=3, priority=0))
    high = engine.submit(np.array([3, 4]),
                         params=SamplingParams(max_new_tokens=3, priority=5))
    mid = engine.submit(np.array([5, 6]),
                        params=SamplingParams(max_new_tokens=3, priority=2))
    assert first_admitted_ids(engine) == [high]
    done = {c.request_id: c for c in engine.run()}
    assert set(done) == {low, high, mid}
    # Greedy outputs are unaffected by admission order.
    for rid, prompt in ((low, [1, 2]), (high, [3, 4]), (mid, [5, 6])):
        np.testing.assert_array_equal(
            done[rid].tokens,
            model.generate(np.array(prompt), 3, temperature=0.0))


def test_priority_fifo_within_a_level(model):
    engine = GenerationEngine(model, max_batch_size=1, scheduler="priority")
    first = engine.submit(np.array([1, 2]), 3)
    second = engine.submit(np.array([3, 4]), 3)
    assert first_admitted_ids(engine) == [first]
    engine.run()


def test_prefix_affinity_batches_cached_prefix_group(model):
    """With a prefix cached, affinity admits the whole matching group
    ahead of earlier-arrived strangers."""
    rng = np.random.default_rng(0)
    prefix = rng.integers(0, VOCAB, size=32)
    group = [np.concatenate([prefix, rng.integers(0, VOCAB, size=3)])
             for _ in range(2)]
    strangers = [rng.integers(0, VOCAB, size=20) for _ in range(2)]
    engine = GenerationEngine(model, max_batch_size=2,
                              scheduler="prefix-affinity",
                              prefix_sharing=True)
    seed_id = engine.submit(group[0], 2)
    engine.run()  # prefix now cached
    s0 = engine.submit(strangers[0], 3)
    g0 = engine.submit(group[0][:35], 3)
    s1 = engine.submit(strangers[1], 3)
    g1 = engine.submit(group[1], 3)
    admitted = first_admitted_ids(engine)
    assert set(admitted) == {g0, g1}  # the cached-prefix group jumped ahead
    done = {c.request_id: c for c in engine.run()}
    assert set(done) == {s0, s1, g0, g1}
    assert engine.stats.shared_prompt_tokens >= 64


def test_prefix_affinity_without_store_degrades_to_fifo(model):
    engine = GenerationEngine(model, max_batch_size=2,
                              scheduler="prefix-affinity")
    ids = [engine.submit(np.array([i + 1, i + 2]), 3) for i in range(3)]
    assert first_admitted_ids(engine) == ids[:2]
    engine.run()


def test_custom_scheduler_instance(model):
    """Any object satisfying the protocol plugs in: admit newest-first."""

    class LIFOScheduler(FIFOScheduler):
        name = "lifo"

        def select(self, queue, free_slots, view):
            return list(queue)[::-1][:free_slots]

    engine = GenerationEngine(model, max_batch_size=1,
                              scheduler=LIFOScheduler())
    a = engine.submit(np.array([1, 2]), 3)
    b = engine.submit(np.array([3, 4]), 3)
    assert first_admitted_ids(engine) == [b]
    done = {c.request_id: c for c in engine.run()}
    assert set(done) == {a, b}


def test_priority_preemption_under_block_budget(model):
    """With the pool capped, a high-priority arrival preempts the
    lowest-priority running row; the victim restores and both finish
    greedy-exact (including their token budgets)."""
    rng = np.random.default_rng(1)
    low_prompt = rng.integers(0, VOCAB, size=10)
    hi_prompt = rng.integers(0, VOCAB, size=8)
    engine = GenerationEngine(model, max_batch_size=2, kv_cache="paged",
                              block_size=4, scheduler="priority",
                              prefix_sharing=True, max_pool_blocks=24)
    low = engine.submit(low_prompt,
                        params=SamplingParams(max_new_tokens=20, priority=0))
    peer = engine.submit(rng.integers(0, VOCAB, size=6),
                         params=SamplingParams(max_new_tokens=20, priority=1))
    for _ in range(3):
        engine.step()
    hi = engine.submit(hi_prompt,
                       params=SamplingParams(max_new_tokens=6, priority=5))
    done = {c.request_id: c for c in engine.run()}
    stats = engine.stats
    assert stats.preemptions >= 1
    # Per-admission accounting: every admitted token was either adopted
    # from cache or forwarded, restores included.
    assert stats.prompt_tokens == stats.shared_prompt_tokens + stats.prefill_tokens
    assert len(done[low].new_tokens) == 20
    assert len(done[hi].new_tokens) == 6
    np.testing.assert_array_equal(
        done[low].tokens, model.generate(low_prompt, 20, temperature=0.0))
    np.testing.assert_array_equal(
        done[hi].tokens, model.generate(hi_prompt, 6, temperature=0.0))


def test_no_preemption_between_equal_priorities(model):
    """Equal priority never preempts (no ping-pong): the later request
    waits for a free slot."""
    engine = GenerationEngine(model, max_batch_size=1, scheduler="priority",
                              max_pool_blocks=8)
    a = engine.submit(np.array([1, 2, 3]), 6)
    engine.step()
    b = engine.submit(np.array([4, 5]), 4)
    done = {c.request_id: c for c in engine.run()}
    assert engine.stats.preemptions == 0
    assert set(done) == {a, b}


def test_deferred_wave_duplicate_does_not_drive_preemption(model,
                                                          monkeypatch):
    """Found by the engine state machine.  C shares an uncached leading
    block with B, which is still mid chunked prefill, so C is held back
    for B's capture — and used to read as "nothing fits": the priority
    scheduler preempted the low-priority A on C's behalf, A was
    re-admitted in the next round (C still deferred) and preempted again,
    forever, inside one ``step()``.  A deferred request waits for a
    capture, not for memory, and must not name victims."""
    prefix = np.array([7, 3, 9, 1, 4, 8])
    engine = GenerationEngine(model, max_batch_size=3, block_size=4,
                              scheduler="priority", prefix_sharing=True,
                              prefill_chunk_tokens=8)
    preempt_row = engine._preempt_row

    def bounded(row):
        assert engine.stats.preemptions < 20, "preemption ping-pong"
        preempt_row(row)

    monkeypatch.setattr(engine, "_preempt_row", bounded)
    prompts = [np.array([5]), np.concatenate([prefix, [2, 2, 2]]),
               np.concatenate([prefix, [6]])]
    ids = [engine.submit(prompt, params=SamplingParams(max_new_tokens=2,
                                                       priority=priority))
           for prompt, priority in zip(prompts, (0, 1, 1))]
    done = {c.request_id: c for c in engine.run()}
    assert engine.stats.preemptions == 0
    for rid, prompt in zip(ids, prompts):
        np.testing.assert_array_equal(
            done[rid].tokens, model.generate(prompt, 2, temperature=0.0))
    # C did wait for, and adopt, the leading block B captured.
    assert engine.stats.shared_prompt_tokens == engine.block_size


def test_preempted_sampled_request_stream_is_seamless(model):
    """A sampled (non-greedy) request preserves its private RNG stream
    across preempt/restore: output identical to an uninterrupted run."""
    rng = np.random.default_rng(6)
    prompt = rng.integers(0, VOCAB, size=9)
    params = SamplingParams(max_new_tokens=15, temperature=1.1, top_k=6,
                            seed=99, priority=0)
    solo = GenerationEngine(model, max_batch_size=1)
    sid = solo.submit(prompt, params=params)
    want = {c.request_id: c for c in solo.run()}[sid].tokens

    engine = GenerationEngine(model, max_batch_size=1, scheduler="priority",
                              prefix_sharing=True)
    rid = engine.submit(prompt, params=params)
    for _ in range(5):
        engine.step()
    engine.submit(rng.integers(0, VOCAB, size=4),
                  params=SamplingParams(max_new_tokens=3, priority=9))
    done = {c.request_id: c for c in engine.run()}
    assert engine.stats.preemptions == 1
    np.testing.assert_array_equal(done[rid].tokens, want)
