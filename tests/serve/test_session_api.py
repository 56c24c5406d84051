"""Tests for the request-centric session API: SamplingParams, step/stream,
mid-flight submission, cancellation, and per-request RNG streams."""

import numpy as np
import pytest

from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.serve import (GenerationEngine, SamplingParams,
                         SpeculativeConfig, TokenEvent, apply_top_k_top_p)


@pytest.fixture(scope="module")
def model():
    return TransformerLM(tiny_config(vocab_size=64, seed=3))


@pytest.fixture(scope="module")
def prompts():
    rng = np.random.default_rng(11)
    lengths = [3, 1, 7, 5, 2]
    return [rng.integers(0, 64, size=length) for length in lengths]


# ---------------------------------------------------------------------- #
# session parity (acceptance criterion)
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kv_cache", ["paged"])
def test_session_parity_with_midflight_submit_and_cancel(model, kv_cache):
    """Greedy output through submit+step is token-identical to sequential
    generate — including with a mid-flight submission and a cancelled
    neighbour row sharing the batch."""
    prompts = [np.array([1, 2, 3]), np.array([9, 8]),
               np.array([4, 5, 6, 7]), np.array([2, 2])]
    budgets = [10, 12, 8, 9]
    engine = GenerationEngine(model, max_batch_size=3, kv_cache=kv_cache)
    ids = [engine.submit(prompts[0], budgets[0]),
           engine.submit(prompts[1], budgets[1]),   # the victim
           engine.submit(prompts[2], budgets[2])]
    events = []
    steps = 0
    while engine.has_work():
        events += engine.step()
        steps += 1
        if steps == 2:
            assert engine.cancel(ids[1])
            ids.append(engine.submit(prompts[3], budgets[3]))
    done = {c.request_id: c for c in engine.take_completions()}
    for j in (0, 2, 3):
        want = model.generate(prompts[j], budgets[j], temperature=0.0)
        np.testing.assert_array_equal(done[ids[j]].tokens, want)
        assert done[ids[j]].finish_reason == "length"
    assert done[ids[1]].finish_reason == "cancelled"
    assert TokenEvent(ids[1], None, "cancelled") in events


def test_stream_events_concatenate_to_wrapper_tokens(model, prompts):
    """stream() yields exactly the tokens the wrapper path reports."""
    engine = GenerationEngine(model, max_batch_size=3)
    ids = [engine.submit(p, 7) for p in prompts]
    per_request = {rid: [] for rid in ids}
    finish = {}
    for event in engine.stream():
        assert event.token is not None
        per_request[event.request_id].append(event.token)
        if event.finish_reason is not None:
            finish[event.request_id] = event.finish_reason
    done = {c.request_id: c for c in engine.take_completions()}
    wrapper = GenerationEngine(model, max_batch_size=3) \
        .generate_batch(prompts, 7)
    for rid, want in zip(ids, wrapper):
        np.testing.assert_array_equal(done[rid].tokens, want)
        np.testing.assert_array_equal(np.asarray(per_request[rid]),
                                      done[rid].new_tokens)
        assert finish[rid] == done[rid].finish_reason == "length"


def test_submit_during_stream_iteration(model):
    engine = GenerationEngine(model, max_batch_size=2)
    first = engine.submit(np.array([1, 2, 3]), 6)
    added = None
    seen = 0
    for _event in engine.stream():
        seen += 1
        if seen == 2 and added is None:
            added = engine.submit(np.array([7, 8]), 4)
    done = {c.request_id: c for c in engine.take_completions()}
    np.testing.assert_array_equal(
        done[first].tokens, model.generate(np.array([1, 2, 3]), 6,
                                           temperature=0.0))
    np.testing.assert_array_equal(
        done[added].tokens, model.generate(np.array([7, 8]), 4,
                                           temperature=0.0))


def test_stream_on_empty_engine_yields_nothing(model):
    assert list(GenerationEngine(model).stream()) == []


@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_session_read_width_tracks_live_rows(model, kv_cache):
    """Retiring the longest row trims the cache's read width, so a
    persistent session stops paying the historical high-water mark."""
    engine = GenerationEngine(model, max_batch_size=2, kv_cache=kv_cache)
    engine.submit(np.array([1, 2, 3]), 30)
    engine.run()
    assert engine.cache.seq_len == 0  # all rows retired -> fully trimmed
    short = engine.submit(np.array([4, 5]), 4)
    done = {c.request_id: c for c in engine.run()}
    assert engine.cache.seq_len <= 6  # prompt + 4 generated, not 33
    if kv_cache != "fineq":
        want = model.generate(np.array([4, 5]), 4, temperature=0.0)
        np.testing.assert_array_equal(done[short].tokens, want)


def test_generate_batch_preserves_foreign_completions(model):
    """A wrapper call must not swallow completions of earlier requests
    whose results were streamed but never taken."""
    engine = GenerationEngine(model, max_batch_size=2)
    earlier = engine.submit(np.array([1, 2, 3]), 5)
    for _event in engine.stream():
        pass  # finished, but take_completions() deliberately not called
    tokens = engine.generate_batch([np.array([4, 5])], 4)
    np.testing.assert_array_equal(
        tokens[0], model.generate(np.array([4, 5]), 4, temperature=0.0))
    leftover = {c.request_id: c for c in engine.take_completions()}
    np.testing.assert_array_equal(
        leftover[earlier].tokens,
        model.generate(np.array([1, 2, 3]), 5, temperature=0.0))


# ---------------------------------------------------------------------- #
# cancellation
# ---------------------------------------------------------------------- #
def test_cancel_returns_blocks_to_pool(model):
    engine = GenerationEngine(model, max_batch_size=2, kv_cache="paged",
                              block_size=2)
    keeper = engine.submit(np.array([1, 2, 3]), 12)
    victim = engine.submit(np.array([4, 5, 6, 7, 8]), 12)
    for _ in range(3):
        engine.step()
    cache = engine.cache
    in_use_before = cache.blocks_in_use()
    free_before = cache.free_blocks()
    assert engine.cancel(victim)
    freed = cache.free_blocks() - free_before
    assert freed > 0
    assert cache.blocks_in_use() == in_use_before - freed
    events = engine.step()
    assert events[0] == TokenEvent(victim, None, "cancelled")
    done = {c.request_id: c for c in engine.run()}
    assert done[victim].finish_reason == "cancelled"
    # The cancelled partial output still carries its prompt.
    np.testing.assert_array_equal(done[victim].tokens[:5],
                                  np.array([4, 5, 6, 7, 8]))
    # The surviving neighbour is unperturbed.
    want = model.generate(np.array([1, 2, 3]), 12, temperature=0.0)
    np.testing.assert_array_equal(done[keeper].tokens, want)


def test_cancel_queued_request(model):
    engine = GenerationEngine(model, max_batch_size=1)
    kept = engine.submit(np.array([1, 2]), 4)
    queued = engine.submit(np.array([3, 4]), 4)  # waits behind `kept`
    assert engine.cancel(queued)
    done = {c.request_id: c for c in engine.run()}
    assert done[queued].finish_reason == "cancelled"
    assert len(done[queued].tokens) == 2  # prompt only, nothing generated
    want = model.generate(np.array([1, 2]), 4, temperature=0.0)
    np.testing.assert_array_equal(done[kept].tokens, want)
    # Finished or unknown ids are not cancellable.
    assert engine.cancel(kept) is False
    assert engine.cancel(999) is False


# ---------------------------------------------------------------------- #
# stop tokens
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("k", [None, 4], ids=["target-only", "spec-k4"])
@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_stop_tokens_terminate_mid_generation(model, kv_cache, k):
    """The stream ends at the stop token's first occurrence.  With
    speculation that token is the third accepted draft of the first
    verify, so the run stops inside its accepted positions, short of
    its bonus token."""
    prompt = np.array([5, 6, 7])
    reference = model.generate(prompt, 10, temperature=0.0)
    generated = reference[len(prompt):]
    first = 3
    stop = int(generated[first])
    assert stop not in generated[:first]
    engine = GenerationEngine(
        model, max_batch_size=1, kv_cache=kv_cache,
        speculative=None if k is None
        else SpeculativeConfig(draft_model=model, k=k))
    engine.submit(prompt, params=SamplingParams(max_new_tokens=10,
                                                stop_tokens=(stop,)))
    completion = engine.run()[0]
    assert completion.finish_reason == "stop"
    np.testing.assert_array_equal(completion.tokens,
                                  reference[:len(prompt) + first + 1])
    if k is not None:
        assert engine.stats.decode_steps == 1
        assert engine.stats.spec_accepted == first


# ---------------------------------------------------------------------- #
# sampling params
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_top_k_1_matches_greedy(model, prompts, kv_cache):
    greedy = GenerationEngine(model, max_batch_size=3, kv_cache=kv_cache) \
        .generate_batch(prompts, 8)
    engine = GenerationEngine(model, max_batch_size=3, kv_cache=kv_cache)
    ids = [engine.submit(p, params=SamplingParams(max_new_tokens=8,
                                                  temperature=0.7,
                                                  top_k=1, seed=11))
           for p in prompts]
    done = {c.request_id: c for c in engine.run()}
    for rid, want in zip(ids, greedy):
        np.testing.assert_array_equal(done[rid].tokens, want)


def test_per_request_seed_independent_of_batch_composition(model):
    """Identical request -> identical sample stream, alone or crowded."""
    prompt = np.array([5, 6, 7])
    params = SamplingParams(max_new_tokens=10, temperature=1.3,
                            top_k=8, top_p=0.9, seed=123)
    solo = GenerationEngine(model, max_batch_size=1)
    sid = solo.submit(prompt, params=params)
    solo_tokens = {c.request_id: c for c in solo.run()}[sid].tokens

    crowd = GenerationEngine(model, max_batch_size=3)
    crowd.submit(np.array([9, 1]),
                 params=SamplingParams(max_new_tokens=12, temperature=2.0,
                                       seed=7))
    rid = crowd.submit(prompt, params=params)
    crowd.submit(np.array([2, 2, 2, 2]),
                 params=SamplingParams(max_new_tokens=5, temperature=0.8,
                                       top_k=4, seed=99))
    crowd_tokens = {c.request_id: c for c in crowd.run()}[rid].tokens
    np.testing.assert_array_equal(crowd_tokens, solo_tokens)


def test_engine_seeded_requests_reproducible_across_engines(model, prompts):
    """seed=None requests draw seeds from the engine stream: two engines
    seeded alike and fed alike sample alike."""
    outs = []
    for _ in range(2):
        engine = GenerationEngine(model, max_batch_size=4,
                                  rng=np.random.default_rng(42))
        ids = [engine.submit(p, params=SamplingParams(max_new_tokens=8,
                                                      temperature=1.5,
                                                      top_p=0.95))
               for p in prompts]
        done = {c.request_id: c for c in engine.run()}
        outs.append([done[rid].tokens for rid in ids])
    for first, second in zip(*outs):
        np.testing.assert_array_equal(first, second)


def test_sampling_params_validation():
    with pytest.raises(ValueError):
        SamplingParams(max_new_tokens=0)
    with pytest.raises(ValueError):
        SamplingParams(temperature=-0.1)
    with pytest.raises(ValueError):
        SamplingParams(top_k=0)
    with pytest.raises(ValueError):
        SamplingParams(top_p=0.0)
    with pytest.raises(ValueError):
        SamplingParams(top_p=1.5)
    assert SamplingParams(stop_tokens=[3, np.int64(4)]).stop_tokens == (3, 4)
    assert SamplingParams().greedy
    assert SamplingParams(temperature=0.5, top_k=1).greedy
    assert not SamplingParams(temperature=0.5).greedy


def test_submit_validates_params_usage(model):
    engine = GenerationEngine(model)
    with pytest.raises(ValueError):
        engine.submit(np.array([1]))  # neither shorthand nor params
    with pytest.raises(ValueError):
        engine.submit(np.array([1]), 4, params=SamplingParams())  # both


# ---------------------------------------------------------------------- #
# top-k / top-p masking (unit level)
# ---------------------------------------------------------------------- #
def test_apply_top_k_masks_per_row():
    logits = np.array([[0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0, 0.0]])
    out = apply_top_k_top_p(logits, np.array([2, 1]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(out[0], [-np.inf, -np.inf, 2.0, 3.0])
    np.testing.assert_array_equal(out[1], [3.0, -np.inf, -np.inf, -np.inf])


def test_apply_top_p_keeps_minimal_nucleus():
    logits = np.log(np.array([[0.5, 0.3, 0.15, 0.05]]))
    out = apply_top_k_top_p(logits, np.array([4]), np.array([0.6]))
    assert np.isfinite(out[0, :2]).all()      # 0.5 + 0.3 reach 0.6
    assert np.isinf(out[0, 2:]).all()
    # A tiny nucleus still keeps the most likely token.
    out = apply_top_k_top_p(logits, np.array([4]), np.array([0.01]))
    assert np.isfinite(out[0, 0])
    assert np.isinf(out[0, 1:]).all()
    # Disabled filters return the input untouched.
    np.testing.assert_array_equal(
        apply_top_k_top_p(logits, np.array([4]), np.array([1.0])), logits)


def test_sampled_tokens_stay_inside_top_k(model):
    """End to end: a top-k=2 request only ever emits argmax or runner-up.

    Each continuation token is checked against a teacher-forced forward
    over its prefix: it must be one of that step's two highest logits.
    The hot temperature guarantees the filter is load-bearing, and the
    same seeded run must also be deterministic."""
    prompt = np.array([3, 1, 4])
    params = SamplingParams(max_new_tokens=12, temperature=1.5, top_k=2,
                            seed=5)
    runs = []
    for _ in range(2):
        engine = GenerationEngine(model, max_batch_size=1)
        rid = engine.submit(prompt, params=params)
        runs.append({c.request_id: c for c in engine.run()}[rid].tokens)
    np.testing.assert_array_equal(runs[0], runs[1])
    tokens = runs[0]
    for t in range(len(prompt), len(tokens)):
        logits = model(tokens[None, :t]).data[0, -1]
        top2 = set(np.argsort(logits)[-2:].tolist())
        assert int(tokens[t]) in top2


# ---------------------------------------------------------------------- #
# idle-slot sub-batch decode
# ---------------------------------------------------------------------- #
class _WidthSpy:
    """Model wrapper recording the batch width of every decode forward."""

    def __init__(self, model):
        self._model = model
        self.config = model.config
        self.decode_widths = []

    def __call__(self, tokens, **kwargs):
        if tokens.shape[1] == 1:
            self.decode_widths.append(tokens.shape[0])
        return self._model(tokens, **kwargs)


def test_decode_forwards_only_active_rows(model):
    spy = _WidthSpy(model)
    engine = GenerationEngine(spy, max_batch_size=4)
    engine.submit(np.array([1, 2, 3]), 6)
    engine.submit(np.array([4, 5]), 2)
    engine.run()
    # Two active rows while both live, one after the short request ends;
    # the two idle slots are never forwarded.
    assert spy.decode_widths == [2, 1, 1, 1, 1]
    # Occupancy still counts all four session slots as the denominator.
    stats = engine.stats
    assert stats.decode_slot_steps == 5 * 4
    assert stats.decode_tokens == 6
    assert stats.occupancy == pytest.approx(6 / 20)


@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_subbatch_decode_serves_all_backends(model, prompts, kv_cache):
    """Ragged budgets leave idle slots mid-run on every backend."""
    budgets = [3, 9, 5, 7, 4]
    engine = GenerationEngine(model, max_batch_size=len(prompts),
                              kv_cache=kv_cache, block_size=4)
    ids = [engine.submit(p, n) for p, n in zip(prompts, budgets)]
    done = {c.request_id: c for c in engine.run()}
    for rid, prompt, budget in zip(ids, prompts, budgets):
        assert len(done[rid].new_tokens) == budget
        np.testing.assert_array_equal(done[rid].tokens[:len(prompt)], prompt)
        if kv_cache != "fineq":
            want = model.generate(prompt, budget, temperature=0.0)
            np.testing.assert_array_equal(done[rid].tokens, want)
