"""Engine sessions on fineq KV: the all-layer, written-through flush
stores the bytes, emits the tokens and accounts the traffic of the
per-layer reference flush.

The ``stepwise_fineq_cache`` fixture (tests/conftest.py) is swapped in
as the engine's quantized cache class to play the reference: each layer
flushes at its own crossing through the line-by-line kernel, nothing is
written through.
"""

import numpy as np
import pytest

import repro.serve.engine as engine_module
from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.serve import GenerationEngine, SpeculativeConfig

VOCAB = 64
BLOCK = 8


@pytest.fixture(scope="module")
def model():
    return TransformerLM(tiny_config(vocab_size=VOCAB, seed=3))


@pytest.fixture(scope="module")
def draft():
    return TransformerLM(tiny_config(vocab_size=VOCAB, seed=4))


def pool_bytes(cache):
    return [pool[layer].tobytes()
            for pool in (cache.codec._payload_k, cache.codec._payload_v,
                         cache.codec._scale_k, cache.codec._scale_v)
            for layer in range(cache.num_layers)]


def serve(model, prompts, budget, check=None, cancel_at=None, **kwargs):
    """Run a session step by step, ``check``-ing the cache after every
    step; returns (engine, tokens by request)."""
    engine = GenerationEngine(model, max_batch_size=4, kv_cache="fineq",
                              block_size=BLOCK, record_trace=True, **kwargs)
    ids = [engine.submit(p, budget) for p in prompts]
    tokens = {rid: [] for rid in ids}
    steps = 0
    while engine.has_work():
        for event in engine.step():
            if event.token is not None:
                tokens[event.request_id].append(event.token)
        steps += 1
        if cancel_at is not None and steps == cancel_at:
            engine.cancel(ids[1])
        if check is not None:
            check(engine.cache)
    return engine, tokens


def scenario_prompts(seed):
    rng = np.random.default_rng(seed)
    system = rng.integers(0, VOCAB, size=2 * BLOCK)     # block-aligned
    return [np.concatenate([system, rng.integers(0, VOCAB, size=n)])
            for n in (3, BLOCK, 11, 1, 6, 2 * BLOCK + 1)]


@pytest.mark.parametrize("scenario", ["plain", "prefix", "spec"])
def test_session_equals_per_layer_reference_flush(
        monkeypatch, stepwise_fineq_cache, assert_memo_coherent, model,
        draft, scenario):
    """Six ragged requests through four slots with a mid-session cancel —
    plain decode, prefix sharing over a block-aligned system prompt
    (adopted rows cross their first boundary with an empty buffer), and
    speculative clone-rows verify with rollback — leave the same tokens
    and the same pool bytes as the reference flush."""
    kwargs = {
        "plain": {},
        "prefix": {"prefix_sharing": True, "scheduler": "prefix-affinity"},
        "spec": {"speculative": SpeculativeConfig(draft_model=draft, k=3)},
    }[scenario]
    prompts = scenario_prompts(11)
    fused, fused_tokens = serve(model, prompts, 3 * BLOCK,
                                check=assert_memo_coherent, cancel_at=9,
                                **kwargs)
    monkeypatch.setattr(engine_module, "QuantizedPagedKVCache",
                        stepwise_fineq_cache)
    reference, reference_tokens = serve(model, prompts, 3 * BLOCK,
                                        cancel_at=9, **kwargs)
    assert isinstance(reference.cache, stepwise_fineq_cache)
    assert fused_tokens == reference_tokens
    assert pool_bytes(fused.cache) == pool_bytes(reference.cache)

    # Same blocks quantized, in far fewer kernel calls.
    stats, ref_stats = fused.stats, reference.stats
    assert stats.kv_flush_blocks == ref_stats.kv_flush_blocks > 0
    assert stats.kv_flush_calls < ref_stats.kv_flush_calls
    exported = stats.to_dict()      # what /metrics serves
    assert exported["kv_flush_calls"] == stats.kv_flush_calls
    assert exported["kv_flush_blocks"] == stats.kv_flush_blocks
    if scenario == "prefix":
        assert stats.shared_prompt_tokens > 0
    else:
        # Every flushed block is read by its own row, so the fills are
        # charged exactly the misses the reference takes: the streamed
        # totals the accelerator projection replays do not move.
        assert sum(t.kv_bytes_streamed for t in fused.trace) == \
            sum(t.kv_bytes_streamed for t in reference.trace)
        assert stats.dequant_cache_misses == 0
        assert ref_stats.dequant_cache_misses > 0


def test_decode_crossing_batches_all_layers(model):
    """Four rows in lockstep: each boundary crossing is one kernel call
    over rows x layers x {K, V} blocks."""
    rng = np.random.default_rng(5)
    prompts = [rng.integers(0, VOCAB, size=5) for _ in range(4)]
    engine, _ = serve(model, prompts, 2 * BLOCK)
    layers = model.config.num_layers
    assert engine.stats.kv_flush_calls == 2          # positions 8 and 16
    assert engine.stats.kv_flush_blocks == 2 * 4 * layers * 2
