"""Engine-level block-resident decode: parity with sequential
``generate`` at multi-chunk contexts, bounded decode scratch, and the
streamed-bytes trace."""

import numpy as np
import pytest

from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.serve import GenerationEngine, StepTrace


@pytest.fixture(scope="module")
def model():
    return TransformerLM(tiny_config(vocab_size=64, seed=3))


@pytest.fixture(scope="module")
def long_model():
    """Tiny dims but a RoPE table long enough for multi-chunk contexts."""
    return TransformerLM(tiny_config(vocab_size=64, seed=3,
                                     max_seq_len=512))


def run_greedy(model, prompts, budget, **kwargs):
    engine = GenerationEngine(model, max_batch_size=len(prompts), **kwargs)
    ids = [engine.submit(p, budget) for p in prompts]
    done = {c.request_id: c for c in engine.run()}
    return engine, [done[i].tokens for i in ids]


def test_multi_chunk_paged_parity_with_sequential_generate(long_model):
    """Greedy parity holds when contexts span several chunks (the
    streamed value accumulation regime)."""
    rng = np.random.default_rng(7)
    prompts = [rng.integers(0, 64, size=length) for length in (200, 150)]
    engine, tokens = run_greedy(long_model, prompts, 60, kv_cache="paged",
                                block_size=16)
    cache = engine.cache
    assert cache.chunk_blocks * cache.block_size < 260  # multi-chunk for sure
    for prompt, got in zip(prompts, tokens):
        want = long_model.generate(prompt, 60, temperature=0.0)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_no_dense_materialization_on_long_context_decode(long_model,
                                                         kv_cache):
    """The acceptance counter: beyond one chunk window, decode scratch
    stays a small constant instead of a dense gather's
    (batch, heads, total, head_dim) K and V copies."""
    rng = np.random.default_rng(11)
    prompts = [rng.integers(0, 64, size=300) for _ in range(2)]
    engine, _ = run_greedy(long_model, prompts, 8, kv_cache=kv_cache,
                           block_size=16)
    config = long_model.config
    total = 300 + 8 - 1  # the deepest decode step's context width
    dense = 2 * len(prompts) * config.num_heads * total \
        * (config.d_model // config.num_heads) * 4
    scratch = engine.stats.decode_peak_scratch_bytes
    assert 0 < scratch < dense


def test_fineq_dequant_stats_and_streamed_trace(model):
    """The dequant memo's hit rate surfaces in EngineStats, and traces
    carry post-cache streamed bytes the hw projection consumes."""
    rng = np.random.default_rng(13)
    prompts = [rng.integers(0, 64, size=20) for _ in range(3)]
    engine, _ = run_greedy(model, prompts, 24, kv_cache="fineq",
                           record_trace=True)
    stats = engine.stats
    assert stats.dequant_cache_hits > 0
    assert 0.0 < stats.dequant_cache_hit_rate <= 1.0
    assert engine.trace
    for step in engine.trace:
        assert isinstance(step, StepTrace)
        assert 0 <= step.kv_bytes_streamed <= step.kv_bytes

    from repro.hw.workloads import project_decode_trace
    streamed = project_decode_trace(model.config, engine.trace)
    logical = project_decode_trace(
        model.config,
        [s._replace(kv_bytes_streamed=-1) for s in engine.trace])
    assert streamed.kv_dma_cycles <= logical.kv_dma_cycles
    # Traces carry decode steps and prefill-chunk steps; the chunk
    # records are flagged by prefill_tokens and cover exactly the
    # forwarded prefill work.
    assert streamed.tokens == logical.tokens \
        == stats.decode_tokens + stats.prefill_tokens
    decode_only = project_decode_trace(
        model.config, [s for s in engine.trace if s.prefill_tokens == 0])
    assert decode_only.tokens == stats.decode_tokens
