"""Paged / FineQ-quantized KV cache: memory and accuracy tracking.

The tentpole numbers of the paged-cache PR, asserted so they cannot
silently erode:

* the quantized cache stores a cached token in <= 1/4 the bytes of the
  FP32 paged cache (measured at the live-token high-water mark of a real
  engine run — ~4.7x in practice: 2.33-bit codes + FP16 scales give ~7x
  on full blocks, diluted by the FP32 current-block write buffers);
* wikitext-sim perplexity evaluated *through* the quantized cache stays
  within 5% of the FP32-cache engine on the 7B stand-in (the FP32 paged
  cache itself is numerically exact vs a full forward);
* decode tokens/sec at batch 64 on the paged cache is recorded alongside
  bytes/token, extending the PR 1 throughput table with the memory axis.
"""

import numpy as np
import pytest

from repro.eval.perplexity import cached_perplexity, eval_stream, perplexity
from repro.eval.tables import format_table
from repro.nn import KVCache, PagedKVCache, QuantizedPagedKVCache
from repro.serve import GenerationEngine, bench_prompts

#: Long generations so most tokens live in completed (quantizable) blocks.
MAX_NEW_TOKENS = 112
SEQ_LEN = 64


@pytest.fixture(scope="module")
def mem_stats(zoo_7b):
    """``{(mode, batch): EngineStats}``, each from one full wave of
    ``batch`` prompts long enough that most tokens live in completed,
    quantizable blocks — the regime the 2.33-bit memory story targets."""
    model = zoo_7b.model
    stats = {}
    for mode, batch in (("paged", 16), ("fineq", 16),
                        ("paged", 32), ("paged", 64)):
        prompts = bench_prompts(model.config.vocab_size, num=batch,
                                max_prompt_len=16, min_prompt_len=8, seed=0)
        engine = GenerationEngine(model, max_batch_size=batch, kv_cache=mode)
        for prompt in prompts:
            engine.submit(prompt, MAX_NEW_TOKENS)
        engine.run()
        stats[mode, batch] = engine.stats
    return stats


def test_report_memory_table(mem_stats):
    print("\n" + format_table(
        ["mode", "batch", "decode tok/s", "bytes/token", "allocated"],
        [[mode, batch, f"{s.decode_tokens_per_s:,.0f}",
          f"{s.bytes_per_cached_token:,.1f}",
          f"{s.kv_peak_allocated_bytes:,}"]
         for (mode, batch), s in mem_stats.items()],
        title="KV cache memory (llama-sim-7b)"))
    for (_mode, batch), stats in mem_stats.items():
        assert stats.kv_peak_tokens > 0
        assert stats.decode_tokens == batch * (MAX_NEW_TOKENS - 1)


def test_quantized_cache_at_most_quarter_fp32_bytes_per_token(mem_stats):
    fp32 = mem_stats["paged", 16]
    quant = mem_stats["fineq", 16]
    ratio = fp32.bytes_per_cached_token / quant.bytes_per_cached_token
    print(f"\nbytes/cached-token: fp32={fp32.bytes_per_cached_token:.1f} "
          f"fineq={quant.bytes_per_cached_token:.1f} ({ratio:.1f}x)")
    assert quant.bytes_per_cached_token <= fp32.bytes_per_cached_token / 4


def test_paged_allocation_tracks_live_tokens(zoo_7b):
    """On a mixed-length workload the paged pool allocates for the sum of
    live tokens; a rectangle would pay batch x longest-row regardless."""
    model = zoo_7b.model
    config = model.config
    prompts = bench_prompts(config.vocab_size, num=16,
                            max_prompt_len=16, min_prompt_len=8, seed=3)
    budgets = [MAX_NEW_TOKENS if i % 2 == 0 else 28
               for i in range(len(prompts))]
    engine = GenerationEngine(model, max_batch_size=16, kv_cache="paged")
    for prompt, budget in zip(prompts, budgets):
        engine.submit(prompt, budget)
    engine.run()
    paged = engine.stats.kv_peak_allocated_bytes
    longest = max(len(p) + n for p, n in zip(prompts, budgets))
    dense = KVCache.projected_bytes(
        config.num_layers, config.num_heads,
        config.d_model // config.num_heads, longest, batch=16,
        bytes_per_element=4)
    print(f"\npeak allocated bytes: paged={paged:,} "
          f"dense fp32 rectangle={dense:,}")
    assert paged < dense


def test_batch64_decode_throughput_recorded(mem_stats):
    stats = mem_stats["paged", 64]
    assert stats.decode_tokens_per_s > 0
    assert stats.kv_peak_tokens > 48 * MAX_NEW_TOKENS  # batch stayed full


def test_quantized_kv_perplexity_within_5_percent(zoo_7b):
    model = zoo_7b.model
    num_layers = model.config.num_layers
    stream = eval_stream(zoo_7b.tokenizer, "wikitext-sim")

    fp32 = cached_perplexity(model, stream, SEQ_LEN,
                             lambda b: PagedKVCache(num_layers, batch=b),
                             max_windows=16)
    quant = cached_perplexity(model, stream, SEQ_LEN,
                              lambda b: QuantizedPagedKVCache(num_layers,
                                                              batch=b),
                              max_windows=16)
    delta = abs(quant - fp32) / fp32
    print(f"\nwikitext-sim ppl through the cache: fp32={fp32:.4f} "
          f"fineq={quant:.4f} (delta {100 * delta:.2f}%)")
    assert delta <= 0.05

    # The FP32 paged cache itself is exact: same windows, same numbers as
    # a full teacher-forced forward.
    plain = perplexity(model, stream, SEQ_LEN, max_tokens=16 * SEQ_LEN + 1)
    np.testing.assert_allclose(fp32, plain, rtol=1e-6)
