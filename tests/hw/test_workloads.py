"""GEMM workload extraction and decode-trace projection tests."""

from repro.hw.workloads import (DecodeProjection, GEMMShape, block_gemms,
                                decode_step_cycles, model_gemms,
                                project_decode_trace, total_macs,
                                total_weight_count)
from repro.models.configs import ZOO_CONFIGS, tiny_config, zoo_config
from repro.serve.stats import StepTrace


def test_block_has_six_gemms():
    config = zoo_config("llama-sim-7b")
    gemms = block_gemms(config, seq_len=32)
    assert len(gemms) == 6
    names = {g.name for g in gemms}
    assert names == {"attn.wq", "attn.wk", "attn.wv", "attn.wo",
                     "ffn.up", "ffn.down"}


def test_model_gemm_count_scales_with_layers():
    config = zoo_config("llama-sim-7b")
    gemms = model_gemms(config, seq_len=32)
    assert len(gemms) == 6 * config.num_layers


def test_gemm_shapes_match_architecture():
    config = zoo_config("llama-sim-7b")
    by_name = {g.name: g for g in model_gemms(config, 16)}
    up = by_name["blocks.0.ffn.up"]
    assert (up.m, up.k, up.n) == (config.d_ff, config.d_model, 16)
    down = by_name["blocks.0.ffn.down"]
    assert (down.m, down.k, down.n) == (config.d_model, config.d_ff, 16)


def test_macs_scale_with_seq():
    config = zoo_config("llama-sim-3b")
    assert total_macs(config, 64) == 2 * total_macs(config, 32)


def test_weight_count_matches_quantizable_surface():
    config = zoo_config("llama-sim-3b")
    from repro.nn import TransformerLM
    model = TransformerLM(config)
    surface = sum(layer.weight.size
                  for _, layer in model.quantizable_linears())
    assert total_weight_count(config) == surface


def test_gemm_shape_properties():
    shape = GEMMShape("x", 4, 5, 6)
    assert shape.macs == 120
    assert shape.weight_count == 20


# ---------------------------------------------------------------------- #
# serving decode traces -> accelerator projection
# ---------------------------------------------------------------------- #
def test_decode_step_cycles_monotone_in_batch():
    config = zoo_config("llama-sim-7b")
    small = decode_step_cycles(config, 1, "fineq")
    big = decode_step_cycles(config, 64, "fineq")
    assert 0 < small <= big


def test_projection_accumulates_trace():
    config = zoo_config("llama-sim-3b")
    trace = [StepTrace(4, 4, 4096), StepTrace(4, 4, 4096),
             StepTrace(2, 2, 2048)]
    projection = project_decode_trace(config, trace, design="fineq")
    assert projection.steps == 3
    assert projection.tokens == 10
    per_step4 = decode_step_cycles(config, 4, "fineq")
    per_step2 = decode_step_cycles(config, 2, "fineq")
    assert projection.compute_cycles == 2 * per_step4 + per_step2
    assert projection.kv_dma_cycles == -(-(2 * 4096 + 2048) // 128)
    assert projection.tokens_per_s > 0
    assert projection.seconds > 0
    as_dict = projection.to_dict()
    assert as_dict["total_cycles"] == projection.total_cycles


def test_projection_of_a_recorded_trace_is_pinned():
    """One trace with every record shape the engine writes — a prefill
    chunk, decode steps with and without streamed bytes, a speculative
    step, a fully memoised step — projects to the numbers the positional
    reader produced (recorded at PR 16); a ``StepTrace`` field inserted
    or reordered cannot move them."""
    trace = [
        StepTrace(rows=3, tokens=41, kv_bytes=20480, kv_bytes_streamed=20480,
                  prefill_tokens=41),
        StepTrace(rows=3, tokens=3, kv_bytes=36864, kv_bytes_streamed=9216),
        StepTrace(rows=3, tokens=3, kv_bytes=38400),
        StepTrace(rows=2, tokens=5, kv_bytes=40960, kv_bytes_streamed=12288,
                  spec_proposed=8, spec_accepted=3, spec_draft_tokens=19,
                  spec_verify_tokens=10),
        StepTrace(rows=1, tokens=1, kv_bytes=8192, kv_bytes_streamed=0),
    ]
    target, draft = zoo_config("llama-sim-7b"), zoo_config("llama-sim-3b")
    want = {("fineq", None): (235490, 89785.6156667429),
            ("fineq", draft): (364334, 58088.23932354601),
            ("baseline", None): (96475, 218324.87152817112),
            ("baseline", draft): (146347, 144242.21806429667)}
    for (design, draft_config), (compute, tok_s) in want.items():
        got = project_decode_trace(target, trace, design=design,
                                   draft_config=draft_config)
        assert (got.steps, got.tokens, got.kv_dma_cycles) == (5, 53, 628)
        assert got.compute_cycles == compute
        assert got.tokens_per_s == tok_s


def test_quantized_kv_bytes_project_to_fewer_dma_cycles():
    """The FineQ cache's ~4.7x smaller KV footprint directly shrinks the
    projected DMA time — the serving-side payoff of the 2.33-bit format."""
    config = zoo_config("llama-sim-3b")
    fp32_trace = [StepTrace(8, 8, 8 * 4096)] * 16
    quant_trace = [StepTrace(8, 8, 8 * 4096 // 4)] * 16
    fp32 = project_decode_trace(config, fp32_trace, design="baseline")
    quant = project_decode_trace(config, quant_trace, design="fineq")
    assert quant.kv_dma_cycles * 4 <= fp32.kv_dma_cycles + 4


def test_projection_from_engine_trace():
    """End to end: a traced engine session projects onto both designs."""
    import numpy as np

    from repro.nn import TransformerLM
    from repro.serve import GenerationEngine

    model = TransformerLM(tiny_config(vocab_size=64, seed=0))
    engine = GenerationEngine(model, max_batch_size=4, record_trace=True)
    for i in range(4):
        engine.submit(np.arange(1 + i, 6 + i), 6)
    engine.run()
    # The trace carries decode steps plus prefill-chunk steps (flagged
    # by prefill_tokens), covering every token the session forwarded.
    decode_steps = [t for t in engine.trace if t.prefill_tokens == 0]
    chunk_steps = [t for t in engine.trace if t.prefill_tokens > 0]
    assert len(decode_steps) == engine.stats.decode_steps
    assert sum(t.tokens for t in decode_steps) == engine.stats.decode_tokens
    assert sum(t.tokens for t in chunk_steps) == engine.stats.prefill_tokens
    baseline = project_decode_trace(model.config, engine.trace, "baseline")
    fineq = project_decode_trace(model.config, engine.trace, "fineq")
    assert isinstance(baseline, DecodeProjection)
    assert baseline.tokens == fineq.tokens \
        == engine.stats.decode_tokens + engine.stats.prefill_tokens
    assert fineq.tokens_per_s > 0 and baseline.tokens_per_s > 0


def test_untraced_engine_keeps_no_trace():
    import numpy as np

    from repro.nn import TransformerLM
    from repro.serve import GenerationEngine

    model = TransformerLM(tiny_config(vocab_size=64, seed=0))
    engine = GenerationEngine(model, max_batch_size=2)
    engine.submit(np.array([1, 2, 3]), 4)
    engine.run()
    assert len(engine.trace) == 0
