"""Speculative decoding on the zoo: draft 3b, verify 13b, project 2x.

Wall-clock in the numpy simulator is roughly break-even — the
interpreter charges per *forward call*, not per FLOP, so the 4-layer
draft costs ~0.5x of the 7-layer target per call and eats most of what
acceptance buys.  The accelerator projection prices what the pipeline
actually moves: verify width is nearly free on a weight-load-dominated
decode step, the draft's GEMMs really are ~0.22x of the target's, and
one verify reads the KV context once per ~3.5 emitted tokens instead of
once per token.  On the FP16 ``baseline`` design, whose decode is
DMA-bound on exactly that KV traffic, the 3b→13b pair clears 2x at
batch 1–4; the ``fineq`` design has already shrunk the cache 4.7x, so
speculation only adds ~1.2x there — the two attack the same
memory-bound decode problem.

In-distribution prompts matter: zoo models only agree on corpus-like
text, and both extrapolate RoPE past their trained length, so
acceptance is measured at prompt_len 128 (0.78 with k=4; it falls to
~0.3 by context 440).
"""

import numpy as np
import pytest

from repro.eval.tables import format_table
from repro.hw.workloads import project_decode_trace
from repro.serve import GenerationEngine, SpeculativeConfig, corpus_prompts

TARGET = "llama-sim-13b"
DRAFT = "llama-sim-3b"
PROMPT_LEN = 128
NUM_PROMPTS = 8
MAX_NEW = 32
K = 4
BATCHES = (1, 2, 4)
MIN_PROJECTED_SPEEDUP = 2.0
MIN_ACCEPTANCE = 0.6


def serve(target, prompts, batch_size, speculative=None, kv_cache="paged"):
    engine = GenerationEngine(target, max_batch_size=batch_size,
                              kv_cache=kv_cache, record_trace=True,
                              speculative=speculative)
    ids = [engine.submit(p, MAX_NEW) for p in prompts]
    done = {c.request_id: c for c in engine.run()}
    return engine, [done[i].tokens for i in ids]


def projected_tok_s(engine, target, draft=None):
    """Accelerator decode tokens/sec on the FP16 baseline design."""
    decode_steps = [t for t in engine.trace if t.prefill_tokens == 0]
    projection = project_decode_trace(
        target.config, decode_steps, design="baseline",
        draft_config=None if draft is None else draft.config)
    return projection.tokens_per_s


@pytest.fixture(scope="module")
def spec_runs(zoo_all):
    """Target-only and speculative serves of one corpus wave per batch."""
    target = zoo_all[TARGET]
    draft = zoo_all[DRAFT]
    prompts = corpus_prompts(target.tokenizer, NUM_PROMPTS, PROMPT_LEN,
                             seed=0)
    spec = SpeculativeConfig(draft_model=draft.model, k=K)
    runs = {}
    for batch in BATCHES:
        base_engine, base_tokens = serve(target.model, prompts, batch)
        spec_engine, spec_tokens = serve(target.model, prompts, batch,
                                         speculative=spec)
        runs[batch] = {
            "base_engine": base_engine, "base_tokens": base_tokens,
            "spec_engine": spec_engine, "spec_tokens": spec_tokens,
            "base_proj": projected_tok_s(base_engine, target.model),
            "spec_proj": projected_tok_s(spec_engine, target.model,
                                         draft.model),
        }
    rows = []
    for batch, run in runs.items():
        stats = run["spec_engine"].stats
        rows.append([batch,
                     f"{run['spec_engine'].stats.decode_tokens_per_s:.1f}",
                     f"{stats.acceptance_rate:.2f}",
                     f"{run['base_proj']:.0f}",
                     f"{run['spec_proj']:.0f}",
                     f"{run['spec_proj'] / run['base_proj']:.2f}x"])
    print("\n" + format_table(
        ["batch", "wall tok/s", "accept", "proj base tok/s",
         "proj spec tok/s", "proj speedup"], rows,
        title=f"speculative decode {DRAFT} -> {TARGET} "
              f"(k={K}, ctx {PROMPT_LEN}, design=baseline)"))
    return runs


@pytest.mark.parametrize("batch", BATCHES)
def test_projected_speedup_at_least_2x(spec_runs, batch):
    """The tentpole target: >= 2x decode tok/s at batch <= 4 on the
    3b -> 13b pair, on the accelerator whose decode is DMA-bound."""
    run = spec_runs[batch]
    speedup = run["spec_proj"] / run["base_proj"]
    assert speedup >= MIN_PROJECTED_SPEEDUP, (
        f"batch {batch}: projected speedup {speedup:.2f}x "
        f"< {MIN_PROJECTED_SPEEDUP}x")


@pytest.mark.parametrize("batch", BATCHES)
def test_acceptance_rate_in_distribution(spec_runs, batch):
    stats = spec_runs[batch]["spec_engine"].stats
    assert stats.spec_proposed > 0
    assert stats.acceptance_rate >= MIN_ACCEPTANCE


@pytest.mark.parametrize("batch", BATCHES)
def test_speculative_greedy_output_identical(spec_runs, batch):
    """Speedup or not, the emitted streams must match target-only."""
    run = spec_runs[batch]
    for got, want in zip(run["spec_tokens"], run["base_tokens"]):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("batch", BATCHES)
def test_wall_clock_does_not_regress_badly(spec_runs, batch):
    """Honesty check on the simulator itself: speculation must stay in
    the break-even band on wall-clock (the draft's per-call interpreter
    overhead is ~0.5x of the target's, so 2x wall-clock is out of reach
    here — the projection above is where the pipeline pays off)."""
    run = spec_runs[batch]
    base = run["base_engine"].stats.decode_tokens_per_s
    spec = run["spec_engine"].stats.decode_tokens_per_s
    assert spec >= 0.5 * base


def test_fineq_spec_session_drains_pool(zoo_all):
    """After a speculative fineq serve (rollback churn against the
    quantized cache), every pool block is free with refcount zero."""
    target = zoo_all[TARGET]
    draft = zoo_all[DRAFT]
    prompts = corpus_prompts(target.tokenizer, 4, PROMPT_LEN, seed=1)
    spec = SpeculativeConfig(draft_model=draft.model, k=K)
    engine, _ = serve(target.model, prompts, 2, speculative=spec,
                      kv_cache="fineq")
    for cache in (engine.cache, engine._spec.cache):
        assert cache.free_blocks() == cache._total_blocks
        for block in range(cache._total_blocks):
            assert cache.block_refcount(block) == 0
