"""Edge-serving scenario: memory budget, streaming serving, and quality.

The paper's motivation (Fig. 2b): weights dominate LLM serving memory.
This example loads the largest zoo model, shows the FP16 vs FineQ
serving-memory split, then drives the persistent serving session the way
a streaming client would: requests with per-request
:class:`repro.serve.SamplingParams` stream ``TokenEvent``s as tokens
land, one extra prompt is submitted mid-flight, one request is cancelled
part-way, and the FineQ-quantized model re-serves the same prompts so
the greedy continuations can be compared:

    python examples/edge_serving.py

Serving at scale
----------------
Every request here carries the same "system prompt" — the norm in real
traffic (assistant preambles, few-shot templates, multi-turn history).
The session therefore runs with ``prefix_sharing=True``: the first
prefill captures the system prompt's cache blocks in a radix
:class:`repro.serve.PrefixStore`, and every later request adopts them by
reference — quantized once, dequantized by every reader on the FineQ
backend — so prefill forwards only each request's novel suffix and the
shared blocks are resident once however many rows read them
(copy-on-write isolates divergence inside a partially-filled block).
Admission is delegated to the ``"prefix-affinity"`` scheduler, which
batches waiting requests that share cached prefixes into the same decode
wave; swap in ``scheduler="priority"`` (+ ``SamplingParams(priority=…)``
and a ``max_pool_blocks`` budget) and the engine instead preempts
lowest-priority rows under memory pressure, re-queuing them to restore
from the surviving shared prefix.  The same engine can record a
per-step trace (``record_trace=True``) that
``repro.hw.workloads.project_decode_trace`` replays through the paper's
six-stage accelerator model — ``benchmarks/test_serve_prefix.py`` asserts
the sharing numbers and the projection.
"""

import numpy as np

from repro.core.layout import serving_memory_layout
from repro.eval import clone_model, format_table
from repro.models import load_model
from repro.quant import get_quantizer
from repro.serve import GenerationEngine, SamplingParams

#: The shared system prompt every request begins with (> one 16-token
#: cache block, so prefix sharing captures full blocks + a tail).
SYSTEM_PROMPT = ["the", "helpful", "assistant", "answers", "every",
                 "question", "clearly", "and", "briefly", "using",
                 "simple", "words", "that", "people", "can", "easily",
                 "understand", "without", "effort"]
PROMPTS = [
    ["the", "ancient", "castle"],
    ["a", "new", "study"],
    ["the", "river", "flows", "through"],
    ["scientists", "discovered"],
    ["the", "market", "opened"],
    ["in", "the", "north"],
]
LATE_PROMPT = ["engineers", "built", "a"]
MAX_NEW_TOKENS = 12


def stream_session(model, prompts, late_prompt):
    """Serve ``prompts`` as a streaming client; returns (completions, engine).

    Even requests decode greedily, odd ones sample through top-k/top-p
    with a fixed per-request seed.  After a few events a late prompt is
    submitted into the live session and the second request is cancelled.
    All prompts share the system-prompt prefix, served from the prefix
    store after the first prefill captures it.
    """
    engine = GenerationEngine(model, max_batch_size=4,
                              scheduler="prefix-affinity",
                              prefix_sharing=True)
    ids = []
    for i, prompt in enumerate(prompts):
        params = (SamplingParams(max_new_tokens=MAX_NEW_TOKENS)
                  if i % 2 == 0 else
                  SamplingParams(max_new_tokens=MAX_NEW_TOKENS,
                                 temperature=0.8, top_k=20, top_p=0.9,
                                 seed=100 + i))
        ids.append(engine.submit(prompt, params=params))
    victim, late_id = ids[1], None
    events = 0
    for event in engine.stream():
        events += 1
        if events == 6 and late_id is None:
            late_id = engine.submit(late_prompt, max_new_tokens=MAX_NEW_TOKENS)
            print(f"   ... {events} events in: submitted request {late_id} "
                  "mid-flight")
        if events == 10 and victim is not None:
            engine.cancel(victim)
            print(f"   ... {events} events in: cancelled request {victim} "
                  "(row and exclusive cache blocks freed; the shared "
                  "prefix stays)")
            victim = None
    return {c.request_id: c for c in engine.take_completions()}, engine


def main() -> None:
    print("loading llama-sim-13b (trains and caches on first run) ...")
    zoo = load_model("llama-sim-13b")
    model, tokenizer = zoo.model, zoo.tokenizer

    print("\n1. serving-memory layout (paper Fig. 2b) ...")
    rows = []
    for label, bits in (("FP16", 16.0), ("FineQ", 7 * 8 / 24)):
        layout = serving_memory_layout(model, batch=2, seq_len=224,
                                       weight_bits=bits)
        f = layout.fractions
        rows.append([label, f"{layout.total_bytes / 2**20:.1f}",
                     f"{f['weights']:.0%}", f"{f['kv_cache']:.0%}",
                     f"{f['others']:.0%}"])
    print(format_table(["Weights", "Total MiB", "W %", "KV %", "Other %"],
                       rows))

    print(f"\n2. streaming {len(PROMPTS)} + 1 mid-flight prompts (shared "
          f"{len(SYSTEM_PROMPT)}-token system prompt) through the FP16 "
          "prefix-sharing session ...")
    prompts = [np.asarray(tokenizer.encode(SYSTEM_PROMPT + words))
               for words in PROMPTS]
    late = np.asarray(tokenizer.encode(SYSTEM_PROMPT + LATE_PROMPT))
    fp16_done, fp16_engine = stream_session(model, prompts, late)
    fp16_stats = fp16_engine.stats

    print("\n   finished requests (decoding mode, finish reason, text "
          "after the system prompt):")
    skip = len(SYSTEM_PROMPT)
    for rid in sorted(fp16_done):
        completion = fp16_done[rid]
        mode = "greedy" if rid % 2 == 0 or rid >= len(PROMPTS) else "top-k/p"
        text = " ".join(tokenizer.decode(completion.tokens[skip:]))
        print(f"   #{rid} [{mode:7}] [{completion.finish_reason:9}] {text}")
    print(f"\n   decode throughput : {fp16_stats.decode_tokens_per_s:7,.0f} "
          f"tok/s at occupancy {fp16_stats.occupancy:.0%}")
    print(f"   prefix sharing    : {fp16_stats.shared_prompt_tokens} of "
          f"{fp16_stats.prompt_tokens} prompt tokens served from cached "
          f"prefixes ({fp16_stats.prefix_hit_tokens_ratio:.0%}); prefill "
          f"forwarded only {fp16_stats.prefill_tokens}")

    print("\n3. FineQ-quantized engine on the same prompts (greedy, "
          "prefix-shared) ...")
    quantized = clone_model(model)
    report = get_quantizer("fineq").quantize_model(quantized)
    q_engine = GenerationEngine(quantized, max_batch_size=4,
                                scheduler="prefix-affinity",
                                prefix_sharing=True)
    all_prompts = prompts + [late]
    fineq_out = q_engine.generate_batch(all_prompts, MAX_NEW_TOKENS)
    identical = 0
    for rid, fineq_tokens in enumerate(fineq_out):
        fp16_completion = fp16_done.get(rid)
        if fp16_completion is not None \
                and fp16_completion.finish_reason == "length" \
                and (rid % 2 == 0 or rid >= len(PROMPTS)):
            identical += int(np.array_equal(fp16_completion.tokens,
                                            fineq_tokens))
    print(f"   quantized weight payload: {report.avg_bits:.2f} bits/weight, "
          f"{report.total_bytes() / 2**10:.0f} KiB "
          f"(vs {sum(l.weight.size for _, l in model.quantizable_linears()) * 2 / 2**10:.0f} KiB FP16)")
    print(f"   greedy continuations surviving quantization: {identical} of "
          f"{1 + len(PROMPTS) // 2}")
    print(f"   FineQ decode throughput: "
          f"{q_engine.stats.decode_tokens_per_s:7,.0f} tok/s")


if __name__ == "__main__":
    main()
