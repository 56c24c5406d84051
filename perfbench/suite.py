"""The five step-driven engine workloads and what they share.

A workload object is built from a seed (inputs only), ``setup()`` loads
models and serves one untimed warm-up, ``round()`` serves the plan once
on a fresh engine, ``check()`` verifies outputs outside the timed phase,
and ``end_to_end()`` / ``layers()`` turn rounds into named metrics.
:mod:`perfbench.gateway_open` and :mod:`perfbench.offline` implement the
same interface for the two workloads that are not a plain closed loop.
"""

from __future__ import annotations

import numpy as np
from repro.eval.perplexity import cached_perplexity, eval_stream
from repro.hw.energy import energy_efficiency
from repro.hw.workloads import project_decode_trace
from repro.models import load_model
from repro.models.configs import tiny_config
from repro.models.zoo import build_tokenizer
from repro.nn import PagedKVCache, QuantizedPagedKVCache, TransformerLM
from repro.serve import GenerationEngine, SpeculativeConfig

from perfbench import closed_loop, workloads
from perfbench.closed_loop import Round
from perfbench.trace import Tracer, per_round

#: Requests a ``"paged"`` workload compares against sequential
#: ``generate`` (the ``"fineq"`` and sampled streams have no bit-exact
#: sequential reference; their check is the round digest).
GENERATE_SAMPLE = 8

#: Windows of through-the-cache perplexity behind ``ppl_ratio_kv``.
KV_PPL_SEQ_LEN = 128

_SPAN_TRIPLES = ("serve.engine.step", "nn.model.forward",
                 "nn.paged_kv_cache.write", "nn.paged_kv_cache.read")


def load(name: str, quick: bool, seed: int = 0):
    """A zoo model (or, for ``quick``, an untrained tiny stand-in whose
    vocabulary still matches the zoo tokenizer)."""
    if quick:
        return TransformerLM(tiny_config(vocab_size=512, seed=seed,
                                         max_seq_len=512))
    # The zoo ships trained; a missing artifact must fail, not retrain.
    return load_model(name, train_if_missing=False).model


def eval_tokens(count: int) -> np.ndarray:
    """The first ``count`` tokens of the held-out wikitext-sim stream."""
    stream = eval_stream(build_tokenizer(), "wikitext-sim",
                         num_sentences=count // 10 + 50)
    return np.asarray(stream[:count], dtype=np.int64)


def kv_perplexity_ratio(model, kv_cache: str, windows: int) -> float:
    """Through-the-cache perplexity on ``kv_cache`` over FP32 paged.

    The paged backend is the reference, so it is 1 by definition and
    nothing is computed for it.
    """
    if kv_cache != "fineq":
        return 1.0
    layers = model.config.num_layers
    stream = eval_tokens(windows * KV_PPL_SEQ_LEN + 1)
    reference = cached_perplexity(
        model, stream, KV_PPL_SEQ_LEN,
        lambda rows: PagedKVCache(layers, batch=rows), max_windows=windows)
    quantized = cached_perplexity(
        model, stream, KV_PPL_SEQ_LEN,
        lambda rows: QuantizedPagedKVCache(layers, batch=rows),
        max_windows=windows)
    return quantized / reference


def weight_bits(model) -> float:
    """Bits per weight of the linears as held in memory."""
    linears = [layer.weight.data for _, layer in model.quantizable_linears()]
    return 8.0 * sum(w.nbytes for w in linears) / sum(w.size for w in linears)


def exact(value: float, samples: int = 1) -> dict:
    return {"value": float(value), "samples": samples, "rounds": [],
            "supported": True}


def kv_bytes_per_token(stats: list[dict]) -> dict:
    """Resident KV bytes per live token at each round's high-water mark."""
    values = [s["kv_peak_physical_bytes"] / s["kv_peak_tokens"]
              for s in stats]
    return {"value": float(np.median(values)), "samples": len(values),
            "rounds": values, "supported": True}


class Workload:
    """Interface the runner drives (see the module docstring)."""

    name = ""
    why = ""
    #: Share of the run's seconds spent in ``round()`` calls; the rest
    #: goes to ``tail()`` (only the gateway has one).
    round_share = 1.0
    #: Directory of the journal files (only the gateway writes any).
    journal_dir: str | None = None

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick
        self.sizes = (workloads.QUICK if quick else workloads.FULL)

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, tracer: Tracer | None = None):
        raise NotImplementedError

    def tail(self, seconds: float, tracer: Tracer | None) -> None:
        """Phases after the rounds (default: none)."""

    def check(self, rounds: list) -> tuple[int, int]:
        """``(attempted, failed)`` over every round served."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove what the workload left on disk (default: nothing)."""

    def end_to_end(self, rounds: list) -> dict:
        raise NotImplementedError

    def layers(self, rounds: list, traced: list, tracer: Tracer,
               end_to_end: dict) -> dict:
        raise NotImplementedError


class EngineWorkload(Workload):
    """A closed loop on ``GenerationEngine`` (see README for each)."""

    model_name = "llama-sim-7b"
    kv_cache = "paged"
    engine_kwargs: dict = {}
    draft_name: str | None = None
    spec_k = 0
    generate_sample = 0
    energy_seq_len = 8

    def plan_for(self, model) -> list[list[workloads.Req]]:
        return workloads.chat_plan(self.seed, model.config.vocab_size,
                                   **self.sizes["chat"])

    def setup(self) -> None:
        self.model = load(self.model_name, self.quick, seed=1)
        self.draft = (load(self.draft_name, self.quick, seed=2)
                      if self.draft_name else None)
        self.plan = self.plan_for(self.model)
        closed_loop.serve_plan(self.engine(),
                               workloads.warmup_plan(self.plan))

    def engine(self, record_trace: bool = False):
        speculative = (SpeculativeConfig(draft_model=self.draft,
                                         k=self.spec_k)
                       if self.draft is not None else None)
        return GenerationEngine(
            self.model, max_batch_size=len(self.plan),
            kv_cache=self.kv_cache, record_trace=record_trace,
            speculative=speculative, **self.engine_kwargs)

    def round(self, tracer: Tracer | None = None) -> Round:
        engine = self.engine(record_trace=tracer is not None)
        served = closed_loop.serve_plan(engine, self.plan, tracer)
        if engine.prefix_store is not None:
            served.evicted_blocks = engine.prefix_store.stats.evicted_blocks
        return served

    # ------------------------------------------------------------------ #
    def check(self, rounds: list[Round]) -> tuple[int, int]:
        attempted = sum(len(r.logs) for r in rounds)
        # Rounds are identical by construction: a stream that differs
        # from round 0's fails the whole round.
        reference = rounds[0].digest()
        failed = sum(len(r.logs) if r.digest() != reference
                     else closed_loop.check_lengths(r) for r in rounds)
        sample = min(self.generate_sample, len(rounds[0].logs))
        attempted += sample
        failed += closed_loop.check_against_generate(self.model, rounds[0],
                                                     sample)
        return attempted, failed

    def end_to_end(self, rounds: list[Round]) -> dict:
        metrics = closed_loop.latency_metrics(rounds)
        metrics["kv_bytes_per_token"] = kv_bytes_per_token(
            [r.stats for r in rounds])
        metrics["ppl_ratio_w"] = exact(1.0)
        metrics["ppl_ratio_kv"] = exact(kv_perplexity_ratio(
            self.model, self.kv_cache,
            workloads.KV_PPL_WINDOWS[self.quick]))
        metrics["bits_per_weight"] = exact(weight_bits(self.model))
        metrics["accel_energy_eff_x"] = exact(energy_efficiency(
            self.model.config, self.energy_seq_len))
        return metrics

    def layers(self, rounds: list[Round], traced: list[Round],
               tracer: Tracer, end_to_end: dict) -> dict:
        out = engine_layers(traced, tracer,
                            draft_config=(self.draft.config
                                          if self.draft else None),
                            config=self.model.config)
        out["serve.engine.ttft_ms_p95"] = end_to_end["ttft_ms_p95"]["value"]
        return out


def engine_layers(traced: list[Round], tracer: Tracer, config,
                  draft_config=None) -> dict:
    """Per-layer numbers of the traced rounds, averaged per round.

    ``calls`` are work counts, ``busy_s`` span seconds, ``self_s`` span
    seconds minus child spans; counters come from ``EngineStats`` and
    the accelerator columns from replaying the round's ``StepTrace``\\ s.
    """
    n = max(1, len(traced))
    tables = [tracer.table(*r.span_range) for r in traced]
    out: dict[str, float] = {}

    def spans(name: str, *fields: str) -> None:
        out.update(per_round(tables, name, *fields))

    for name in _SPAN_TRIPLES:
        spans(name, "calls", "busy_s", "self_s")
    spans("serve.engine.submit", "busy_s")
    for name in ("serve.scheduler.select", "serve.prefix.lookup",
                 "serve.prefix.capture", "serve.spec.propose",
                 "autograd.tensor.matmul", "nn.paged_kv_cache.flush_quantize",
                 "core.packing.decode_payload", "nn.kv_cache.write"):
        spans(name, "calls", "busy_s")
    spans("serve.spec.commit", "busy_s")
    for name in ("nn.attention.forward", "nn.block_attention.decode",
                 "nn.block_attention.prefill"):
        spans(name, "calls", "self_s")
    spans("nn.paged_kv_cache.dequant", "busy_s")
    spans("nn.paged_kv_cache.truncate", "calls")

    def stat(key: str) -> float:
        return sum(r.stats[key] for r in traced) / n

    decode_rows = [step.rows for r in traced for step in r.step_trace
                   if step.prefill_tokens == 0]
    out["serve.engine.batch_rows_mean"] = (float(np.mean(decode_rows))
                                           if decode_rows else 0.0)
    out["serve.engine.decode_tokens"] = stat("decode_tokens")
    out["serve.engine.prefill_tokens"] = stat("prefill_tokens")
    out["serve.engine.prefill_chunks"] = stat("prefill_chunks")
    out["serve.engine.prefill_tok_s"] = stat("prefill_tokens_per_s")
    out["serve.engine.preemptions"] = stat("preemptions")
    out["serve.prefix.hit_token_ratio"] = stat("prefix_hit_tokens_ratio")
    out["serve.prefix.evicted_blocks"] = sum(
        r.evicted_blocks for r in traced) / n
    out["serve.spec.acceptance_rate"] = stat("acceptance_rate")
    out["serve.spec.proposed_tokens"] = stat("spec_proposed")
    out["serve.spec.accepted_tokens"] = stat("spec_accepted")
    out["nn.model.tokens_forwarded"] = tracer.tokens_forwarded / n
    out["autograd.tensor.allocs"] = tracer.tensor_allocs / n
    lookups = sum(r.stats["dequant_cache_hits"]
                  + r.stats["dequant_cache_misses"]
                  + r.stats["prefill_dequant_hits"]
                  + r.stats["prefill_dequant_misses"] for r in traced)
    hits = sum(r.stats["dequant_cache_hits"]
               + r.stats["prefill_dequant_hits"] for r in traced)
    out["nn.paged_kv_cache.dequant.lookups"] = lookups / n
    out["nn.paged_kv_cache.dequant.hit_rate"] = (hits / lookups
                                                 if lookups else 0.0)
    logical = streamed = 0
    for r in traced:
        for step in r.step_trace:
            logical += step.kv_bytes
            streamed += (step.kv_bytes_streamed
                         if step.kv_bytes_streamed >= 0 else step.kv_bytes)
    out["nn.paged_kv_cache.bytes_logical"] = logical / n
    out["nn.paged_kv_cache.bytes_streamed"] = streamed / n
    physical = stat("kv_peak_physical_bytes")
    out["nn.paged_kv_cache.reserved_over_used"] = (
        stat("kv_peak_allocated_bytes") / physical if physical else 0.0)

    # The simulated column: replay the last traced round's step trace
    # through the accelerator cycle model (spans land after the round).
    mark = len(tracer.spans)
    steps = traced[-1].step_trace if traced else []
    tracer.install()
    try:
        fineq = project_decode_trace(
            config, steps, design="fineq", draft_config=draft_config)
        baseline = project_decode_trace(
            config, steps, design="baseline", draft_config=draft_config)
    finally:
        tracer.restore()
    host = tracer.table(mark, len(tracer.spans))
    out["hw.workloads.project.busy_s"] = host.busy_s("hw.workloads.project")
    out["hw.cycle_model.simulate_gemm.calls"] = host.calls(
        "hw.cycle_model.simulate_gemm")
    out["hw.cycle_model.simulate_gemm.busy_s"] = host.busy_s(
        "hw.cycle_model.simulate_gemm")
    out["hw.workloads.accel_tok_s_fineq"] = fineq.tokens_per_s
    out["hw.workloads.accel_tok_s_baseline"] = baseline.tokens_per_s
    out["hw.workloads.accel_kv_dma_share"] = (
        fineq.kv_dma_cycles / fineq.total_cycles
        if fineq.total_cycles else 0.0)
    return out


# ---------------------------------------------------------------------- #
# the five engine workloads
# ---------------------------------------------------------------------- #
class ChatPaged(EngineWorkload):
    name = "chat_paged"
    why = ("short greedy chats on FP32 paged KV: nearly all time is the "
           "model forward, so a forward speedup shows here and a KV-write "
           "fix must not")
    generate_sample = GENERATE_SAMPLE


class ChatFineq(EngineWorkload):
    name = "chat_fineq"
    why = ("the same chats on 2.33-bit KV: the gap to chat_paged is write "
           "buffer, flush-quantize and short-context dequant lookups")
    kv_cache = "fineq"


class LongctxFineq(EngineWorkload):
    name = "longctx_fineq"
    why = ("384-token prompts on 2.33-bit KV: prefill is write-heavy, "
           "decode reads block-resident quantized context; model GEMMs are "
           "the minority")
    kv_cache = "fineq"
    energy_seq_len = 384

    def plan_for(self, model):
        return workloads.longctx_plan(self.seed, model.config.vocab_size,
                                      **self.sizes["longctx"])


class MixedPrefixFineq(EngineWorkload):
    name = "mixed_prefix_fineq"
    why = ("sampled chats sharing a system prompt beside chunk-prefilled "
           "documents: the only workload where prefix store, scheduler, "
           "chunking and sampling matter")
    kv_cache = "fineq"
    engine_kwargs = {"prefix_sharing": True, "scheduler": "prefix-affinity"}
    energy_seq_len = 72

    def plan_for(self, model):
        return workloads.mixed_plan(self.seed, model.config.vocab_size,
                                    **self.sizes["mixed"])


class Spec13b(EngineWorkload):
    name = "spec_13b"
    why = ("13b target with a 3b draft, k=4, on corpus text: exercises "
           "draft, verify and rollback, which plain decode never enters")
    model_name = "llama-sim-13b"
    draft_name = "llama-sim-3b"
    spec_k = 4
    generate_sample = 4
    energy_seq_len = 128

    def plan_for(self, model):
        return workloads.corpus_plan(self.seed, build_tokenizer(),
                                     **self.sizes["spec"])
