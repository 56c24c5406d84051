"""``offline_quant_eval``: the paper's own pipeline, then a deploy check.

No other workload touches this side of the repo: ``nn.model`` /
``Linear`` / ``autograd`` as a full-window scorer instead of a cached
decoder, and ``core.packing`` as an encoder instead of a LUT reader.  A
serving fast path that costs the training/eval path shows here.

Set-up clones the 13b stand-in and quantizes it with
``FineQQuantizer.quantize_model``.  One round then

1. runs every linear through ``quantize_with_artifacts`` +
   ``pack_matrix`` (timed: ``quantize_mweights_s``) and ``unpack_matrix``
   (codes and schemes must survive bit-exactly);
2. scores the next chunk of the 20k-token evaluation stream with
   ``perplexity`` on the FP and on the quantized model (timed:
   ``eval_tok_s``);
3. serves a short closed loop on the *quantized* model with 2.33-bit KV,
   the full FineQ configuration, which is where this workload's latency
   metrics come from.

Chunks the rounds did not reach are scored after the timed phase, so
``ppl_ratio_w`` always covers the same 20k tokens however many rounds
fitted.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass

import numpy as np
from repro.core import FineQQuantizer, pack_matrix, unpack_matrix
from repro.eval.perplexity import perplexity
from repro.hw.energy import energy_efficiency
from repro.models.zoo import build_tokenizer
from repro.serve import GenerationEngine

from perfbench import closed_loop, suite, workloads
from perfbench.closed_loop import Round
from perfbench.trace import Tracer, per_round


@dataclass
class OfflineRound:
    wall_s: float
    quantize_s: float
    weights: int
    packed_bytes: int
    roundtrip_failed: int
    eval_calls: list[tuple[int, float]]      # (tokens scored, seconds)
    served: Round
    span_range: tuple[int, int] | None = None
    speed: float = 1.0                       # machine slowness around it


class OfflineQuantEval(suite.Workload):
    name = "offline_quant_eval"
    why = ("quantize, pack, unpack and score the 13b stand-in, then serve "
           "it quantized: the training/eval side of the repo that a serving "
           "fast path must not slow")

    def setup(self) -> None:
        sizes = self.sizes["offline"]
        self.model = suite.load("llama-sim-13b", self.quick, seed=1)
        self.kv_model = suite.load("llama-sim-7b", self.quick, seed=3)
        self.quantizer = FineQQuantizer()
        self.quantized = copy.deepcopy(self.model)
        self.quantizer.quantize_model(self.quantized)
        self.seq_len = sizes["seq_len"]
        windows = (sizes["eval_tokens"] - 1) // self.seq_len
        stream = suite.eval_tokens(windows * self.seq_len + 1)
        step = sizes["chunk_windows"] * self.seq_len
        self.chunks = [stream[lo:lo + step + 1]
                       for lo in range(0, windows * self.seq_len, step)]
        # log-perplexity and token count per (chunk, model)
        self.scored: dict[tuple[int, str], tuple[float, int]] = {}
        self.next_chunk = 0
        self.plan = workloads.corpus_plan(
            self.seed, build_tokenizer(), sizes["tail_clients"],
            sizes["tail_per_client"], sizes["tail_prompt_len"],
            sizes["tail_new"])
        closed_loop.serve_plan(self._engine(),
                               workloads.warmup_plan(self.plan))

    def _engine(self, record_trace: bool = False):
        return GenerationEngine(self.quantized,
                                max_batch_size=len(self.plan),
                                kv_cache="fineq", record_trace=record_trace)

    def _score(self, chunk: int, which: str) -> tuple[int, float]:
        tokens = self.chunks[chunk]
        model = self.model if which == "fp" else self.quantized
        start = time.perf_counter()
        value = perplexity(model, tokens, self.seq_len, max_tokens=None)
        elapsed = time.perf_counter() - start
        targets = (len(tokens) - 1) // self.seq_len * self.seq_len
        self.scored[(chunk, which)] = (float(np.log(value)), targets)
        return targets, elapsed

    def round(self, tracer: Tracer | None = None) -> OfflineRound:
        lo = len(tracer.spans) if tracer is not None else 0
        begin = time.perf_counter()
        packed = []
        weights = 0
        for _, layer in self.model.quantizable_linears():
            weight = layer.weight.data
            _, artifacts = self.quantizer.quantize_with_artifacts(weight)
            # Channels are rows of the artifacts whichever axis they
            # came from, so the packed shape follows the codes.
            shape = (weight.T.shape if artifacts["channel_axis"] == "input"
                     else weight.shape)
            packed.append((artifacts, pack_matrix(
                artifacts["codes"], artifacts["schemes"],
                artifacts["scales"], shape)))
            weights += weight.size
        quantize_s = time.perf_counter() - begin
        failed = 0
        for artifacts, matrix in packed:
            codes, schemes, _ = unpack_matrix(matrix)
            failed += not (np.array_equal(codes, artifacts["codes"])
                           and np.array_equal(schemes, artifacts["schemes"]))
        chunk = self.next_chunk % len(self.chunks)
        self.next_chunk += 1
        eval_calls = [self._score(chunk, "fp"), self._score(chunk, "q")]
        served = closed_loop.serve_plan(
            self._engine(record_trace=tracer is not None), self.plan, tracer)
        wall = time.perf_counter() - begin
        hi = len(tracer.spans) if tracer is not None else 0
        return OfflineRound(
            wall_s=wall, quantize_s=quantize_s, weights=weights,
            packed_bytes=sum(m.total_bytes for _, m in packed),
            roundtrip_failed=failed, eval_calls=eval_calls, served=served,
            span_range=(lo, hi) if tracer is not None else None)

    # ------------------------------------------------------------------ #
    def check(self, rounds: list[OfflineRound]) -> tuple[int, int]:
        linears = len(self.model.quantizable_linears())
        attempted = len(rounds) * linears
        failed = sum(r.roundtrip_failed for r in rounds)
        served = [r.served for r in rounds]
        attempted += sum(len(s.logs) for s in served)
        reference = served[0].digest()
        failed += sum(len(s.logs) if s.digest() != reference
                      else closed_loop.check_lengths(s) for s in served)
        return attempted, failed

    def _ppl_ratio_w(self) -> float:
        """Quantized over FP perplexity on the whole evaluation stream,
        scoring now whatever the timed rounds did not reach."""
        logs = {"fp": 0.0, "q": 0.0}
        total = 0
        for chunk in range(len(self.chunks)):
            for which in logs:
                if (chunk, which) not in self.scored:
                    self._score(chunk, which)
                log_ppl, targets = self.scored[(chunk, which)]
                logs[which] += log_ppl * targets
            total += self.scored[(chunk, "fp")][1]
        return float(np.exp((logs["q"] - logs["fp"]) / total))

    def end_to_end(self, rounds: list[OfflineRound]) -> dict:
        for r in rounds:
            r.served.speed = r.speed
        speeds = [r.speed for r in rounds]
        out = closed_loop.latency_metrics([r.served for r in rounds])
        out["quantize_mweights_s"] = closed_loop.rate_over_rounds(
            [r.weights / 1e6 for r in rounds],
            [r.quantize_s for r in rounds], speeds)
        out["quantize_mweights_s"]["samples"] = len(rounds)
        out["eval_tok_s"] = closed_loop.rate_over_rounds(
            [sum(tokens for tokens, _ in r.eval_calls) for r in rounds],
            [sum(seconds for _, seconds in r.eval_calls) for r in rounds],
            speeds)
        out["kv_bytes_per_token"] = suite.kv_bytes_per_token(
            [r.served.stats for r in rounds])
        out["ppl_ratio_w"] = suite.exact(self._ppl_ratio_w(),
                                         samples=2 * len(self.chunks))
        out["ppl_ratio_kv"] = suite.exact(suite.kv_perplexity_ratio(
            self.kv_model, "fineq", workloads.KV_PPL_WINDOWS[self.quick]))
        out["bits_per_weight"] = suite.exact(
            8.0 * rounds[0].packed_bytes / rounds[0].weights)
        out["accel_energy_eff_x"] = suite.exact(
            energy_efficiency(self.model.config, self.seq_len))
        return out

    def layers(self, rounds: list[OfflineRound], traced: list[OfflineRound],
               tracer: Tracer, end_to_end: dict) -> dict:
        for served, outer in ((r.served, r) for r in traced):
            served.span_range = outer.span_range
        out = suite.engine_layers([r.served for r in traced], tracer,
                                  config=self.quantized.config)
        n = max(1, len(traced))
        tables = [tracer.table(*r.span_range) for r in traced]
        for name in ("core.quantizer.quantize",
                     "core.encoding.encode_channels",
                     "core.packing.pack_matrix"):
            out.update(per_round(tables, name, "calls", "busy_s"))
        out.update(per_round(tables, "eval.perplexity.perplexity", "busy_s"))
        out["eval.perplexity.tokens_scored"] = sum(
            tokens for r in traced for tokens, _ in r.eval_calls) / n
        # The KV ratio runs after the rounds, untraced; its host time is
        # measured here on one traced window pair.
        mark = len(tracer.spans)
        tracer.install()
        try:
            suite.kv_perplexity_ratio(self.kv_model, "fineq", 1)
        finally:
            tracer.restore()
        out["eval.perplexity.cached_perplexity.busy_s"] = tracer.table(
            mark, len(tracer.spans)).busy_s(
                "eval.perplexity.cached_perplexity")
        out["serve.engine.ttft_ms_p95"] = end_to_end["ttft_ms_p95"]["value"]
        out["core.quantizer.quantize_mweights_s"] = \
            end_to_end["quantize_mweights_s"]["value"]
        out["eval.perplexity.eval_tok_s"] = end_to_end["eval_tok_s"]["value"]
        return out
