"""Throughput, cache-memory, and streaming-latency measurement.

All engine measurements drive the request-centric session API (``submit``
+ ``stream``), the same surface a serving client uses.
``throughput_sweep`` compares the sequential one-sequence-at-a-time
decode loop (the seed baseline) against the batched engine at several
batch sizes, reporting prefill and decode tokens/sec.  ``memory_sweep``
serves longer generations through the paged FP32 and FineQ-quantized
cache backends and reports bytes per cached token (at the live-token
high-water mark) next to decode tokens/sec — the numbers behind the
quantized-KV memory claim.  ``latency_sweep`` times the gaps between a
request's streamed :class:`~repro.serve.engine.TokenEvent`s and reports
mean/p95 inter-token seconds — the number a streaming consumer actually
experiences.  ``prefix_sweep`` serves a shared-prefix workload (system
prompt + per-request suffix) with prefix sharing off vs on and reports
prefill tokens avoided, resident bytes per cached token, decode tok/s,
and the decode trace projected onto the paper's accelerator.
``mixed_latency_sweep`` serves short decoders with long prompts landing
mid-stream, one-shot vs chunked prefill, and reports the p95
inter-token latency both ways — the chunked tail improvement (with
token-identical output) is the asserted chunked-prefill number.
``spec_sweep`` pairs a draft model with the served target and measures
speculative decode tokens/sec against target-only decode over a
``k`` x batch grid — the small-batch latency lever the draft/verify
pipeline buys.  ``gateway_sweep`` (in :mod:`repro.serve.gateway.bench`)
measures the durable serving gateway against the raw engine: saturated
goodput overhead plus first-token p50/p99 under open-loop Poisson
arrivals.  Every ``--json`` export goes through :func:`export_report`,
which stamps the payload with the benched model, the cache backend(s),
and the repo's git commit; every report point serializes through
:func:`repro.serve.engine.dataclass_to_dict`, the same path
``GET /metrics`` uses, so gauges mean the same thing in CI artifacts
and scrapes.  Run directly for a smoke report on an untrained tiny
model (fast enough for CI):

    PYTHONPATH=src python -m repro.serve --smoke
    PYTHONPATH=src python -m repro.serve --mem --smoke --json BENCH_serve_mem.json
    PYTHONPATH=src python -m repro.serve --stream --smoke --json BENCH_serve_stream.json
    PYTHONPATH=src python -m repro.serve --prefix --smoke --json BENCH_serve_prefix.json
    PYTHONPATH=src python -m repro.serve --latency --smoke --json BENCH_serve_latency.json
    PYTHONPATH=src python -m repro.serve --spec --smoke --json BENCH_serve_spec.json
    PYTHONPATH=src python -m repro.serve --gateway --smoke --json BENCH_serve_gateway.json
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.autograd import no_grad
from repro.nn.kv_cache import KVCache
from repro.nn.model import TransformerLM
from repro.serve.engine import GenerationEngine, dataclass_to_dict
from repro.serve.spec import SpeculativeConfig


def _git_sha() -> str:
    """Commit the benchmark ran at (``"unknown"`` outside a checkout)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             cwd=Path(__file__).resolve().parent)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def export_report(report, path: str, model: str, kv_cache: str) -> None:
    """Write a sweep report as JSON, stamped with run provenance.

    The one JSON writer behind every ``--json`` mode: each exported
    ``BENCH_*.json`` payload carries the benched ``model`` name, the
    cache backend(s) the sweep exercised, and the repo's git commit,
    so archived CI artifacts stay attributable across runs.
    """
    payload = report.to_dict()
    payload["model"] = model
    payload["kv_cache"] = kv_cache
    payload["git_sha"] = _git_sha()
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {path}")


@dataclass(frozen=True)
class ThroughputPoint:
    """One measured serving configuration."""

    label: str
    batch_size: int
    num_sequences: int
    prefill_tokens: int
    prefill_seconds: float
    decode_tokens: int
    decode_seconds: float

    @property
    def prefill_tokens_per_s(self) -> float:
        return self.prefill_tokens / self.prefill_seconds if self.prefill_seconds else 0.0

    @property
    def decode_tokens_per_s(self) -> float:
        return self.decode_tokens / self.decode_seconds if self.decode_seconds else 0.0


@dataclass(frozen=True)
class ThroughputReport:
    """A sequential baseline plus engine measurements per batch size."""

    baseline: ThroughputPoint
    points: tuple[ThroughputPoint, ...]

    def speedup(self, point: ThroughputPoint) -> float:
        base = self.baseline.decode_tokens_per_s
        return point.decode_tokens_per_s / base if base else 0.0

    def rows(self) -> list[list[str]]:
        """Table rows: config, prefill tok/s, decode tok/s, speedup."""
        out = []
        for point in (self.baseline,) + self.points:
            out.append([point.label, str(point.batch_size),
                        f"{point.prefill_tokens_per_s:,.0f}",
                        f"{point.decode_tokens_per_s:,.0f}",
                        f"{self.speedup(point):.1f}x"])
        return out


def bench_prompts(vocab_size: int, num: int, max_prompt_len: int = 12,
                  min_prompt_len: int = 4, seed: int = 0) -> list[np.ndarray]:
    """Random token prompts of cycling lengths (exercises ragged batching)."""
    rng = np.random.default_rng(seed)
    lengths = [min_prompt_len + i % (max_prompt_len - min_prompt_len + 1)
               for i in range(num)]
    return [rng.integers(0, vocab_size, size=length) for length in lengths]


def corpus_prompts(tokenizer, num: int, prompt_len: int,
                   seed: int = 0) -> list[np.ndarray]:
    """In-distribution prompts: token windows of a held-out corpus slice.

    Speculative decoding's speedup rides on draft/target agreement, and
    zoo models only agree on text like the corpus they were trained on —
    random-token prompts would understate acceptance.  Uses a seed offset
    the training stream never saw so the windows are held out.
    """
    from repro.data.corpus import generate_corpus

    rng = np.random.default_rng(seed)
    sentences = generate_corpus("wikitext-sim", max(64, num * 8),
                                seed=100_000 + seed)
    stream = np.asarray(tokenizer.encode(sentences), dtype=np.int64)
    if stream.size < prompt_len + num:
        raise ValueError(f"corpus slice too short for {num} windows of "
                         f"{prompt_len} tokens")
    starts = rng.integers(0, stream.size - prompt_len, size=num)
    return [stream[s:s + prompt_len].copy() for s in starts]


def sequential_throughput(model: TransformerLM, prompts: list[np.ndarray],
                          max_new_tokens: int) -> ThroughputPoint:
    """Time the seed decode discipline: one sequence at a time, greedily.

    Mirrors :meth:`TransformerLM.generate` phase by phase so prefill and
    decode are timed separately; like the engine, the token sampled from
    the prefill logits is attributed to prefill, and each decode forward
    produces one decode token.
    """
    prefill_seconds = decode_seconds = 0.0
    prefill_tokens = decode_tokens = 0
    with no_grad():
        for prompt in prompts:
            prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
            cache = KVCache(model.config.num_layers)
            start = time.perf_counter()
            logits = model(prompt[None, :], cache=cache)
            token = int(logits.data[0, -1].argmax())
            prefill_seconds += time.perf_counter() - start
            prefill_tokens += prompt.size
            start = time.perf_counter()
            for _ in range(max_new_tokens - 1):
                logits = model(np.array([[token]]), cache=cache)
                token = int(logits.data[0, -1].argmax())
                decode_tokens += 1
            decode_seconds += time.perf_counter() - start
    return ThroughputPoint(label="sequential", batch_size=1,
                           num_sequences=len(prompts),
                           prefill_tokens=prefill_tokens,
                           prefill_seconds=prefill_seconds,
                           decode_tokens=decode_tokens,
                           decode_seconds=decode_seconds)


def serve_session(model: TransformerLM, prompts: list[np.ndarray],
                  max_new_tokens: int, batch_size: int,
                  kv_cache: str = "paged", block_size: int = 16,
                  **engine_kwargs) -> tuple[GenerationEngine,
                                            "StreamLatencyPoint"]:
    """Drive one full wave through a fresh session, timing the stream.

    The single drain loop behind every engine measurement: returns the
    drained engine (its ``stats`` carry throughput and memory numbers)
    plus the :class:`StreamLatencyPoint` observed on the event stream,
    so one serve yields every metric.

    Every event of a decode step shares that step's wall-clock arrival,
    so a request's inter-token gap is the engine step time it actually
    waited — the streaming analogue of decode tokens/sec, but measured
    per request instead of aggregated.
    """
    engine = GenerationEngine(model, max_batch_size=batch_size,
                              kv_cache=kv_cache, block_size=block_size,
                              **engine_kwargs)
    for prompt in prompts:
        engine.submit(prompt, max_new_tokens)
    last_seen: dict[int, float] = {}
    gaps: list[float] = []
    firsts: list[float] = []
    count = 0
    start = time.perf_counter()
    for event in engine.stream():
        now = time.perf_counter()
        count += 1
        previous = last_seen.get(event.request_id)
        if previous is None:
            firsts.append(now - start)
        else:
            gaps.append(now - previous)
        last_seen[event.request_id] = now
    engine.take_completions()
    latency = StreamLatencyPoint(
        batch_size=batch_size, num_sequences=len(prompts),
        max_new_tokens=max_new_tokens, num_events=count,
        mean_first_token_s=float(np.mean(firsts)) if firsts else 0.0,
        mean_inter_token_s=float(np.mean(gaps)) if gaps else 0.0,
        p95_inter_token_s=float(np.percentile(gaps, 95)) if gaps else 0.0)
    return engine, latency


def engine_throughput(model: TransformerLM, prompts: list[np.ndarray],
                      max_new_tokens: int, batch_size: int) -> ThroughputPoint:
    """Serve ``prompts`` through a fresh engine session and report stats."""
    engine, _latency = serve_session(model, prompts, max_new_tokens,
                                     batch_size)
    stats = engine.stats
    return ThroughputPoint(label=f"engine b={batch_size}",
                           batch_size=batch_size,
                           num_sequences=len(prompts),
                           prefill_tokens=stats.prefill_tokens,
                           prefill_seconds=stats.prefill_seconds,
                           decode_tokens=stats.decode_tokens,
                           decode_seconds=stats.decode_seconds)


def throughput_sweep(model: TransformerLM, prompts: list[np.ndarray],
                     max_new_tokens: int = 32,
                     batch_sizes: tuple[int, ...] = (1, 4, 16)
                     ) -> ThroughputReport:
    """Sequential baseline + engine throughput at each batch size."""
    baseline = sequential_throughput(model, prompts, max_new_tokens)
    points = tuple(engine_throughput(model, prompts, max_new_tokens, size)
                   for size in batch_sizes)
    return ThroughputReport(baseline=baseline, points=points)


@dataclass(frozen=True)
class MemoryPoint:
    """One engine run: cache backend x batch size, memory + throughput."""

    mode: str                    # "paged" | "fineq"
    batch_size: int
    num_sequences: int
    max_new_tokens: int
    decode_tokens: int
    decode_seconds: float
    peak_cached_tokens: int      # live context tokens at the high-water mark
    peak_used_bytes: int         # cache bytes for those tokens
    peak_allocated_bytes: int    # physical pool footprint at the mark
    dense_fp32_bytes: int        # rectangular batch x max_len equivalent

    @property
    def decode_tokens_per_s(self) -> float:
        return self.decode_tokens / self.decode_seconds if self.decode_seconds else 0.0

    @property
    def bytes_per_cached_token(self) -> float:
        return self.peak_used_bytes / self.peak_cached_tokens if self.peak_cached_tokens else 0.0


@dataclass(frozen=True)
class MemoryReport:
    """Memory/throughput points for every measured (mode, batch) pair."""

    model: str
    block_size: int
    points: tuple[MemoryPoint, ...]

    def point(self, mode: str, batch_size: int) -> MemoryPoint:
        for candidate in self.points:
            if candidate.mode == mode and candidate.batch_size == batch_size:
                return candidate
        raise KeyError(f"no point for mode={mode!r} batch={batch_size}")

    def rows(self) -> list[list[str]]:
        out = []
        for p in self.points:
            out.append([p.mode, str(p.batch_size),
                        f"{p.decode_tokens_per_s:,.0f}",
                        f"{p.bytes_per_cached_token:,.1f}",
                        f"{p.peak_allocated_bytes:,}",
                        f"{p.dense_fp32_bytes:,}"])
        return out

    def to_dict(self) -> dict:
        return {"model": self.model, "block_size": self.block_size,
                "points": [dataclass_to_dict(p) for p in self.points]}


def memory_point(model: TransformerLM, prompts: list[np.ndarray],
                 max_new_tokens: int, batch_size: int, mode: str,
                 block_size: int = 16) -> MemoryPoint:
    """Serve ``prompts`` through one cache backend and record memory stats."""
    engine, _latency = serve_session(model, prompts, max_new_tokens,
                                     batch_size, kv_cache=mode,
                                     block_size=block_size)
    stats = engine.stats
    config = model.config
    max_len = min(max(len(p) for p in prompts) + max_new_tokens,
                  config.max_seq_len)
    dense = KVCache.projected_bytes(
        config.num_layers, config.num_heads,
        config.d_model // config.num_heads, seq_len=max_len,
        batch=batch_size, bytes_per_element=4)
    return MemoryPoint(mode=mode, batch_size=batch_size,
                       num_sequences=len(prompts),
                       max_new_tokens=max_new_tokens,
                       decode_tokens=stats.decode_tokens,
                       decode_seconds=stats.decode_seconds,
                       peak_cached_tokens=stats.kv_peak_tokens,
                       peak_used_bytes=stats.kv_peak_used_bytes,
                       peak_allocated_bytes=stats.kv_peak_allocated_bytes,
                       dense_fp32_bytes=dense)


def memory_sweep(model: TransformerLM, max_new_tokens: int = 112,
                 batch_sizes: tuple[int, ...] = (16, 32, 64),
                 modes: tuple[str, ...] = ("paged", "fineq"),
                 block_size: int = 16, seed: int = 0) -> MemoryReport:
    """Bytes/cached-token + decode tokens/sec per cache mode and batch.

    Each batch size serves exactly ``batch_size`` prompts (one full wave)
    long enough that most tokens live in completed, quantizable blocks —
    the regime the paper's 2.33-bit memory story targets.
    """
    points = []
    for mode in modes:
        for batch_size in batch_sizes:
            prompts = bench_prompts(model.config.vocab_size, num=batch_size,
                                    max_prompt_len=16, min_prompt_len=8,
                                    seed=seed)
            points.append(memory_point(model, prompts, max_new_tokens,
                                       batch_size, mode,
                                       block_size=block_size))
    return MemoryReport(model=model.config.name, block_size=block_size,
                        points=tuple(points))


def prefix_prompts(vocab_size: int, num: int, prefix_len: int,
                   share_ratio: float = 1.0, suffix_len: int = 8,
                   seed: int = 0) -> list[np.ndarray]:
    """A shared-prefix workload: system prompt + per-request suffix.

    ``share_ratio`` of the ``num`` prompts start with one common
    ``prefix_len``-token prefix (a system prompt / few-shot template)
    followed by a unique ``suffix_len``-token user suffix; the rest are
    fully random prompts of the same total length.  Shared and unshared
    prompts interleave, mimicking mixed traffic.
    """
    if not 0.0 <= share_ratio <= 1.0:
        raise ValueError("share_ratio must be in [0, 1]")
    rng = np.random.default_rng(seed)
    prefix = rng.integers(0, vocab_size, size=prefix_len)
    num_shared = round(num * share_ratio)
    # Even spread of shared prompts through the arrival order.
    shared_flags = [(i * num_shared) // num < ((i + 1) * num_shared) // num
                    for i in range(num)]
    prompts = []
    for i in range(num):
        suffix = rng.integers(0, vocab_size, size=suffix_len)
        if shared_flags[i]:
            prompts.append(np.concatenate([prefix, suffix]))
        else:
            prompts.append(rng.integers(0, vocab_size,
                                        size=prefix_len + suffix_len))
    return prompts


@dataclass(frozen=True)
class PrefixPoint:
    """One engine run of the shared-prefix workload."""

    mode: str                    # "paged" | "fineq"
    batch_size: int
    sharing: bool                # prefix store enabled?
    share_ratio: float
    prefix_len: int
    num_sequences: int
    max_new_tokens: int
    prompt_tokens: int           # submitted prompt tokens
    prefill_tokens: int          # tokens actually forwarded by prefill
    shared_prompt_tokens: int    # prompt tokens adopted from cache
    prefill_seconds: float
    decode_tokens: int
    decode_seconds: float
    peak_cached_tokens: int
    peak_physical_bytes: int     # resident cache bytes (shared blocks once)
    preemptions: int
    dequant_cache_hit_rate: float = 0.0  # fineq dequant-memo hit rate
    projected: dict | None = None  # accelerator projection (hw cycle model)

    @property
    def decode_tokens_per_s(self) -> float:
        return self.decode_tokens / self.decode_seconds if self.decode_seconds else 0.0

    @property
    def physical_bytes_per_cached_token(self) -> float:
        return self.peak_physical_bytes / self.peak_cached_tokens if self.peak_cached_tokens else 0.0

    @property
    def prefill_tokens_avoided(self) -> int:
        return self.prompt_tokens - self.prefill_tokens


@dataclass(frozen=True)
class PrefixReport:
    """Sharing-off vs sharing-on points per cache mode."""

    model: str
    block_size: int
    prefix_len: int
    share_ratio: float
    points: tuple[PrefixPoint, ...]

    def point(self, mode: str, sharing: bool) -> PrefixPoint:
        for candidate in self.points:
            if candidate.mode == mode and candidate.sharing == sharing:
                return candidate
        raise KeyError(f"no point for mode={mode!r} sharing={sharing}")

    def rows(self) -> list[list[str]]:
        out = []
        for p in self.points:
            projected = (f"{p.projected['fineq']['tokens_per_s']:,.0f}"
                         if p.projected else "-")
            out.append([p.mode, "on" if p.sharing else "off",
                        f"{p.prefill_tokens:,}",
                        f"{p.prefill_tokens_avoided:,}",
                        f"{p.physical_bytes_per_cached_token:,.1f}",
                        f"{p.decode_tokens_per_s:,.0f}", projected])
        return out

    def to_dict(self) -> dict:
        return {"model": self.model, "block_size": self.block_size,
                "prefix_len": self.prefix_len,
                "share_ratio": self.share_ratio,
                "points": [dataclass_to_dict(p) for p in self.points]}


def prefix_point(model: TransformerLM, prompts: list[np.ndarray],
                 max_new_tokens: int, batch_size: int, mode: str,
                 sharing: bool, share_ratio: float, prefix_len: int,
                 block_size: int = 16, project: bool = True) -> PrefixPoint:
    """Serve the shared-prefix workload once and record every axis."""
    engine, _latency = serve_session(
        model, prompts, max_new_tokens, batch_size, kv_cache=mode,
        block_size=block_size, prefix_sharing=sharing,
        scheduler="prefix-affinity" if sharing else "fifo",
        record_trace=project)
    stats = engine.stats
    projected = None
    if project and engine.trace:
        from repro.hw.workloads import project_decode_trace
        projected = {
            design: project_decode_trace(model.config, engine.trace,
                                         design=design).to_dict()
            for design in ("baseline", "fineq")}
    return PrefixPoint(mode=mode, batch_size=batch_size, sharing=sharing,
                       share_ratio=share_ratio, prefix_len=prefix_len,
                       num_sequences=len(prompts),
                       max_new_tokens=max_new_tokens,
                       prompt_tokens=stats.prompt_tokens,
                       prefill_tokens=stats.prefill_tokens,
                       shared_prompt_tokens=stats.shared_prompt_tokens,
                       prefill_seconds=stats.prefill_seconds,
                       decode_tokens=stats.decode_tokens,
                       decode_seconds=stats.decode_seconds,
                       peak_cached_tokens=stats.kv_peak_tokens,
                       peak_physical_bytes=stats.kv_peak_physical_bytes,
                       preemptions=stats.preemptions,
                       dequant_cache_hit_rate=stats.dequant_cache_hit_rate,
                       projected=projected)


def prefix_sweep(model: TransformerLM, prefix_len: int = 64,
                 suffix_len: int = 8, batch_size: int = 16,
                 share_ratio: float = 1.0, max_new_tokens: int = 16,
                 modes: tuple[str, ...] = ("paged", "fineq"),
                 block_size: int = 16, seed: int = 0,
                 project: bool = True) -> PrefixReport:
    """Prefix sharing off vs on, per cache mode.

    Reports prefill tokens avoided, resident bytes per cached token, and
    decode tok/s, plus (``project=True``) decode throughput projected
    onto the paper's accelerator from the engine's step trace — the
    numbers behind the prefix-sharing serving claim.
    """
    points = []
    for mode in modes:
        prompts = prefix_prompts(model.config.vocab_size, num=batch_size,
                                 prefix_len=prefix_len,
                                 share_ratio=share_ratio,
                                 suffix_len=suffix_len, seed=seed)
        for sharing in (False, True):
            points.append(prefix_point(model, prompts, max_new_tokens,
                                       batch_size, mode, sharing,
                                       share_ratio, prefix_len,
                                       block_size=block_size,
                                       project=project))
    return PrefixReport(model=model.config.name, block_size=block_size,
                        prefix_len=prefix_len, share_ratio=share_ratio,
                        points=tuple(points))


@dataclass(frozen=True)
class SpecPoint:
    """One speculative (or target-only baseline) serving measurement."""

    draft: str                   # draft model name; "-" = target-only
    k: int                       # tokens drafted per step; 0 = baseline
    batch_size: int
    max_new_tokens: int
    decode_tokens: int
    decode_seconds: float
    spec_proposed: int
    spec_accepted: int

    @property
    def decode_tokens_per_s(self) -> float:
        return self.decode_tokens / self.decode_seconds \
            if self.decode_seconds else 0.0

    @property
    def acceptance_rate(self) -> float:
        return self.spec_accepted / self.spec_proposed \
            if self.spec_proposed else 0.0


@dataclass(frozen=True)
class SpecReport:
    """Speculative vs target-only decode over a k x batch x pair grid."""

    target: str
    kv_cache: str
    policy: str
    points: tuple[SpecPoint, ...]

    def point(self, draft: str, k: int, batch_size: int) -> SpecPoint:
        for candidate in self.points:
            if (candidate.draft == draft and candidate.k == k
                    and candidate.batch_size == batch_size):
                return candidate
        raise KeyError(f"no point for draft={draft!r} k={k} "
                       f"batch={batch_size}")

    def speedup(self, draft: str, k: int, batch_size: int) -> float:
        """Speculative decode tok/s over the same-batch target-only run."""
        base = self.point("-", 0, batch_size).decode_tokens_per_s
        spec = self.point(draft, k, batch_size).decode_tokens_per_s
        return spec / base if base else 0.0

    def rows(self) -> list[list[str]]:
        out = []
        for p in self.points:
            spec = p.k > 0
            out.append([p.draft, str(p.k) if spec else "-",
                        str(p.batch_size),
                        f"{p.decode_tokens_per_s:,.0f}",
                        f"{p.acceptance_rate:.2f}" if spec else "-",
                        (f"{self.speedup(p.draft, p.k, p.batch_size):.1f}x"
                         if spec else "-")])
        return out

    def to_dict(self) -> dict:
        points = []
        for p in self.points:
            entry = dataclass_to_dict(p)
            if p.k > 0:
                entry["speedup_vs_target_only"] = self.speedup(
                    p.draft, p.k, p.batch_size)
            points.append(entry)
        return {"target": self.target, "kv_cache": self.kv_cache,
                "policy": self.policy, "points": points}


def spec_point(target: TransformerLM, draft: TransformerLM | None,
               prompts: list[np.ndarray], k: int, batch_size: int,
               max_new_tokens: int, kv_cache: str = "paged",
               policy: str = "exact", block_size: int = 16,
               draft_name: str = "-") -> SpecPoint:
    """Serve one wave speculatively (or target-only when ``k == 0``)."""
    speculative = None
    if k > 0:
        if draft is None:
            raise ValueError("k > 0 needs a draft model")
        speculative = SpeculativeConfig(draft_model=draft, k=k,
                                        policy=policy)
    engine, _latency = serve_session(target, prompts[:batch_size],
                                     max_new_tokens, batch_size,
                                     kv_cache=kv_cache,
                                     block_size=block_size,
                                     speculative=speculative)
    stats = engine.stats
    return SpecPoint(draft=draft_name if k > 0 else "-", k=k,
                     batch_size=batch_size,
                     max_new_tokens=max_new_tokens,
                     decode_tokens=stats.decode_tokens,
                     decode_seconds=stats.decode_seconds,
                     spec_proposed=stats.spec_proposed,
                     spec_accepted=stats.spec_accepted)


def spec_sweep(target: TransformerLM,
               drafts: list[tuple[str, TransformerLM]],
               prompts: list[np.ndarray],
               ks: tuple[int, ...] = (2, 4, 8),
               batch_sizes: tuple[int, ...] = (1, 2, 4),
               max_new_tokens: int = 32, kv_cache: str = "paged",
               policy: str = "exact", block_size: int = 16) -> SpecReport:
    """Speculative vs target-only decode tok/s over a k x batch grid.

    Each batch size first serves a target-only baseline wave, then the
    same wave with every ``(draft, k)`` combination; the report's
    speedups divide matching waves, so the draft/verify pipeline is the
    only variable.  Prompts should be in-distribution for the model
    pair (see :func:`corpus_prompts`) — acceptance, and therefore the
    speedup, collapses on token sequences neither model has modelled.
    """
    limit = target.config.max_seq_len
    longest = max(len(p) for p in prompts)
    if longest + max_new_tokens > limit:
        raise ValueError(f"prompt length {longest} + {max_new_tokens} new "
                         f"tokens exceeds the target's "
                         f"max_seq_len={limit}")
    points = []
    for batch_size in batch_sizes:
        points.append(spec_point(target, None, prompts, 0, batch_size,
                                 max_new_tokens, kv_cache=kv_cache,
                                 block_size=block_size))
        for draft_name, draft in drafts:
            for k in ks:
                points.append(spec_point(
                    target, draft, prompts, k, batch_size,
                    max_new_tokens, kv_cache=kv_cache, policy=policy,
                    block_size=block_size, draft_name=draft_name))
    return SpecReport(target=target.config.name, kv_cache=kv_cache,
                      policy=policy, points=tuple(points))


@dataclass(frozen=True)
class StreamLatencyPoint:
    """Inter-token latency of one streamed engine configuration."""

    batch_size: int
    num_sequences: int
    max_new_tokens: int
    num_events: int
    mean_first_token_s: float   # stream start -> a request's first event
    mean_inter_token_s: float   # gap between a request's adjacent events
    p95_inter_token_s: float

    @property
    def streamed_tokens_per_s(self) -> float:
        return 1.0 / self.mean_inter_token_s if self.mean_inter_token_s else 0.0


@dataclass(frozen=True)
class StreamLatencyReport:
    """Streaming latency per measured batch size."""

    model: str
    points: tuple[StreamLatencyPoint, ...]

    def rows(self) -> list[list[str]]:
        out = []
        for p in self.points:
            out.append([str(p.batch_size), str(p.num_events),
                        f"{1e3 * p.mean_first_token_s:,.1f}",
                        f"{1e3 * p.mean_inter_token_s:,.2f}",
                        f"{1e3 * p.p95_inter_token_s:,.2f}",
                        f"{p.streamed_tokens_per_s:,.0f}"])
        return out

    def to_dict(self) -> dict:
        return {"model": self.model,
                "points": [dataclass_to_dict(p) for p in self.points]}


def stream_latency(model: TransformerLM, prompts: list[np.ndarray],
                   max_new_tokens: int, batch_size: int,
                   kv_cache: str = "paged") -> StreamLatencyPoint:
    """Time the token-event stream a serving client would consume."""
    _engine, latency = serve_session(model, prompts, max_new_tokens,
                                     batch_size, kv_cache=kv_cache)
    return latency


def latency_sweep(model: TransformerLM, max_new_tokens: int = 32,
                  batch_sizes: tuple[int, ...] = (4, 16),
                  num_prompts: int | None = None,
                  seed: int = 0) -> StreamLatencyReport:
    """Mean/p95 inter-token seconds at each batch size (one full wave)."""
    points = []
    for batch_size in batch_sizes:
        prompts = bench_prompts(model.config.vocab_size,
                                num=num_prompts or batch_size, seed=seed)
        points.append(stream_latency(model, prompts, max_new_tokens,
                                     batch_size))
    return StreamLatencyReport(model=model.config.name, points=tuple(points))


@dataclass(frozen=True)
class MixedLatencyPoint:
    """One mixed-traffic run: cache mode x prefill chunking setting."""

    mode: str                        # "paged" | "fineq"
    prefill_chunk_tokens: int | None  # None = one-shot prefill
    batch_size: int
    num_short: int
    num_long: int
    long_prompt_len: int
    num_events: int
    mean_inter_token_s: float
    p95_inter_token_s: float
    max_inter_token_s: float
    prefill_chunks: int
    prefill_tokens_deferred: int
    prefill_dequant_hit_rate: float

    @property
    def label(self) -> str:
        chunk = self.prefill_chunk_tokens
        return "one-shot" if chunk is None else f"chunk={chunk}"


@dataclass(frozen=True)
class MixedLatencyReport:
    """One-shot vs chunked prefill under mixed traffic, per cache mode.

    ``tokens_identical`` records whether every request's completed
    tokens matched between the chunked and one-shot runs of the same
    mode — chunking is a latency knob, not a numerics knob, and the
    sweep verifies that claim on every run.
    """

    model: str
    max_new_tokens: int
    prefill_chunk_tokens: int
    points: tuple[MixedLatencyPoint, ...]
    tokens_identical: bool

    def point(self, mode: str,
              chunk: int | None) -> MixedLatencyPoint:
        for candidate in self.points:
            if (candidate.mode == mode
                    and candidate.prefill_chunk_tokens == chunk):
                return candidate
        raise KeyError(f"no point for mode={mode!r} chunk={chunk}")

    def p95_ratio(self, mode: str) -> float:
        """One-shot p95 inter-token seconds over chunked p95 (>1 means
        chunking improved the tail)."""
        oneshot = self.point(mode, None)
        chunked = self.point(mode, self.prefill_chunk_tokens)
        base = chunked.p95_inter_token_s
        return oneshot.p95_inter_token_s / base if base else 0.0

    def rows(self) -> list[list[str]]:
        out = []
        for p in self.points:
            better = ("-" if p.prefill_chunk_tokens is None
                      else f"{self.p95_ratio(p.mode):.1f}x")
            out.append([p.mode, p.label,
                        f"{1e3 * p.mean_inter_token_s:,.2f}",
                        f"{1e3 * p.p95_inter_token_s:,.2f}",
                        f"{1e3 * p.max_inter_token_s:,.2f}", better,
                        str(p.prefill_chunks),
                        f"{p.prefill_dequant_hit_rate:.2f}"])
        return out

    def to_dict(self) -> dict:
        points = []
        for p in self.points:
            entry = dataclass_to_dict(p)
            if p.prefill_chunk_tokens is not None:
                entry["p95_improvement_vs_oneshot"] = self.p95_ratio(p.mode)
            points.append(entry)
        return {"model": self.model,
                "max_new_tokens": self.max_new_tokens,
                "prefill_chunk_tokens": self.prefill_chunk_tokens,
                "tokens_identical": self.tokens_identical,
                "points": points}


def mixed_traffic_session(model: TransformerLM, shorts: list[np.ndarray],
                          longs: list[np.ndarray], max_new_tokens: int,
                          batch_size: int,
                          prefill_chunk_tokens: int | None,
                          kv_cache: str = "paged", block_size: int = 16,
                          inject_every: int = 2,
                          **engine_kwargs) -> tuple[GenerationEngine,
                                                    MixedLatencyPoint,
                                                    list[tuple[int, ...]]]:
    """Serve short decoders with long prompts landing mid-stream.

    The short prompts submit up front and start decoding; each long
    prompt arrives ``inject_every`` steps after the previous one, while
    the shorts are still streaming — the workload whose tail latency
    one-shot prefill wrecks (every short waits out the full prompt
    forward) and chunked prefill bounds (at most a chunk's worth of
    extra work per step).  Returns the drained engine, the timing
    point, and every request's completed tokens in submission order
    (shorts first) so callers can verify chunked/one-shot parity.
    """
    engine = GenerationEngine(model, max_batch_size=batch_size,
                              kv_cache=kv_cache, block_size=block_size,
                              prefill_chunk_tokens=prefill_chunk_tokens,
                              **engine_kwargs)
    ids = [engine.submit(prompt, max_new_tokens) for prompt in shorts]
    pending = list(longs)
    last_seen: dict[int, float] = {}
    gaps: list[float] = []
    count = step = 0
    while engine.has_work() or pending:
        if pending and step >= inject_every * (len(longs)
                                               - len(pending) + 1):
            ids.append(engine.submit(pending.pop(0), max_new_tokens))
        events = engine.step()
        now = time.perf_counter()
        step += 1
        for event in events:
            count += 1
            previous = last_seen.get(event.request_id)
            if previous is not None:
                gaps.append(now - previous)
            last_seen[event.request_id] = now
    done = {c.request_id: tuple(int(t) for t in c.tokens)
            for c in engine.take_completions()}
    stats = engine.stats
    point = MixedLatencyPoint(
        mode=kv_cache, prefill_chunk_tokens=prefill_chunk_tokens,
        batch_size=batch_size, num_short=len(shorts), num_long=len(longs),
        long_prompt_len=max(len(p) for p in longs) if longs else 0,
        num_events=count,
        mean_inter_token_s=float(np.mean(gaps)) if gaps else 0.0,
        p95_inter_token_s=float(np.percentile(gaps, 95)) if gaps else 0.0,
        max_inter_token_s=float(np.max(gaps)) if gaps else 0.0,
        prefill_chunks=stats.prefill_chunks,
        prefill_tokens_deferred=stats.prefill_tokens_deferred,
        prefill_dequant_hit_rate=stats.prefill_dequant_hit_rate)
    return engine, point, [done[rid] for rid in ids]


def mixed_latency_sweep(model: TransformerLM, batch_size: int = 16,
                        num_long: int = 2, long_prompt_len: int = 384,
                        max_new_tokens: int = 24,
                        prefill_chunk_tokens: int = 128,
                        modes: tuple[str, ...] = ("paged", "fineq"),
                        block_size: int = 16,
                        seed: int = 0) -> MixedLatencyReport:
    """One-shot vs chunked prefill under mixed traffic, per cache mode.

    ``batch_size - num_long`` short prompts stream while ``num_long``
    ``long_prompt_len``-token prompts arrive mid-decode; the report
    carries p95 inter-token latency for both prefill disciplines (the
    chunked p95 improvement is the asserted serving number) and whether
    the two runs' completed tokens matched exactly.
    """
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_size
    shorts = bench_prompts(vocab, num=batch_size - num_long,
                           max_prompt_len=12, min_prompt_len=4, seed=seed)
    longs = [rng.integers(0, vocab, size=long_prompt_len)
             for _ in range(num_long)]
    points = []
    identical = True
    for mode in modes:
        outputs = {}
        for chunk in (None, prefill_chunk_tokens):
            _engine, point, tokens = mixed_traffic_session(
                model, shorts, longs, max_new_tokens, batch_size, chunk,
                kv_cache=mode, block_size=block_size)
            points.append(point)
            outputs[chunk] = tokens
        identical &= outputs[None] == outputs[prefill_chunk_tokens]
    return MixedLatencyReport(model=model.config.name,
                              max_new_tokens=max_new_tokens,
                              prefill_chunk_tokens=prefill_chunk_tokens,
                              points=tuple(points),
                              tokens_identical=identical)


def main(argv: list[str] | None = None) -> None:
    import argparse

    from repro.eval.tables import format_table

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default=None,
                        help="zoo model name (default: untrained tiny model)")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal settings for CI (implies tiny model)")
    parser.add_argument("--mem", action="store_true",
                        help="run the paged/quantized cache memory sweep "
                             "instead of the throughput sweep")
    parser.add_argument("--stream", action="store_true",
                        help="run the streaming inter-token latency sweep "
                             "instead of the throughput sweep")
    parser.add_argument("--prefix", action="store_true",
                        help="run the prefix-sharing sweep (sharing off vs "
                             "on per cache mode, with accelerator "
                             "projection) instead of the throughput sweep")
    parser.add_argument("--latency", action="store_true",
                        help="run the mixed-traffic latency sweep (one-shot "
                             "vs chunked prefill p95 inter-token latency "
                             "while long prompts land mid-decode) instead "
                             "of the throughput sweep")
    parser.add_argument("--spec", action="store_true",
                        help="run the speculative-decoding sweep (draft/"
                             "target pairs over a k x batch grid, vs "
                             "target-only decode) instead of the "
                             "throughput sweep")
    parser.add_argument("--gateway", action="store_true",
                        help="run the serving-gateway sweep (raw engine vs "
                             "durable gateway goodput, plus first-token "
                             "p50/p99 under Poisson arrivals) instead of "
                             "the throughput sweep")
    parser.add_argument("--load", type=float, default=0.7,
                        help="Poisson arrival rate as a fraction of the "
                             "saturated gateway service rate for "
                             "--gateway (default 0.7)")
    parser.add_argument("--drafts", default=None,
                        help="comma list of zoo draft model names for "
                             "--spec (default llama-sim-3b; ignored with "
                             "--smoke, which pairs two untrained tiny "
                             "models)")
    parser.add_argument("--ks", default=None,
                        help="comma list of draft lengths k for --spec "
                             "(default 2,4,8; 2 with --smoke)")
    parser.add_argument("--chunk-tokens", type=int, default=128,
                        help="prefill chunk budget for --latency "
                             "(default 128)")
    parser.add_argument("--long-prompt-len", type=int, default=384,
                        help="long prompt length for --latency "
                             "(default 384)")
    parser.add_argument("--prefix-len", type=int, default=64,
                        help="shared prefix length for --prefix "
                             "(default 64)")
    parser.add_argument("--share-ratio", type=float, default=1.0,
                        help="fraction of prompts sharing the prefix for "
                             "--prefix (default 1.0)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the report as JSON "
                             "(--mem, --stream, or --prefix only)")
    parser.add_argument("--num-prompts", type=int, default=None,
                        help="prompts to serve (default 16; fixed at one "
                             "full wave per batch size with --mem)")
    parser.add_argument("--max-new-tokens", type=int, default=None,
                        help="tokens per sequence (default 32; 112 with "
                             "--mem so most tokens sit in full blocks)")
    parser.add_argument("--batch-sizes", default=None,
                        help="comma list (default 1,4,16; 16,32,64 with "
                             "--mem; 4,16 with --stream)")
    args = parser.parse_args(argv)

    if args.model and not args.smoke:
        from repro.models import load_model
        model = load_model(args.model).model
        name = args.model
    else:
        from repro.models.configs import tiny_config
        model = TransformerLM(tiny_config(vocab_size=256, seed=0))
        name = "tiny (untrained)"

    if sum((args.mem, args.stream, args.prefix, args.latency, args.spec,
            args.gateway)) > 1:
        parser.error("--mem, --stream, --prefix, --latency, --spec, and "
                     "--gateway are separate sweeps; pick one")
    if (args.drafts or args.ks) and not args.spec:
        parser.error("--drafts/--ks only apply to --spec")
    if args.json and not (args.mem or args.stream or args.prefix
                          or args.latency or args.spec or args.gateway):
        parser.error("--json requires --mem, --stream, --prefix, "
                     "--latency, --spec, or --gateway (the throughput "
                     "sweep has no JSON report)")
    if args.gateway:
        from repro.serve.gateway.bench import gateway_sweep
        batches = (args.batch_sizes or ("4" if args.smoke else "16")) \
            .split(",")
        if len(batches) != 1:
            parser.error("--gateway sweeps a single batch size; pass one "
                         "value to --batch-sizes")
        batch = int(batches[0])
        max_new = (args.max_new_tokens if args.max_new_tokens is not None
                   else (8 if args.smoke else 16))
        num = (args.num_prompts if args.num_prompts is not None
               else (8 if args.smoke else 2 * batch))
        report = gateway_sweep(model, num_requests=num,
                               max_new_tokens=max_new, batch_size=batch,
                               load=args.load)
        print(f"serving gateway on {name} ({num} requests x {max_new} "
              f"new tokens, batch {batch}, Poisson load {args.load:.0%})")
        print(format_table(["path", "completed", "goodput tok/s",
                            "first-token p50 ms", "p99 ms"],
                           report.rows()))
        print(f"gateway overhead vs raw engine: "
              f"{report.overhead_ratio:.2f}x")
        if args.json:
            export_report(report, args.json, name, "paged")
        return
    if args.spec:
        if args.num_prompts is not None:
            parser.error("--num-prompts has no effect with --spec (each "
                         "point serves one full wave of batch-size "
                         "prompts); use --batch-sizes")
        batch_sizes = tuple(int(b) for b in
                            (args.batch_sizes
                             or ("1,2" if args.smoke else "1,2,4"))
                            .split(","))
        ks = tuple(int(k) for k in
                   (args.ks or ("2" if args.smoke else "2,4,8"))
                   .split(","))
        max_new = (args.max_new_tokens if args.max_new_tokens is not None
                   else (8 if args.smoke else 48))
        if args.smoke:
            # Mechanics-only pairing: two untrained tiny models sharing a
            # vocabulary.  Acceptance is near zero (their argmaxes are
            # unrelated), which exercises the rollback path hard — the
            # point of the smoke run is the machinery, not the speedup.
            from repro.models.configs import tiny_config
            target, target_name = model, name
            drafts = [("tiny-draft (untrained)", TransformerLM(
                tiny_config(vocab_size=256, seed=1)))]
            prompts = bench_prompts(target.config.vocab_size,
                                    num=max(batch_sizes))
        else:
            from repro.models import load_model
            target_name = args.model or "llama-sim-13b"
            zoo = load_model(target_name)
            target = zoo.model
            draft_names = (args.drafts or "llama-sim-3b").split(",")
            drafts = [(d, load_model(d).model) for d in draft_names]
            prompt_len = min(
                256, target.config.max_seq_len - max_new - max(ks) - 1)
            prompts = corpus_prompts(zoo.tokenizer, num=max(batch_sizes),
                                     prompt_len=prompt_len)
        report = spec_sweep(target, drafts, prompts, ks=ks,
                            batch_sizes=batch_sizes,
                            max_new_tokens=max_new)
        print(f"speculative decoding on {target_name} "
              f"({max_new} new tokens per sequence)")
        print(format_table(["draft", "k", "batch", "decode tok/s",
                            "accept", "speedup"], report.rows()))
        if args.json:
            export_report(report, args.json, target_name, "paged")
        return
    if args.latency:
        if args.num_prompts is not None:
            parser.error("--num-prompts has no effect with --latency (the "
                         "sweep serves batch-size short prompts plus the "
                         "injected long ones); use --batch-sizes")
        batches = (args.batch_sizes or ("8" if args.smoke else "16")) \
            .split(",")
        if len(batches) != 1:
            parser.error("--latency sweeps a single batch size; pass one "
                         "value to --batch-sizes")
        batch = int(batches[0])
        max_new = (args.max_new_tokens if args.max_new_tokens is not None
                   else (16 if args.smoke else 24))
        needed = args.long_prompt_len + max_new
        if model.config.max_seq_len < needed:
            if args.model:
                parser.error(f"model {name} caps max_seq_len at "
                             f"{model.config.max_seq_len}; the sweep needs "
                             f"{needed} (shrink --long-prompt-len)")
            # The default tiny model only reaches 128 positions; rebuild
            # it with a RoPE table long enough for the long prompts.
            from dataclasses import replace as config_replace

            from repro.models.configs import tiny_config
            model = TransformerLM(config_replace(
                tiny_config(vocab_size=256, seed=0,
                            max_seq_len=max(needed, 128)),
                name="tiny-long (untrained)"))
            name = model.config.name
        report = mixed_latency_sweep(model, batch_size=batch,
                                     long_prompt_len=args.long_prompt_len,
                                     max_new_tokens=max_new,
                                     prefill_chunk_tokens=args.chunk_tokens)
        print(f"mixed-traffic inter-token latency on {name} (batch {batch}, "
              f"{args.long_prompt_len}-token long prompts, chunk budget "
              f"{args.chunk_tokens})")
        print(format_table(["mode", "prefill", "inter-token ms", "p95 ms",
                            "max ms", "p95 better", "chunks",
                            "dequant hit"], report.rows()))
        print(f"chunked tokens identical to one-shot: "
              f"{report.tokens_identical}")
        if args.json:
            export_report(report, args.json, name, "paged,fineq")
        return
    if args.prefix:
        if args.num_prompts is not None:
            parser.error("--num-prompts has no effect with --prefix (each "
                         "point serves one full wave of batch-size "
                         "prompts); use --batch-sizes to scale the sweep")
        batches = (args.batch_sizes or "16").split(",")
        if len(batches) != 1:
            parser.error("--prefix sweeps a single batch size; pass one "
                         "value to --batch-sizes")
        batch = int(batches[0])
        max_new = (args.max_new_tokens if args.max_new_tokens is not None
                   else (8 if args.smoke else 16))
        report = prefix_sweep(model, prefix_len=args.prefix_len,
                              batch_size=batch,
                              share_ratio=args.share_ratio,
                              max_new_tokens=max_new)
        print(f"prefix sharing on {name} (prefix {args.prefix_len} tokens, "
              f"share ratio {args.share_ratio:.0%}, batch {batch})")
        print(format_table(["mode", "sharing", "prefill tok", "avoided",
                            "bytes/token", "decode tok/s", "accel tok/s"],
                           report.rows()))
        if args.json:
            export_report(report, args.json, name, "paged,fineq")
        return
    if args.stream:
        batches = tuple(int(b) for b in
                        (args.batch_sizes or "4,16").split(","))
        max_new = (args.max_new_tokens if args.max_new_tokens is not None
                   else (8 if args.smoke else 32))
        report = latency_sweep(model, max_new_tokens=max_new,
                               batch_sizes=batches,
                               num_prompts=args.num_prompts)
        print(f"streaming inter-token latency on {name} "
              f"({max_new} new tokens per sequence)")
        print(format_table(["batch", "events", "first-token ms",
                            "inter-token ms", "p95 ms", "stream tok/s"],
                           report.rows()))
        if args.json:
            export_report(report, args.json, name, "paged")
        return
    if args.mem:
        if args.num_prompts is not None:
            parser.error("--num-prompts has no effect with --mem "
                         "(each point serves one full wave of batch-size "
                         "prompts); use --batch-sizes to scale the sweep")
        batches = tuple(int(b) for b in
                        (args.batch_sizes or "16,32,64").split(","))
        max_new = ((24 if args.smoke else 112)
                   if args.max_new_tokens is None else args.max_new_tokens)
        report = memory_sweep(model, max_new_tokens=max_new,
                              batch_sizes=batches)
        print(f"paged/quantized KV cache memory on {name} "
              f"({max_new} new tokens per sequence)")
        print(format_table(["mode", "batch", "decode tok/s", "bytes/token",
                            "allocated", "dense fp32"], report.rows()))
        if args.json:
            export_report(report, args.json, name, "paged,fineq")
        return

    # `is None` (not `or`): an explicit 0 must reach the engine's loud
    # validation instead of silently becoming a default.  Explicit values
    # always win over --smoke's scaled-down defaults, as in --mem mode.
    max_new = (args.max_new_tokens if args.max_new_tokens is not None
               else (8 if args.smoke else 32))
    num = (args.num_prompts if args.num_prompts is not None
           else (8 if args.smoke else 16))
    batch_sizes = tuple(int(b) for b in
                        (args.batch_sizes or "1,4,16").split(","))
    prompts = bench_prompts(model.config.vocab_size, num)
    report = throughput_sweep(model, prompts, max_new_tokens=max_new,
                              batch_sizes=batch_sizes)
    print(f"decode throughput on {name} "
          f"({num} prompts x {max_new} new tokens)")
    print(format_table(["config", "batch", "prefill tok/s", "decode tok/s",
                        "speedup"], report.rows()))


if __name__ == "__main__":
    main()
