"""Request-centric continuous-batching generation engine.

The engine is a *persistent session*: the KV cache and slot state are
engine members created once, so requests can be submitted, streamed, and
cancelled while serving is live instead of queueing for a one-shot batch
drain.  One :meth:`GenerationEngine.step` admits waiting prompts into
free slots (a ragged sub-batch prefill) and advances every *active* slot
by one decode token — idle slots are neither forwarded nor gathered
(``decode_rows`` threads the active sub-batch down to the cache), so a
draining batch costs only its live rows.

Typical streaming client::

    engine = GenerationEngine(model, max_batch_size=8)
    engine.submit(prompt_a, params=SamplingParams(max_new_tokens=32,
                                                  temperature=0.8,
                                                  top_p=0.95, seed=7))
    engine.submit(prompt_b, max_new_tokens=16)        # greedy shorthand
    for event in engine.stream():                     # TokenEvent stream
        print(event.request_id, event.token, event.finish_reason)
        if event.request_id == 0 and event.token == BORING:
            engine.cancel(0)                          # frees row + blocks
        if need_more_work:
            engine.submit(prompt_c, max_new_tokens=8) # mid-flight is fine
    done = engine.take_completions()

Per-request knobs live in a frozen :class:`SamplingParams` (temperature,
top-k, top-p, per-request seed, stop tokens, token budget); sampling is
vectorized across the batch with per-request RNG streams, so identical
requests sample identically regardless of batch composition.

The cache backend is selected by ``kv_cache``:

* ``"paged"`` (default) — block-granular FP32
  :class:`~repro.nn.paged_kv_cache.PagedKVCache`; memory tracks the sum
  of live tokens instead of ``batch x max_len``.
* ``"fineq"`` — :class:`~repro.nn.paged_kv_cache.QuantizedPagedKVCache`;
  full blocks stored in the paper's 2.33-bit format (~7x fewer bytes per
  full block, ~4.7x end-to-end with the FP32 write buffers; bounded
  perplexity delta instead of exact parity).

Both run every forward the same way — write the span, then attend the
block table (:mod:`repro.nn.block_attention`).  The rectangular
:class:`~repro.nn.kv_cache.KVCache` is not a serving backend: it is the
sequential :meth:`repro.nn.model.TransformerLM.generate` reference that
greedy decoding on ``"paged"`` is token-identical to — including with
mid-flight submission and cancelled neighbour rows: per-row positions
match the sequential position counter exactly, cache reads return the
same float values, and masked slots contribute exact zeros to the
attention averages.

Prefill is lean: the final norm and LM-head projection run only at each
row's last prompt position (``logits_positions``), so prefill cost no
longer scales with ``vocab x prompt_len``.  :meth:`GenerationEngine.run`
and :meth:`GenerationEngine.generate_batch` remain as thin wrappers over
:meth:`GenerationEngine.step` for batch-oriented callers.

Long prompts need not stall the batch: ``prefill_chunk_tokens`` (128 by
default; ``None`` restores one-shot prefill) caps the prompt tokens
forwarded per :meth:`step`.  An admitted long prompt holds its slot in a
*prefilling* state and writes one chunk per step, decode waves run
between chunks, and the scheduler's ``prefill_order`` arbitrates the
step's chunk budget across concurrently-prefilling rows — so under
mixed traffic the stall a decoding stream sees is bounded by one chunk,
not one prompt.  Prefill context reads run over the same block-resident
attention as decode
(:func:`repro.nn.block_attention.block_prefill_attention`): chunks
attend the block table window by window, the ``"fineq"`` backend's
re-reads of already-written context hit the dequant-block memo, and the
chunk-grid-stable geometry keeps chunked output tokens identical to
one-shot prefill.

Admission is delegated to a pluggable :class:`~repro.serve.scheduler
.Scheduler` (``"fifo"`` default, ``"prefix-affinity"``, ``"priority"``
with preemption), and ``prefix_sharing=True`` puts a
:class:`~repro.serve.prefix.PrefixStore` in front of the paged cache:
admitted prompts adopt the longest cached prefix by block reference and
only the novel suffix is forwarded through the model (copy-on-write when
a prompt diverges inside a partially-filled shared block).  Preempted
requests requeue with their progress and restore from whatever shared
prefix survived.  ``record_trace=True`` keeps a per-decode-step
:class:`StepTrace` of (rows, tokens, KV bytes, post-cache KV bytes
streamed) that ``repro.hw.workloads.project_decode_trace`` projects
onto the paper's accelerator cycle model.

Single-token decode is *block-resident* too: attention iterates the
block table chunk by chunk instead of gathering a dense ``(batch, heads,
total, head_dim)`` context copy per layer per step, and the ``"fineq"``
backend serves chunk reads through a dequantized-block LRU so an
immutable quantized block — a shared system prompt especially — is
LUT-decoded once instead of ``batch x layers x steps`` times.
:class:`EngineStats` tracks the peak decode scratch, the dense-copy
bytes never built, and the dequant-cache hit rate.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from repro.nn.block_attention import additive_mask
from repro.nn.paged_kv_cache import (DEFAULT_BLOCK_SIZE, PagedKVCache,
                                     QuantizedPagedKVCache)
from repro.nn.model import TransformerLM
from repro.serve.prefix import PrefixStore
from repro.serve.scheduler import (RunningInfo, Scheduler, SchedulerView,
                                   get_scheduler)
from repro.serve.spec import (SpeculativeConfig, SpeculativeDecoder,
                              leftover_accept, sample_from_probs)

#: Engine cache backends: constructor keyed by the ``kv_cache`` argument.
KV_CACHE_MODES = ("paged", "fineq")

#: Every terminal state a request can reach.
FINISH_REASONS = ("length", "eos", "stop", "max_seq_len", "cancelled")


@dataclass(frozen=True)
class SamplingParams:
    """Frozen per-request generation knobs.

    ``seed`` drives a private ``np.random.Generator`` for the request, so
    its sampled continuation is a function of (prompt, params) alone —
    batch neighbours never perturb it.  ``seed=None`` asks the engine to
    draw one from its own stream at submit time (reproducible per engine
    seed + submission order).  ``top_k``/``top_p`` of ``None`` disable
    the respective filter; ``top_k=1`` is exact greedy.  ``stop_tokens``
    terminate the request the step they are generated (the stop token is
    kept, mirroring ``eos`` handling).  ``priority`` (higher wins) only
    matters under the ``"priority"`` scheduler, which admits high
    priorities first and may preempt lower-priority running requests when
    the block pool runs out.
    """

    max_new_tokens: int = 16
    temperature: float = 0.0
    top_k: int | None = None
    top_p: float | None = None
    seed: int | None = None
    stop_tokens: tuple[int, ...] = ()
    priority: int = 0

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.temperature < 0.0:
            raise ValueError("temperature must be >= 0")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1 (or None to disable)")
        if self.top_p is not None and not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1] (or None to disable)")
        object.__setattr__(self, "stop_tokens",
                           tuple(int(t) for t in self.stop_tokens))

    @property
    def greedy(self) -> bool:
        """True when sampling degenerates to argmax (token-identical)."""
        return self.temperature <= 0.0 or self.top_k == 1

    def to_dict(self) -> dict:
        """JSON-ready stored fields (the durable queue's journal shape)."""
        out = asdict(self)
        out["stop_tokens"] = list(self.stop_tokens)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "SamplingParams":
        """Rebuild params from :meth:`to_dict` output (journal replay)."""
        return cls(**payload)


@dataclass(frozen=True)
class Request:
    """One queued generation request."""

    request_id: int
    prompt: np.ndarray
    params: SamplingParams

    # PR 1 compatibility: the old flat fields read through to params.
    @property
    def max_new_tokens(self) -> int:
        return self.params.max_new_tokens

    @property
    def temperature(self) -> float:
        return self.params.temperature


@dataclass
class _QueueEntry:
    """A waiting unit of work: a fresh submission or a preempted request.

    ``tokens`` is what prefill forwards (prompt plus any tokens already
    generated before a preemption) and ``generated``/``rng`` carry the
    request's progress and private sampling stream across the preempt /
    restore cycle, so a restored request continues exactly where it left
    off.
    """

    request: Request
    tokens: np.ndarray
    generated: list[int]
    rng: np.random.Generator

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def priority(self) -> int:
        return self.request.params.priority

    # PR 1 compatibility: the old flat queue-inspection fields.
    @property
    def max_new_tokens(self) -> int:
        return self.request.params.max_new_tokens

    @property
    def temperature(self) -> float:
        return self.request.params.temperature


@dataclass(frozen=True)
class TokenEvent:
    """One streamed token (or terminal notice) for a request.

    ``token`` is ``None`` only for events that produce no token (a
    cancellation).  ``finish_reason`` is ``None`` while the request is
    still running and one of :data:`FINISH_REASONS` on its final event.
    """

    request_id: int
    token: int | None
    finish_reason: str | None = None


@dataclass
class Completion:
    """A finished request: prompt plus generated continuation."""

    request_id: int
    tokens: np.ndarray
    prompt_len: int
    finish_reason: str  # one of FINISH_REASONS

    @property
    def new_tokens(self) -> np.ndarray:
        return self.tokens[self.prompt_len:]


@dataclass
class EngineStats:
    """Token/time accounting for throughput reporting.

    Prefill counters are *per admission*: ``prompt_tokens`` is the
    context admissions established (counted as it lands — adopted
    prefixes at claim time, forwarded chunks as they forward),
    ``shared_prompt_tokens`` the part adopted from cached prefixes, and
    ``prefill_tokens`` the part actually forwarded through the model, so
    ``prompt_tokens == shared_prompt_tokens + prefill_tokens`` always.
    A preempted request's restore is a second admission (its prompt plus
    generated progress count again), and a request cancelled or
    preempted mid chunked prefill contributes only what it wrote — the
    counters track prefill work done and avoided, not unique
    submissions.
    """

    prefill_tokens: int = 0
    prefill_seconds: float = 0.0
    prompt_tokens: int = 0
    shared_prompt_tokens: int = 0
    decode_tokens: int = 0
    decode_seconds: float = 0.0
    decode_steps: int = 0
    decode_slot_steps: int = 0  # steps x batch slots (for occupancy)
    preemptions: int = 0
    # KV-cache memory, sampled every decode step at the point of most
    # live context tokens (the serving-memory high-water mark).
    kv_peak_tokens: int = 0
    kv_peak_used_bytes: int = 0
    kv_peak_physical_bytes: int = 0
    kv_peak_allocated_bytes: int = 0
    # Decode read path: the largest transient K/V scratch any decode
    # step materialised (a chunk, not the dense (batch, heads, total,
    # head_dim) gather), the cumulative dense-copy bytes never built,
    # and the quantized cache's dequant-block memo traffic.
    decode_peak_scratch_bytes: int = 0
    decode_bytes_not_gathered: int = 0
    dequant_cache_hits: int = 0
    dequant_cache_misses: int = 0
    # Quantized-cache write path: flush-quantize kernel calls and the K/V
    # blocks they encoded (prefill spans, decode boundary crossings and
    # prefix freezes alike); the quotient is the flush batching factor.
    kv_flush_calls: int = 0
    kv_flush_blocks: int = 0
    # Chunked prefill: forwarded chunk count, prompt tokens that waited
    # for a later step's budget, and the dequant-memo traffic of prefill
    # context re-reads (decode traffic stays in dequant_cache_*).
    prefill_chunks: int = 0
    prefill_tokens_deferred: int = 0
    prefill_dequant_hits: int = 0
    prefill_dequant_misses: int = 0
    # Speculative decoding: draft tokens proposed vs accepted by the
    # target's verify (the bonus token each verify emits on top of the
    # accepted run counts in decode_tokens, not here).
    spec_proposed: int = 0
    spec_accepted: int = 0

    @property
    def prefill_tokens_per_s(self) -> float:
        return self.prefill_tokens / self.prefill_seconds if self.prefill_seconds else 0.0

    @property
    def decode_tokens_per_s(self) -> float:
        return self.decode_tokens / self.decode_seconds if self.decode_seconds else 0.0

    @property
    def occupancy(self) -> float:
        """Mean fraction of batch slots doing useful decode work."""
        return self.decode_tokens / self.decode_slot_steps if self.decode_slot_steps else 0.0

    @property
    def bytes_per_cached_token(self) -> float:
        """Cache bytes per live context token at the memory high-water mark."""
        return self.kv_peak_used_bytes / self.kv_peak_tokens if self.kv_peak_tokens else 0.0

    @property
    def physical_bytes_per_cached_token(self) -> float:
        """Resident cache bytes per live context token at the high-water
        mark; shared prefix blocks count once however many rows read
        them, so this is the number prefix sharing drives down."""
        return self.kv_peak_physical_bytes / self.kv_peak_tokens if self.kv_peak_tokens else 0.0

    @property
    def prefix_hit_tokens_ratio(self) -> float:
        """Fraction of submitted prompt tokens served from cached prefixes."""
        return self.shared_prompt_tokens / self.prompt_tokens if self.prompt_tokens else 0.0

    @property
    def dequant_cache_hit_rate(self) -> float:
        """Fraction of quantized-block decode reads served from the
        dequant memo instead of re-running LUT dequantization."""
        lookups = self.dequant_cache_hits + self.dequant_cache_misses
        return self.dequant_cache_hits / lookups if lookups else 0.0

    @property
    def prefill_dequant_hit_rate(self) -> float:
        """Fraction of quantized-block *prefill* context reads served
        from the dequant memo — a later chunk re-reading blocks an
        earlier chunk (or a decode wave, or a shared prefix) already
        dequantized."""
        lookups = self.prefill_dequant_hits + self.prefill_dequant_misses
        return self.prefill_dequant_hits / lookups if lookups else 0.0

    @property
    def acceptance_rate(self) -> float:
        """Fraction of drafted tokens the target's verify accepted."""
        return self.spec_accepted / self.spec_proposed \
            if self.spec_proposed else 0.0

    def to_dict(self) -> dict:
        """Counters plus derived rates, JSON-ready.

        Stored fields plus every ``@property`` evaluated on the instance,
        so a rate lands next to the counters it comes from.  This is the
        ``engine`` section of the gateway's ``/metrics`` payload.
        """
        out = asdict(self)
        for name in dir(type(self)):
            if isinstance(getattr(type(self), name), property):
                out[name] = getattr(self, name)
        return out


class StepTrace(NamedTuple):
    """One decode step's workload, for accelerator projection.

    ``kv_bytes`` is what the step's attention reads cover logically
    (dense-equivalent bytes: a shared block is read once per reader
    row).  ``kv_bytes_streamed`` is what the step actually fetched from
    cache storage after the dequant-block memo — quantized payloads for
    misses and FP32 write-buffer reads, with hits streaming nothing —
    so the accelerator projection credits the dequant reuse (``-1``,
    for hand-built traces, means "same as ``kv_bytes``").  Tuple-shaped so
    ``repro.hw.workloads`` can consume traces without importing the
    serving engine.

    ``prefill_tokens`` distinguishes prefill-chunk steps (``tokens`` of
    the step's forward were prompt-chunk writes) from decode steps
    (``0``; there ``tokens == rows``).

    Speculative decode steps keep ``tokens`` = tokens the step actually
    *emitted* (committed after verify), so decode-step token sums agree
    with ``EngineStats.decode_tokens`` whether or not the step was
    speculative.  The work actually paid rides in the extra fields:
    ``spec_verify_tokens`` is the verify forward's total token
    positions (the target GEMM width), ``spec_draft_tokens`` the draft
    model's forwarded positions (catch-up plus the ``k`` proposal
    loop), so ``repro.hw.workloads.project_decode_trace`` can charge
    draft and verify GEMMs at their real widths while dividing cycles
    by tokens a consumer saw.
    """

    rows: int
    tokens: int
    kv_bytes: int
    kv_bytes_streamed: int = -1
    prefill_tokens: int = 0
    spec_proposed: int = 0
    spec_accepted: int = 0
    spec_draft_tokens: int = 0
    spec_verify_tokens: int = 0

    def to_dict(self) -> dict:
        """Field-named dict, JSON-ready (trace exports and ``/metrics``)."""
        return dict(self._asdict())


@dataclass
class _Slot:
    """Live per-row state: decoding, or still writing its prompt.

    ``prefill_tokens`` holds the full token array the row must establish
    (prompt plus any pre-preemption progress) while its prefill is
    chunked across steps; ``prefill_pos`` is how much context the row
    already has (adopted shared prefix plus written chunks).  Once the
    prompt is fully written ``prefill_tokens`` drops to ``None`` and the
    slot decodes like any other.
    """

    request: Request
    rng: np.random.Generator
    generated: list[int] = field(default_factory=list)
    prefill_tokens: np.ndarray | None = None
    prefill_pos: int = 0

    @property
    def prefilling(self) -> bool:
        return self.prefill_tokens is not None


def apply_top_k_top_p(scaled: np.ndarray, top_k: np.ndarray,
                      top_p: np.ndarray) -> np.ndarray:
    """Mask ``(batch, vocab)`` scaled logits to each row's top-k/top-p set.

    ``top_k`` holds per-row k (``vocab`` disables), ``top_p`` per-row
    nucleus mass (``1.0`` disables).  One descending sort serves both
    filters: the k-th sorted logit is the top-k threshold, and the
    smallest sorted logit inside the minimal nucleus whose probability
    mass reaches ``top_p`` is the top-p threshold.  Ties at a threshold
    are kept (deterministic, never empties a row); masked entries are
    ``-inf`` so downstream softmax zeroes them exactly.
    """
    vocab = scaled.shape[-1]
    top_k = np.minimum(np.asarray(top_k, dtype=np.int64), vocab)
    top_p = np.asarray(top_p, dtype=np.float64)
    if np.all(top_k >= vocab) and np.all(top_p >= 1.0):
        return scaled
    order = np.argsort(scaled, axis=-1)[:, ::-1]
    sorted_logits = np.take_along_axis(scaled, order, axis=-1)
    kth = np.take_along_axis(sorted_logits, top_k[:, None] - 1, axis=-1)
    keep = scaled >= kth
    if np.any(top_p < 1.0):
        shifted = sorted_logits - sorted_logits[:, :1]
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        csum = probs.cumsum(axis=-1)
        # A sorted position is inside the nucleus while the mass *before*
        # it is < top_p; the first token is therefore always kept.
        in_nucleus = (csum - probs) < top_p[:, None]
        counts = in_nucleus.sum(axis=-1)
        cutoff = np.take_along_axis(sorted_logits, counts[:, None] - 1,
                                    axis=-1)
        keep &= scaled >= cutoff
    return np.where(keep, scaled, -np.inf)


def _filtered_probs(logits: np.ndarray, params: list) -> np.ndarray:
    """Per-row post-filter sampling distributions for ``(batch, vocab)``
    logits: temperature scaling and top-k/top-p masking followed by
    softmax, vectorized over the non-greedy rows; greedy rows collapse
    to a one-hot at their argmax.  These are the distributions both
    sampling (CDF inversion) and the speculative ``"leftover"``
    acceptance rule (target ``p`` and draft ``q``) operate on."""
    greedy = logits.argmax(axis=-1)
    probs = np.zeros(logits.shape)
    probs[np.arange(len(logits)), greedy] = 1.0
    hot_idx = np.array([i for i, p in enumerate(params) if not p.greedy],
                       dtype=np.int64)
    if len(hot_idx) == 0:
        return probs
    hot_params = [params[i] for i in hot_idx]
    vocab = logits.shape[-1]
    temperatures = np.array([p.temperature for p in hot_params])
    top_k = np.array([p.top_k or vocab for p in hot_params])
    top_p = np.array([p.top_p if p.top_p is not None else 1.0
                      for p in hot_params])
    scaled = apply_top_k_top_p(logits[hot_idx] / temperatures[:, None],
                               top_k, top_p)
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    hot = np.exp(scaled)
    hot /= hot.sum(axis=-1, keepdims=True)
    probs[hot_idx] = hot
    return probs


def _sample_tokens(logits: np.ndarray, params: list, rngs: list,
                   return_probs: bool = False):
    """Sample one token per row of ``(batch, vocab)`` logits.

    The engine's sampling math with explicit per-row params and RNG
    streams, shared by regular decode, speculative draft proposals, and
    speculative verify re-sampling.  Greedy rows take their argmax and
    consume no RNG; each non-greedy row inverts its own masked CDF at a
    draw from its *private* generator — exactly one draw per row — so a
    request's sample stream depends only on its own params and logits,
    never on batch composition.

    ``return_probs=True`` additionally returns the
    :func:`_filtered_probs` distributions (the ``"leftover"`` policy
    needs the draft's proposal distribution alongside its sample).
    """
    greedy = logits.argmax(axis=-1)
    hot_idx = np.array([i for i, p in enumerate(params) if not p.greedy],
                       dtype=np.int64)
    if len(hot_idx) == 0:
        return (greedy, _filtered_probs(logits, params)) if return_probs \
            else greedy
    # Only the hot rows pay the vocab-wide sort/softmax; greedy rows
    # already have their argmax.
    probs = _filtered_probs(logits[hot_idx], [params[i] for i in hot_idx])
    draws = np.array([rngs[i].random() for i in hot_idx])
    # Smallest index whose cumulative mass exceeds the draw: masked
    # tokens carry exactly zero mass, so ties (cumsum flat) can never
    # select them — including a draw of exactly 0.0 with token 0
    # masked.  Float rounding can still leave the total mass a hair
    # under a draw near 1.0, so clamp onto the last *kept* token.
    vocab = logits.shape[-1]
    sampled = (probs.cumsum(axis=-1) <= draws[:, None]).sum(axis=-1)
    last_kept = vocab - 1 - np.argmax(probs[:, ::-1] > 0, axis=-1)
    out = greedy.copy()
    out[hot_idx] = np.minimum(sampled, last_kept)
    if return_probs:
        full = np.zeros(logits.shape)
        full[np.arange(len(logits)), greedy] = 1.0
        full[hot_idx] = probs
        return out, full
    return out


class GenerationEngine:
    """A persistent serving session over a fixed pool of KV-cache slots.

    The cache and per-slot state live for the engine's lifetime:
    :meth:`submit` enqueues work at any time (including mid-stream),
    :meth:`step` advances one admit+decode iteration, :meth:`stream`
    yields :class:`TokenEvent`s as tokens land, :meth:`cancel` frees a
    request's row and cache blocks immediately, and
    :meth:`take_completions` drains finished requests.  :meth:`run` and
    :meth:`generate_batch` wrap :meth:`step` for batch-oriented callers.

    Parameters
    ----------
    model:
        The language model to serve (any :class:`TransformerLM`,
        quantized or not).
    max_batch_size:
        Number of cache slots, i.e. the decode batch width.
    eos_token:
        Optional token id that terminates a sequence early.
    rng:
        Engine-level generator; only used to draw per-request seeds for
        requests that did not fix one in :class:`SamplingParams`.
    kv_cache:
        Cache backend: ``"paged"`` (default) or ``"fineq"`` (quantized
        paged).
    block_size:
        Tokens per block for the paged backends.
    scheduler:
        Admission policy: ``"fifo"`` (default), ``"prefix-affinity"``,
        ``"priority"``, or any object satisfying
        :class:`repro.serve.scheduler.Scheduler`.
    prefix_sharing:
        Index prompts in a :class:`~repro.serve.prefix.PrefixStore` and
        prefill only novel suffixes.
    prefix_blocks:
        Block budget for the prefix store's LRU eviction (None =
        unbounded).
    max_pool_blocks:
        Soft KV-pool budget: admission throttles (and the priority
        scheduler preempts) against it; forced growth can still exceed
        it so in-flight writes never fail.
    record_trace:
        Append a :class:`StepTrace` per decode step to ``self.trace``
        for accelerator projection via ``repro.hw.workloads``.
    prefill_chunk_tokens:
        Per-:meth:`step` prompt-token budget (default 128).  Admitted
        prompts longer than the budget prefill chunk by chunk across
        steps — their slots sit in a *prefilling* state while decode
        waves run between chunks — and the scheduler's ``prefill_order``
        decides which prefilling rows the budget feeds first.  ``None``
        prefills every admitted prompt in one shot (the pre-chunking
        behaviour).
    speculative:
        A :class:`~repro.serve.spec.SpeculativeConfig` to decode
        speculatively: each decode step drafts ``k`` tokens per row
        with the (cheap) draft model, verifies all ``k + 1`` positions
        in one multi-token target forward over the block-resident read
        path, commits the accepted prefix, and rolls the caches back
        past the first rejection (``truncate_rows``).  Greedy output is
        token-identical to target-only decode; the default ``"exact"``
        policy keeps sampled output identical too.  ``None`` (default)
        decodes one token per step.
    """

    def __init__(self, model: TransformerLM, max_batch_size: int = 8,
                 eos_token: int | None = None,
                 rng: np.random.Generator | None = None,
                 initial_capacity: int = 64, kv_cache: str = "paged",
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 scheduler: str | Scheduler = "fifo",
                 prefix_sharing: bool = False,
                 prefix_blocks: int | None = None,
                 max_pool_blocks: int | None = None,
                 record_trace: bool = False,
                 prefill_chunk_tokens: int | None = 128,
                 speculative: SpeculativeConfig | None = None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if prefill_chunk_tokens is not None and prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be >= 1 "
                             "(or None for one-shot prefill)")
        if kv_cache not in KV_CACHE_MODES:
            raise ValueError(f"kv_cache must be one of {KV_CACHE_MODES}, "
                             f"got {kv_cache!r}")
        self.model = model
        self.max_batch_size = max_batch_size
        self.eos_token = eos_token
        self.rng = rng or np.random.default_rng(0)
        self.initial_capacity = initial_capacity
        self.kv_cache = kv_cache
        self.block_size = block_size
        self.scheduler = get_scheduler(scheduler)
        self.prefix_sharing = prefix_sharing
        self.prefix_blocks = prefix_blocks
        self.max_pool_blocks = max_pool_blocks
        self.record_trace = record_trace
        self.prefill_chunk_tokens = prefill_chunk_tokens
        if speculative is not None:
            speculative.validate_target(model)
        self.speculative = speculative
        self._spec = (SpeculativeDecoder(self, speculative)
                      if speculative is not None else None)
        self._prefill_budget: int | None = prefill_chunk_tokens
        self.trace: list[StepTrace] = []
        self.stats = EngineStats()
        self._queue: deque[_QueueEntry] = deque()
        self._next_id = 0
        # Session state: created once, reused across every step()/run().
        self._cache: PagedKVCache | None = None
        self._prefix: PrefixStore | None = None
        self._slots: list[_Slot | None] = [None] * max_batch_size
        self._lengths = np.zeros(max_batch_size, dtype=np.int64)
        self._pending = np.zeros(max_batch_size, dtype=np.int64)
        self._live: dict[int, int] = {}      # request_id -> slot row
        self._finished: list[Completion] = []
        self._events: list[TokenEvent] = []  # out-of-step events (cancels)

    @property
    def cache(self) -> PagedKVCache | None:
        """The session's KV cache (None until the first admit)."""
        return self._cache

    @property
    def prefix_store(self) -> PrefixStore | None:
        """The prefix index (None until the first admit or when sharing
        is disabled)."""
        return self._prefix

    def _make_cache(self) -> PagedKVCache:
        batch = self.max_batch_size
        initial_blocks = batch * max(1, self.initial_capacity // self.block_size)
        if self.max_pool_blocks is not None:
            initial_blocks = min(initial_blocks, self.max_pool_blocks)
        cls = PagedKVCache if self.kv_cache == "paged" \
            else QuantizedPagedKVCache
        return cls(self.model.config.num_layers, batch=batch,
                   block_size=self.block_size, initial_blocks=initial_blocks,
                   max_blocks=self.max_pool_blocks)

    def _account_step(self, rows: int, tokens: int, prefill_tokens: int = 0,
                      **spec) -> None:
        """Post-forward accounting of one decode, speculative or prefill
        step: fold the cache's read/flush counters (taken per step, so
        prefill traffic never leaks into a decode step's snapshot) into
        the session stats, sample the KV-memory high-water mark (decode
        steps only), and append the step's :class:`StepTrace`."""
        cache = self._cache
        stats = self.stats
        read = cache.take_read_stats()
        stats.kv_flush_calls += read.flush_calls
        stats.kv_flush_blocks += read.flush_blocks
        if prefill_tokens:
            stats.prefill_dequant_hits += read.dequant_hits
            stats.prefill_dequant_misses += read.dequant_misses
        else:
            stats.decode_peak_scratch_bytes = max(
                stats.decode_peak_scratch_bytes, read.peak_scratch_bytes)
            stats.decode_bytes_not_gathered += read.bytes_not_gathered
            stats.dequant_cache_hits += read.dequant_hits
            stats.dequant_cache_misses += read.dequant_misses
            live_tokens = cache.cached_tokens
            if live_tokens > stats.kv_peak_tokens:
                stats.kv_peak_tokens = live_tokens
                stats.kv_peak_used_bytes = cache.used_bytes()
                stats.kv_peak_physical_bytes = cache.physical_used_bytes()
            stats.kv_peak_allocated_bytes = max(
                stats.kv_peak_allocated_bytes, cache.allocated_bytes())
        if self.record_trace:
            self.trace.append(StepTrace(
                rows=rows, tokens=tokens, kv_bytes=cache.used_bytes(),
                kv_bytes_streamed=read.streamed_bytes,
                prefill_tokens=prefill_tokens, **spec))

    # ------------------------------------------------------------------ #
    # request intake and cancellation
    # ------------------------------------------------------------------ #
    def submit(self, prompt: np.ndarray, max_new_tokens: int | None = None,
               temperature: float | None = None,
               params: SamplingParams | None = None) -> int:
        """Queue a request; returns its id (events/completions carry it).

        Either pass ``params`` (the request-centric API) or the PR 1
        shorthand ``max_new_tokens``/``temperature``, not both.  Works at
        any time, including while :meth:`stream` is being consumed.
        """
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        if prompt.size == 0:
            raise ValueError("prompt must contain at least one token")
        if prompt.size > self.model.config.max_seq_len:
            raise ValueError(f"prompt of {prompt.size} tokens exceeds "
                             f"max_seq_len={self.model.config.max_seq_len}")
        if params is None:
            if max_new_tokens is None:
                raise ValueError("pass max_new_tokens or params")
            params = SamplingParams(max_new_tokens=max_new_tokens,
                                    temperature=temperature or 0.0)
        elif max_new_tokens is not None or temperature is not None:
            raise ValueError("pass either params or the max_new_tokens/"
                             "temperature shorthand, not both")
        if params.seed is None:
            params = replace(params, seed=int(self.rng.integers(2 ** 32)))
        request = Request(request_id=self._next_id, prompt=prompt,
                          params=params)
        self._next_id += 1
        self._queue.append(_QueueEntry(
            request=request, tokens=prompt, generated=[],
            rng=np.random.default_rng(params.seed)))
        return request.request_id

    def submit_from_record(self, record) -> int:
        """Submit a durable queue record; returns the engine request id.

        ``record`` is anything with ``prompt`` and ``params`` attributes
        (the gateway's :class:`~repro.serve.gateway.queue.QueuedJob`).
        The params must carry a *resolved* seed: a record re-dispatched
        after a crash has to regenerate the exact token stream its
        journal already holds, which an engine-drawn seed (a function of
        this engine's RNG state) would not.
        """
        params = record.params
        if params.seed is None:
            raise ValueError(
                "queue records must carry a resolved seed — durability "
                "needs the stream to be reproducible across restarts")
        return self.submit(record.prompt, params=params)

    def cancel(self, request_id: int) -> bool:
        """Terminate a queued or running request immediately.

        A running request's slot and cache blocks are freed right away
        (shared prefix blocks stay resident for the prefix store and any
        other readers — only exclusively-owned blocks return to the
        pool); its partial output lands in :meth:`take_completions` with
        ``finish_reason="cancelled"`` and a terminal :class:`TokenEvent`
        (``token=None``) is emitted on the next :meth:`step`/
        :meth:`stream` iteration.  Returns False for ids that are unknown
        or already finished.
        """
        for entry in self._queue:
            if entry.request_id == request_id:
                self._queue.remove(entry)
                tokens = np.concatenate(
                    [entry.request.prompt,
                     np.asarray(entry.generated, dtype=np.int64)])
                self._finished.append(Completion(
                    request_id=request_id, tokens=tokens,
                    prompt_len=len(entry.request.prompt),
                    finish_reason="cancelled"))
                self._events.append(TokenEvent(request_id, None, "cancelled"))
                return True
        row = self._live.get(request_id)
        if row is None:
            return False
        self._retire(row, "cancelled")
        self._events.append(TokenEvent(request_id, None, "cancelled"))
        return True

    def generate_batch(self, prompts: list[np.ndarray], max_new_tokens: int,
                       temperature: float = 0.0) -> list[np.ndarray]:
        """Serve ``prompts`` and return full token arrays in input order.

        Completions of requests submitted outside this call stay queued
        for :meth:`take_completions` instead of being dropped.
        """
        ids = [self.submit(p, max_new_tokens, temperature) for p in prompts]
        wanted = set(ids)
        done = {}
        foreign = []
        for completion in self.run():
            if completion.request_id in wanted:
                done[completion.request_id] = completion
            else:
                foreign.append(completion)
        self._finished.extend(foreign)
        return [done[i].tokens for i in ids]

    def reset_stats(self) -> None:
        self.stats = EngineStats()

    # ------------------------------------------------------------------ #
    # the serving session
    # ------------------------------------------------------------------ #
    def has_work(self) -> bool:
        """True while a step could produce events."""
        return bool(self._events or self._queue
                    or any(slot is not None for slot in self._slots))

    @property
    def num_active(self) -> int:
        """Occupied slots (decoding or mid chunked prefill)."""
        return sum(slot is not None for slot in self._slots)

    @property
    def num_prefilling(self) -> int:
        """Slots still writing their prompt chunk by chunk."""
        return sum(slot is not None and slot.prefilling
                   for slot in self._slots)

    def step(self) -> list[TokenEvent]:
        """Advance one admit+prefill+decode iteration; return its events.

        Buffered out-of-step events (cancellations) flush first, then the
        scheduler admits waiting prompts into free slots (possibly
        preempting victims first), prefilling rows consume the step's
        ``prefill_chunk_tokens`` budget, and every decoding slot advances
        one token.  Safe to call with nothing to do.
        """
        events = self._events
        self._events = []
        self._prefill_budget = self.prefill_chunk_tokens
        if self._queue:
            if self._cache is None:
                self._cache = self._make_cache()
                if self.prefix_sharing:
                    self._prefix = PrefixStore(
                        self._cache, max_blocks=self.prefix_blocks)
            events += self._admit()
        if self.num_prefilling:
            # Rows admitted in earlier steps (or starved by this
            # step's admission rounds) spend whatever budget is left.
            events += self._prefill_step()
        if any(slot is not None and not slot.prefilling
               for slot in self._slots):
            self._ensure_decode_headroom()
            events += (self._spec_decode_step()
                       if self._spec is not None else self._decode_step())
        return events

    def _ensure_decode_headroom(self) -> None:
        """Preempt (if the policy allows) when the next decode step needs
        blocks the soft pool budget cannot grant: rows about to cross a
        block boundary each allocate one block (a speculative step may
        write up to ``k + 1`` tokens per row, crossing several)."""
        cache = self._cache
        if cache.max_blocks is None:
            return
        bs = cache.block_size
        extra = (self._spec.config.k + 1) if self._spec is not None else 1
        crossing = sum(
            -(-(int(self._lengths[row]) + extra) // bs)
            - -(-int(self._lengths[row]) // bs)
            for row, slot in enumerate(self._slots)
            if slot is not None and not slot.prefilling)
        available = cache.available_blocks()
        if crossing <= available:
            return
        view = self._scheduler_view()
        for rid in self.scheduler.victims_for_blocks(view,
                                                     crossing - available):
            row = self._live.get(rid)
            if row is not None:
                self._preempt_row(row)

    def stream(self):
        """Yield :class:`TokenEvent`s until the session runs dry.

        A generator over repeated :meth:`step` calls; submitting or
        cancelling between iterations is supported, so a consumer can
        react to tokens as they land.
        """
        while self.has_work():
            yield from self.step()

    def run(self) -> list[Completion]:
        """Drain the queue with continuous batching; return completions.

        Returns *every* completion finished since the last drain — in a
        long-lived session that includes requests that finished under an
        earlier :meth:`stream` whose completions were never taken.
        """
        while self.has_work():
            self.step()
        return self.take_completions()

    def take_completions(self) -> list[Completion]:
        """Drain and return every completion finished since the last take."""
        finished = self._finished
        self._finished = []
        return finished

    def _decode_step(self) -> list[TokenEvent]:
        """One single-token decode over the active sub-batch."""
        cache = self._cache
        slots = self._slots
        batch = self.max_batch_size
        active_rows = np.array([row for row, slot in enumerate(slots)
                                if slot is not None and not slot.prefilling],
                               dtype=np.int64)
        n = len(active_rows)
        positions = self._lengths[active_rows]
        total = max(cache.seq_len, int(positions.max()) + 1)
        kv_mask = additive_mask(
            np.arange(total) < (positions + 1)[:, None])[:, None, None, :]
        # Full batches take the rows=None fast path (whole-table reads);
        # partial batches forward only the active rows, so draining
        # waves stop paying for idle slots.
        decode_rows = None if n == batch else active_rows

        start = time.perf_counter()
        logits = self.model(self._pending[active_rows][:, None], cache=cache,
                            positions=positions[:, None], kv_mask=kv_mask,
                            decode_rows=decode_rows)
        self.stats.decode_seconds += time.perf_counter() - start
        self.stats.decode_tokens += n
        self.stats.decode_steps += 1
        self.stats.decode_slot_steps += batch
        self._lengths[active_rows] += 1
        self._account_step(rows=n, tokens=n)

        sampled = self._sample(logits.data[:, -1],
                               [slots[row] for row in active_rows])
        events = []
        for i, row in enumerate(active_rows):
            slot = slots[row]
            token = int(sampled[i])
            slot.generated.append(token)
            self._pending[row] = token
            reason = self._finish_reason(row)
            events.append(TokenEvent(slot.request.request_id, token, reason))
            if reason is not None:
                self._retire(row, reason)
        return events

    def _spec_decode_step(self) -> list[TokenEvent]:
        """One speculative decode step: draft, verify, commit/roll back.

        Per active row with committed context ``L`` and pending token
        ``t`` (token index ``L``, not yet written): the draft model
        proposes ``d_1..d_k`` continuations, and one multi-token target
        forward writes ``[t, d_1..d_k]`` at positions ``L..L+k`` and
        returns logits for every position — position ``L+i``'s logits
        are the target's next-token distribution after ``d_i``, exactly
        what target-only decode would compute there.  Tokens emit in
        stream order (the target's own choice at each position, drawn
        with the request's private RNG under the default ``"exact"``
        policy) while the emitted token keeps matching the next draft;
        the first mismatch, terminal token, or the post-run bonus token
        ends the row's run.  The caches then truncate back to the
        committed length (:meth:`PagedKVCache.truncate_rows` — shared
        prefix blocks are refcount-protected, uncommitted quantized
        blocks invalidate their dequant-memo entries).

        On the quantized backend the verify runs as *clone-rows decode*:
        each verify position becomes its own width-1 batch row through
        the standard ``write_token`` + block-decode read path, because
        BLAS GEMMs are bit-stable across the batch axis but not across
        the query-width axis — a width-``k+1`` span forward would write
        K/V that differ from single-token decode's by ulps, and
        quantizing such a block amplifies an ulp into a full
        quantization step, breaking greedy parity.  Clone rounds are
        still chunked at block boundaries so ``write_token``'s own lazy
        flush quantizes a block only after every token in it is already
        accepted (rows reach round ``r + 1`` only by fully accepting
        round ``r``); rollbacks therefore always land inside the
        buffered block and never release pool blocks mid-request.
        """
        cache = self._cache
        slots = self._slots
        spec = self._spec
        batch = self.max_batch_size
        active_rows = np.array([row for row, slot in enumerate(slots)
                                if slot is not None and not slot.prefilling],
                               dtype=np.int64)
        n = len(active_rows)
        lengths = self._lengths[active_rows].copy()
        limit = min(self.model.config.max_seq_len,
                    spec.draft.config.max_seq_len)
        k_eff = np.zeros(n, dtype=np.int64)
        for j, row in enumerate(active_rows):
            slot = slots[row]
            remaining = slot.request.params.max_new_tokens \
                - len(slot.generated)
            k_eff[j] = max(0, min(spec.config.k, remaining - 1,
                                  limit - int(lengths[j]) - 1))
        if not k_eff.any():
            # Nobody can usefully draft (every request is on its last
            # token, or at the context-window limit): plain decode is
            # the same work without the verify detour.
            return self._decode_step()

        start_t = time.perf_counter()
        draft_idx = np.flatnonzero(k_eff > 0)
        proposals, qvecs, draft_tokens = spec.propose(
            active_rows[draft_idx],
            [slots[row] for row in active_rows[draft_idx]],
            lengths[draft_idx], k_eff[draft_idx])
        # Per-row verify token list: [pending, d_1..d_k].  Rows that
        # could not draft fold in as width-1 verifies (a plain decode
        # through the same forward).
        verify: list[list[int]] = [
            [int(self._pending[row])] for row in active_rows]
        qrow: list = [None] * n
        for jj, j in enumerate(draft_idx):
            verify[j] += [int(t) for t in proposals[jj]]
            if qvecs is not None:
                qrow[j] = qvecs[jj]

        params = [slots[row].request.params for row in active_rows]
        rngs = [slots[row].rng for row in active_rows]
        emitted: list[list[int]] = [[] for _ in range(n)]
        reasons: list[str | None] = [None] * n
        done = np.zeros(n, dtype=bool)
        offset = np.zeros(n, dtype=np.int64)
        written = lengths.copy()
        accepted_step = 0
        verify_tokens = 0
        need_probs = spec.config.policy == "leftover"
        is_quant = self.kv_cache == "fineq"
        bs = cache.block_size
        max_pos = self.model.config.max_seq_len - 1

        while not done.all():
            live = np.flatnonzero(~done)
            starts = lengths[live] + offset[live]
            rem = np.array([len(verify[j]) - int(offset[j]) for j in live],
                           dtype=np.int64)
            take = np.minimum(rem, bs - starts % bs) if is_quant else rem
            rows_arr = active_rows[live]
            width = int(take.max())
            total = max(int((starts + take).max()), cache.seq_len)
            if is_quant:
                # Clone-rows decode: verify position L+i of a row is its
                # own width-1 batch row, so every projection GEMM and
                # cache write is bitwise the one sequential decode runs
                # (batch-axis GEMM stability), and write_token's own
                # boundary flush quantizes blocks at the same points.
                clone_rows = np.repeat(rows_arr, take)
                clone_pos = np.concatenate(
                    [np.arange(int(s), int(s) + int(t))
                     for s, t in zip(starts, take)])
                clone_toks = np.concatenate(
                    [np.asarray(verify[j][int(offset[j]):
                                          int(offset[j]) + int(t)])
                     for j, t in zip(live, take)]).astype(np.int64)
                allow = np.arange(total)[None, :] <= clone_pos[:, None]
                kv_mask = additive_mask(allow)[:, None, None, :]
                out = self.model(clone_toks[:, None], cache=cache,
                                 positions=clone_pos[:, None],
                                 kv_mask=kv_mask, decode_rows=clone_rows)
                flat = out.data[:, -1]
                logits_arr = np.zeros((len(live), width, flat.shape[-1]),
                                      dtype=flat.dtype)
                pos0 = 0
                for jj, t in enumerate(take):
                    logits_arr[jj, :int(t)] = flat[pos0:pos0 + int(t)]
                    pos0 += int(t)
            else:
                toks = np.zeros((len(live), width), dtype=np.int64)
                positions = np.zeros((len(live), width), dtype=np.int64)
                offs = np.arange(width)
                for jj, j in enumerate(live):
                    o, t = int(offset[j]), int(take[jj])
                    toks[jj, :t] = verify[j][o:o + t]
                    positions[jj] = np.minimum(int(starts[jj]) + offs,
                                               max_pos)
                query_pos = starts[:, None] + offs[None, :]
                allow = np.arange(total)[None, None, :] \
                    <= query_pos[:, :, None]
                kv_mask = additive_mask(allow)[:, None]
                logits = self.model(toks, cache=cache, cache_rows=rows_arr,
                                    cache_lens=take, cache_starts=starts,
                                    positions=positions, kv_mask=kv_mask)
                logits_arr = logits.data
            verify_tokens += int(take.sum())
            written[live] = starts + take

            # Acceptance, offset by offset: every live row emits exactly
            # one token per offset it reaches, in stream order, so each
            # request's RNG draws line up with target-only decode.
            stopped = np.zeros(len(live), dtype=bool)
            for o in range(width):
                sub = [jj for jj in range(len(live))
                       if take[jj] > o and not stopped[jj]]
                if not sub:
                    break
                sub_rows = [int(live[jj]) for jj in sub]
                sub_logits = logits_arr[sub, o]
                if need_probs:
                    choices = None
                    pvecs = _filtered_probs(sub_logits,
                                            [params[j] for j in sub_rows])
                else:
                    choices = _sample_tokens(sub_logits,
                                             [params[j] for j in sub_rows],
                                             [rngs[j] for j in sub_rows])
                for idx, jj in enumerate(sub):
                    j = int(live[jj])
                    g = int(offset[j]) + o       # global verify offset
                    has_draft = g + 1 < len(verify[j])
                    par = params[j]
                    if need_probs and not par.greedy:
                        if has_draft:
                            tok, ok = leftover_accept(
                                pvecs[idx], qrow[j][g], verify[j][g + 1],
                                rngs[j])
                        else:  # bonus position: a plain target sample
                            tok, ok = sample_from_probs(pvecs[idx],
                                                        rngs[j]), False
                    else:
                        tok = int(sub_logits[idx].argmax()) \
                            if need_probs else int(choices[idx])
                        ok = has_draft and tok == verify[j][g + 1]
                    emitted[j].append(int(tok))
                    if ok:
                        accepted_step += 1
                    reason = self._token_finish_reason(
                        par, int(tok),
                        len(slots[active_rows[j]].generated)
                        + len(emitted[j]),
                        int(lengths[j]) + g + 1)
                    if reason is not None:
                        reasons[j] = reason
                        stopped[jj] = True
                        done[j] = True
                    elif not ok:
                        stopped[jj] = True
                        done[j] = True
            # Rows that accepted their whole sub-span continue into the
            # next round (only possible with verify tokens left: the
            # bonus position always stops its row above).
            for jj in range(len(live)):
                if not stopped[jj]:
                    offset[live[jj]] += take[jj]

        # --- commit/rollback: truncate past the committed lengths ---
        new_lens = lengths + np.array([len(e) for e in emitted],
                                      dtype=np.int64)
        rollback = np.flatnonzero(written > new_lens)
        if len(rollback):
            cache.truncate_rows(active_rows[rollback], new_lens[rollback])
        spec.commit(active_rows[draft_idx], new_lens[draft_idx])
        self._lengths[active_rows] = new_lens

        total_emitted = int(new_lens.sum() - lengths.sum())
        self.stats.decode_seconds += time.perf_counter() - start_t
        self.stats.decode_tokens += total_emitted
        self.stats.decode_steps += 1
        self.stats.decode_slot_steps += batch
        self.stats.spec_proposed += int(k_eff.sum())
        self.stats.spec_accepted += accepted_step
        # One snapshot covers every verify round: the cache's read
        # counters accumulate across forwards until taken.
        self._account_step(rows=n, tokens=total_emitted,
                           spec_proposed=int(k_eff.sum()),
                           spec_accepted=accepted_step,
                           spec_draft_tokens=draft_tokens,
                           spec_verify_tokens=verify_tokens)

        events: list[TokenEvent] = []
        for j, row in enumerate(active_rows):
            slot = slots[row]
            rid = slot.request.request_id
            for idx, tok in enumerate(emitted[j]):
                slot.generated.append(int(tok))
                final = idx == len(emitted[j]) - 1
                events.append(TokenEvent(rid, int(tok),
                                         reasons[j] if final else None))
            self._pending[row] = int(emitted[j][-1])
            if reasons[j] is not None:
                self._retire(row, reasons[j])
        return events

    def _scheduler_view(self, free_slots: int | None = None) -> SchedulerView:
        """Snapshot of engine state for one scheduler decision."""
        if free_slots is None:
            free_slots = sum(slot is None for slot in self._slots)
        running = tuple(RunningInfo(request_id=slot.request.request_id,
                                    row=row,
                                    priority=slot.request.params.priority,
                                    tokens_generated=len(slot.generated),
                                    context_len=int(self._lengths[row]),
                                    prefill_remaining=(
                                        len(slot.prefill_tokens)
                                        - slot.prefill_pos
                                        if slot.prefilling else 0))
                        for row, slot in enumerate(self._slots)
                        if slot is not None)
        cache = self._cache
        store = self._prefix

        def prefix_peek(tokens):
            if store is None:
                return (0, None)
            match = store.peek(tokens)
            return (match.shared_len, match.node_key)

        return SchedulerView(free_slots=free_slots, running=running,
                             free_blocks=cache.free_blocks(),
                             available_blocks=cache.available_blocks(),
                             block_size=cache.block_size,
                             prefix_peek=prefix_peek)

    def _fit_to_blocks(self, chosen: list[_QueueEntry],
                       view: SchedulerView) -> list[_QueueEntry]:
        """Trim an admission list to the soft block budget.

        Keeps the longest prefix of the scheduler's choice whose
        estimated new-block demand (prompt blocks minus cached shared
        blocks) fits :meth:`PagedKVCache.available_blocks`.  When the
        engine is otherwise idle the head request is admitted regardless
        — the budget is soft, and degrading to one-at-a-time serving
        beats stalling.
        """
        if not chosen or view.available_blocks is None:
            return list(chosen)
        kept: list[_QueueEntry] = []
        budget = view.available_blocks
        for entry in chosen:
            shared, _ = view.prefix_peek(entry.tokens)
            needed = max(0, -(-len(entry.tokens) // view.block_size)
                         - shared // view.block_size)
            if needed > budget and (kept or self.num_active > 0):
                break
            kept.append(entry)
            budget = max(0, budget - needed)
        return kept

    def _defer_wave_duplicates(self,
                               chosen: list[_QueueEntry]
                               ) -> list[_QueueEntry]:
        """Hold back same-wave requests that share an uncached prefix.

        Prompts adopt prefixes from the store, which only indexes a
        prefix *after* some wave prefilled it — so a cold shared prefix
        arriving sixteen-fold in one wave would prefill sixteen times.
        Keep one representative per uncached leading block; the deferred
        rest stay queued and the admit loop re-selects them immediately
        after the representative's wave captured the prefix, turning the
        cold burst into one full prefill plus suffix-only prefills within
        the same :meth:`step`.
        """
        if self._prefix is None:
            return chosen
        bs = self._cache.block_size
        kept: list[_QueueEntry] = []
        claimed: set[tuple[int, ...]] = set()
        # Rows still mid chunked prefill have claimed their leading block
        # too: their prefix is only captured once fully written, so
        # same-prefix arrivals must keep waiting for that capture instead
        # of redundantly prefilling alongside.
        for slot in self._slots:
            if slot is not None and slot.prefilling \
                    and len(slot.prefill_tokens) > bs:
                claimed.add(tuple(int(t)
                                  for t in slot.prefill_tokens[:bs]))
        for entry in chosen:
            tokens = entry.tokens
            if len(tokens) > bs:  # at least one shareable full block
                if self._prefix.peek(tokens).shared_len < bs:
                    key = tuple(int(t) for t in tokens[:bs])
                    if key in claimed:
                        continue  # adopts the representative's capture
                    claimed.add(key)
            kept.append(entry)
        return kept

    def _preempt_row(self, row: int) -> None:
        """Evict a running request to reclaim its slot and blocks.

        The request re-queues at the front with its generated progress
        and private RNG stream intact; only its exclusively-owned blocks
        return to the pool (the shared prefix survives in the store), so
        re-admission restores from the surviving prefix and re-prefills
        just the rest.
        """
        slot = self._slots[row]
        tokens = np.concatenate([slot.request.prompt,
                                 np.asarray(slot.generated, dtype=np.int64)])
        self._queue.appendleft(_QueueEntry(request=slot.request,
                                           tokens=tokens,
                                           generated=slot.generated,
                                           rng=slot.rng))
        self._slots[row] = None
        self._lengths[row] = 0
        self._live.pop(slot.request.request_id, None)
        self._cache.free_rows(np.array([row]))
        self._cache.trim(int(self._lengths.max()))
        if self._spec is not None:
            self._spec.drop_rows(np.array([row]))
        self.stats.preemptions += 1

    def _admit(self) -> list[TokenEvent]:
        """Admit waiting work as the scheduler directs.

        Each round asks the scheduler for an admission list, trims it to
        the block budget, claims slots for it, and lets the claimed rows
        spend the step's prefill budget; when nothing fits (no slots or
        no blocks) the scheduler may name victims to preempt, otherwise
        admission waits for retirements.  Running the prefill inside the
        round loop keeps the one-shot path's same-step pipelining: a
        wave that completes (and captures its prefix) lets deferred
        same-prefix requests re-select as suffix-only prefills within
        this very step.
        """
        events: list[TokenEvent] = []
        while self._queue:
            free = [row for row, slot in enumerate(self._slots)
                    if slot is None]
            view = self._scheduler_view(len(free))
            queue = list(self._queue)
            chosen = (self.scheduler.select(queue, len(free),
                                            view)[:len(free)]
                      if free else [])
            chosen = self._defer_wave_duplicates(chosen)
            chosen = self._fit_to_blocks(chosen, view)
            if not chosen:
                preempted = False
                for rid in self.scheduler.preempt(queue, view):
                    victim_row = self._live.get(rid)
                    if victim_row is not None:
                        self._preempt_row(victim_row)
                        preempted = True
                if not preempted:
                    break
                continue
            self._claim_wave(chosen, free[:len(chosen)])
            events += self._prefill_step()
        return events

    def _claim_wave(self, entries: list[_QueueEntry],
                    rows: list[int]) -> None:
        """Move queue entries into slots, in the *prefilling* state.

        Claiming installs the slot, attaches whatever shared prefix the
        store holds (the adopted blocks are context the row never
        forwards), and books the admission's prompt accounting — but
        forwards nothing: chunk forwards happen in
        :meth:`_prefill_step`, under the step's token budget.
        """
        for entry in entries:
            self._queue.remove(entry)
        for entry, row in zip(entries, rows):
            shared = 0
            if self._prefix is not None:
                shared = self._prefix.attach(row, entry.tokens)
            slot = _Slot(request=entry.request, rng=entry.rng,
                         generated=entry.generated,
                         prefill_tokens=np.asarray(entry.tokens,
                                                   dtype=np.int64),
                         prefill_pos=shared)
            self._slots[row] = slot
            self._lengths[row] = shared
            self._live[entry.request_id] = row
            # prompt_tokens counts context as it is *established* (the
            # adopted prefix now, each chunk as it forwards), so the
            # ``prompt == shared + prefill`` invariant holds at every
            # instant — including across mid-prefill cancels/preempts,
            # whose never-written remainders simply never count.
            self.stats.prompt_tokens += shared
            self.stats.shared_prompt_tokens += shared

    def _prefill_step(self) -> list[TokenEvent]:
        """Advance prefilling rows by one budgeted ragged chunk wave.

        The scheduler's ``prefill_order`` (arrival order if the policy
        has none) ranks the prefilling rows; each row in turn takes
        ``min(remaining prompt, remaining budget)`` tokens — rounded
        down to whole cache blocks unless the grant finishes the prompt
        — until the step's budget is spent.  The granted spans forward
        as one ragged
        wave — written via ``prefill_rows`` and attended block-resident
        over the chunk grid — and rows whose final prompt token lands
        this wave sample their first token, capture their prefix, and
        flip to decoding (the LM head is skipped for every other row via
        negative ``logits_positions``).
        """
        budget = self._prefill_budget
        prefilling = {slot.request.request_id: (row, slot)
                      for row, slot in enumerate(self._slots)
                      if slot is not None and slot.prefilling}
        if not prefilling or (budget is not None and budget < 1):
            return []
        order_fn = getattr(self.scheduler, "prefill_order", None)
        if order_fn is not None:
            view = self._scheduler_view()
            infos = [info for info in view.running
                     if info.request_id in prefilling]
            order = [rid for rid in order_fn(infos, view)
                     if rid in prefilling]
        else:
            order = sorted(prefilling)
        # Non-final grants round down to the cache's block granularity:
        # a chunk that stops mid-block would leave its freshest keys in
        # the FP32 write buffer where the one-shot span has already
        # quantized that block — the quantized backend would then read
        # different values chunked vs one-shot.  The effective per-step
        # budget is at least one block so the head of the order always
        # makes progress.
        grain = self._cache.block_size
        grants: list[tuple[int, _Slot, int]] = []   # (row, slot, take)
        remaining_total = 0
        for rid in order:
            row, slot = prefilling[rid]
            remaining = len(slot.prefill_tokens) - slot.prefill_pos
            remaining_total += remaining
            if budget is None:
                take = remaining
            else:
                take = min(remaining, max(budget, grain if not grants
                                          else 0))
                if take < remaining:
                    take -= take % grain
            if take < 1:
                continue
            grants.append((row, slot, take))
            if budget is not None:
                budget = max(0, budget - take)
        if not grants:
            return []
        granted = sum(take for _, _, take in grants)
        self._prefill_budget = budget
        self.stats.prefill_chunks += len(grants)
        self.stats.prefill_tokens_deferred += remaining_total - granted

        # One ragged wave over the granted spans: row j writes
        # ``take`` tokens after its ``prefill_pos`` established context
        # and attends everything up to each written position.  Rows sit
        # at different depths, so causality is a full per-row mask, not
        # the uniform triangular one.
        cache = self._cache
        rows_arr = np.array([row for row, _, _ in grants], dtype=np.int64)
        starts = np.array([slot.prefill_pos for _, slot, _ in grants],
                          dtype=np.int64)
        widths = np.array([take for _, _, take in grants], dtype=np.int64)
        finishing = np.array([slot.prefill_pos + take
                              >= len(slot.prefill_tokens)
                              for _, slot, take in grants])
        width = int(widths.max())
        n = len(grants)
        tokens = np.zeros((n, width), dtype=np.int64)
        positions = np.zeros((n, width), dtype=np.int64)
        # Clamp padding positions into the RoPE table; padded K/V are
        # never written (prefill_rows writes true lengths only) and
        # padded logits are never computed.
        max_pos = self.model.config.max_seq_len - 1
        offsets = np.arange(width)
        for j, (row, slot, take) in enumerate(grants):
            s = slot.prefill_pos
            tokens[j, :take] = slot.prefill_tokens[s:s + take]
            positions[j] = np.minimum(s + offsets, max_pos)
        total = max(int((starts + widths).max()), cache.seq_len)
        query_pos = starts[:, None] + offsets[None, :]        # (n, width)
        allow = np.arange(total)[None, None, :] <= query_pos[:, :, None]
        kv_mask = additive_mask(allow)[:, None]
        logits_positions = np.where(finishing, widths - 1, -1)

        start_t = time.perf_counter()
        logits = self.model(tokens, cache=cache, cache_rows=rows_arr,
                            cache_lens=widths, cache_starts=starts,
                            positions=positions, kv_mask=kv_mask,
                            logits_positions=logits_positions)
        self.stats.prefill_seconds += time.perf_counter() - start_t
        self.stats.prefill_tokens += granted
        self.stats.prompt_tokens += granted
        self._account_step(rows=n, tokens=granted, prefill_tokens=granted)

        for row, slot, take in grants:
            slot.prefill_pos += take
            self._lengths[row] = slot.prefill_pos

        events: list[TokenEvent] = []
        finish_idx = np.flatnonzero(finishing)
        if len(finish_idx) == 0:
            return events
        done = [grants[i] for i in finish_idx]
        if self._prefix is not None:
            # Index the fully written prompts (before any same-step
            # retirement can release their blocks).  Only the original
            # prompt is captured — a restored request's regenerated
            # continuation is its own, not a reusable prefix.
            for row, slot, _ in done:
                self._prefix.capture(row, slot.request.prompt)
        first = self._sample(logits.data[finish_idx, 0],
                             [slot for _, slot, _ in done])
        for j, (row, slot, _) in enumerate(done):
            token = int(first[j])
            slot.generated.append(token)
            slot.prefill_tokens = None
            self._pending[row] = token
            reason = self._finish_reason(row)
            events.append(TokenEvent(slot.request.request_id, token,
                                     reason))
            if reason is not None:
                self._retire(row, reason)
        return events

    def _finish_reason(self, row: int) -> str | None:
        """Terminal state for the row's newest token, or None to continue."""
        slot = self._slots[row]
        return self._token_finish_reason(slot.request.params,
                                         slot.generated[-1],
                                         len(slot.generated),
                                         int(self._lengths[row]))

    def _token_finish_reason(self, params: SamplingParams, token: int,
                             generated: int, context_len: int) -> str | None:
        """:meth:`_finish_reason` for a token not yet committed to its
        slot: ``generated`` counts the request's tokens *including* this
        one and ``context_len`` is the committed context after it — the
        state a speculative verify is about to commit."""
        if self.eos_token is not None and token == self.eos_token:
            return "eos"
        if token in params.stop_tokens:
            return "stop"
        if generated >= params.max_new_tokens:
            return "length"
        if context_len >= self.model.config.max_seq_len:
            # The next decode would write at position ``context_len``,
            # past the RoPE table (valid positions are < max_seq_len).
            return "max_seq_len"
        return None

    def _retire(self, row: int, reason: str) -> None:
        """Complete the row's request and release its slot and blocks."""
        slot = self._slots[row]
        request = slot.request
        tokens = np.concatenate([request.prompt,
                                 np.asarray(slot.generated, dtype=np.int64)])
        self._finished.append(Completion(request_id=request.request_id,
                                         tokens=tokens,
                                         prompt_len=len(request.prompt),
                                         finish_reason=reason))
        self._slots[row] = None
        self._lengths[row] = 0
        self._live.pop(request.request_id, None)
        # The row's blocks return to the pool immediately so waiting
        # prompts can be admitted into the freed memory.  Trimming the
        # read width to the surviving rows keeps a persistent session from
        # forever reading (and masking) the longest-ever row's width.
        self._cache.free_rows(np.array([row]))
        self._cache.trim(int(self._lengths.max()))
        if self._spec is not None:
            self._spec.drop_rows(np.array([row]))

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def _sample(self, logits: np.ndarray, slots: list[_Slot]) -> np.ndarray:
        """Sample one token per row of ``(batch, vocab)`` logits from
        each slot's params and private RNG stream (see
        :func:`_sample_tokens`)."""
        return _sample_tokens(logits,
                              [slot.request.params for slot in slots],
                              [slot.rng for slot in slots])

    def _sample_with(self, logits: np.ndarray, params: list, rngs: list,
                     return_probs: bool = False):
        """:func:`_sample_tokens` with explicit params/RNGs — the hook
        the speculative decoder uses so draft proposals run the exact
        sampling math the engine itself does (just on the draft's own
        RNG streams)."""
        return _sample_tokens(logits, params, rngs,
                              return_probs=return_probs)
