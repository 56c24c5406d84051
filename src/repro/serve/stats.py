"""Session accounting: :class:`EngineStats` counters and the per-step
:class:`StepTrace` records the accelerator projection replays."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

@dataclass
class EngineStats:
    """Token/time accounting for throughput reporting.

    Prefill counters are *per admission*, counted as context lands:
    ``shared_prompt_tokens`` is what admissions adopted from cached
    prefixes (at claim time), ``prefill_tokens`` what they forwarded
    through the model (chunk by chunk), and :attr:`prompt_tokens` their
    sum, the context admissions established.
    A preempted request's restore is a second admission (its prompt plus
    generated progress count again), and a request cancelled or
    preempted mid chunked prefill contributes only what it wrote — the
    counters track prefill work done and avoided, not unique
    submissions.
    """

    prefill_tokens: int = 0
    prefill_seconds: float = 0.0
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
    # head_dim) gather) and the sealed blocks the quantized cache's
    # reads gathered from its decoded store (every read is a hit, so the
    # misses read 0; the rate arithmetic that divides by both stays).
    decode_peak_scratch_bytes: int = 0
    dequant_cache_hits: int = 0
    dequant_cache_misses: int = 0
    # Quantized-cache write path: flush-quantize kernel calls and the K/V
    # blocks they encoded (prefill spans, decode boundary crossings and
    # prefix freezes alike); the quotient is the flush batching factor.
    kv_flush_calls: int = 0
    kv_flush_blocks: int = 0
    # Chunked prefill: forwarded chunk count, prompt tokens that waited
    # for a later step's budget, and the decoded-store reads of prefill
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
    def prompt_tokens(self) -> int:
        """Context admissions established: adopted plus forwarded."""
        return self.shared_prompt_tokens + self.prefill_tokens

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
        decoded store instead of re-running LUT dequantization: 1.0
        whenever a sealed block was read."""
        lookups = self.dequant_cache_hits + self.dequant_cache_misses
        return self.dequant_cache_hits / lookups if lookups else 0.0

    @property
    def prefill_dequant_hit_rate(self) -> float:
        """Fraction of quantized-block *prefill* context reads served
        from the decoded store (1.0 whenever one was read)."""
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
    cache storage — one quantized payload per block sealed, when it is
    decoded into the store, and the live FP32 tokens of current blocks
    read, with reads of sealed blocks streaming nothing — so the
    accelerator projection credits the dequant reuse (``-1`` means
    "same as ``kv_bytes``").  ``repro.hw.workloads`` reads the fields by
    name and imports nothing from here.

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
