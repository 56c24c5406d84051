"""GEMM workload extraction from the simulation models.

The accelerator experiments (Table III context, Fig. 9) run the linear
layers of the quantized models as GEMM traces: for a prefill of ``seq``
tokens, every block contributes Q/K/V/O projections and the two FFN
matmuls.  Embeddings and the LM head stay on the host in both designs
(they are not quantized), matching the paper's quantization surface.

:func:`project_decode_trace` closes the loop with the serving engine: a
session run with ``record_trace=True`` produces per-step
``(rows, tokens, kv_bytes, ...)`` tuples — decode steps (one token per
row) and prefill-chunk steps (a ragged multi-token chunk wave) alike —
and the adapter replays each step's linear layers through the six-stage
cycle model (GEMMs have ``N = tokens forwarded``, which for decode *is*
the batch width) plus the step's KV-cache traffic over the DMA lane,
projecting measured serving tokens/sec onto the paper's accelerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.nn.model import ModelConfig


@dataclass(frozen=True)
class GEMMShape:
    """One weight-stationary GEMM: ``(M, K) @ (K, N)``.

    ``M`` = output channels, ``K`` = input channels, ``N`` = tokens.
    """

    name: str
    m: int
    k: int
    n: int

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n

    @property
    def weight_count(self) -> int:
        return self.m * self.k


def block_gemms(config: ModelConfig, seq_len: int) -> list[GEMMShape]:
    """GEMMs of a single transformer block at the given prefill length."""
    d, ff = config.d_model, config.d_ff
    # Names match TransformerLM.quantizable_linears so exact FineQ code
    # magnitudes (repro.hw.codes) can be joined onto the trace.
    return [
        GEMMShape("attn.wq", d, d, seq_len),
        GEMMShape("attn.wk", d, d, seq_len),
        GEMMShape("attn.wv", d, d, seq_len),
        GEMMShape("attn.wo", d, d, seq_len),
        GEMMShape("ffn.up", ff, d, seq_len),
        GEMMShape("ffn.down", d, ff, seq_len),
    ]


def model_gemms(config: ModelConfig, seq_len: int) -> list[GEMMShape]:
    """All quantized GEMMs of a full forward pass (prefill)."""
    gemms = []
    for layer in range(config.num_layers):
        for shape in block_gemms(config, seq_len):
            gemms.append(GEMMShape(f"blocks.{layer}.{shape.name}",
                                   shape.m, shape.k, shape.n))
    return gemms


def total_macs(config: ModelConfig, seq_len: int) -> int:
    return sum(g.macs for g in model_gemms(config, seq_len))


def total_weight_count(config: ModelConfig) -> int:
    return sum(g.weight_count for g in model_gemms(config, seq_len=1))


# ---------------------------------------------------------------------- #
# serving-engine decode traces -> accelerator projection
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class DecodeProjection:
    """Decode throughput projected onto the paper's accelerator.

    ``compute_cycles`` replays every traced step's linear layers through
    the six-stage pipeline model; ``kv_dma_cycles`` streams each step's
    KV-cache bytes over the DMA lane (where the quantized pool's ~4.7x
    smaller footprint per token directly buys cycles).  That 4.7x
    counts the pool alone, not the session's resident KV memory, which
    also holds the FP32 decoded store of sealed blocks (ROADMAP item
    12).  The
    two overlap in the real pipeline no better than their sum's
    bottleneck, so the projection charges them additively — a
    conservative serving-side bound.
    """

    design: str                  # "baseline" (FP16) or "fineq" (2.33-bit)
    clock_mhz: float
    steps: int
    tokens: int
    compute_cycles: int
    kv_dma_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.kv_dma_cycles

    @property
    def seconds(self) -> float:
        return self.total_cycles / (self.clock_mhz * 1e6)

    @property
    def tokens_per_s(self) -> float:
        return self.tokens / self.seconds if self.seconds else 0.0

    def to_dict(self) -> dict:
        return {"design": self.design, "clock_mhz": self.clock_mhz,
                "steps": self.steps, "tokens": self.tokens,
                "compute_cycles": self.compute_cycles,
                "kv_dma_cycles": self.kv_dma_cycles,
                "total_cycles": self.total_cycles,
                "tokens_per_s": self.tokens_per_s}


def decode_step_cycles(config: ModelConfig, batch: int, design: str,
                       pipeline=None) -> int:
    """Pipeline cycles for one serving step forwarding ``batch`` tokens.

    A decode step runs every quantized GEMM with ``N = batch`` (one
    token per row; a prefill-chunk step passes its granted token count
    instead), so the whole forward is ``model_gemms(seq_len = batch)``
    through :func:`repro.hw.cycle_model.simulate_gemm`.
    """
    # Imported lazily: cycle_model imports GEMMShape from this module.
    from repro.hw.cycle_model import PipelineConfig, simulate_gemm

    pipeline = pipeline or PipelineConfig()
    return sum(simulate_gemm(shape, design, pipeline).total_cycles
               for shape in model_gemms(config, seq_len=max(1, batch)))


def project_decode_trace(config: ModelConfig,
                         trace: Iterable,
                         design: str = "fineq",
                         pipeline=None,
                         draft_config: ModelConfig | None = None
                         ) -> DecodeProjection:
    """Project a serving-engine decode trace onto the accelerator.

    ``trace`` is an iterable of the engine's per-step ``StepTrace``
    records, read by field name (``rows``, ``tokens``, ``kv_bytes``,
    ``kv_bytes_streamed``, ``spec_proposed``, ``spec_draft_tokens``,
    ``spec_verify_tokens``).  A step's linear layers run with ``N =
    tokens`` — the batch width on decode steps, the granted chunk
    tokens on prefill-chunk steps — so every forward is charged at its
    real GEMM width; on speculative steps the target forward is
    charged at ``spec_verify_tokens`` (the verify positions actually
    forwarded) while ``tokens`` counts what the step emitted, so
    ``tokens_per_s`` stays tokens a consumer saw.  A non-negative
    ``kv_bytes_streamed`` is the byte count the block-resident read
    actually fetched from cache storage, each sealed block's payload
    once — the DMA lane is charged with it instead of the logical
    gather bytes, so the projection credits reuse of decoded blocks.  Steps
    with equal token width share one cycle simulation, so long traces
    stay cheap.

    ``draft_config`` prices the draft model of a speculative trace on
    the same pipeline: the ``spec_proposed`` tokens are the
    autoregressive proposal loop — ``ceil(proposed / rows)`` sequential
    draft forwards of up to ``rows`` tokens each — and the remainder of
    ``spec_draft_tokens`` is the draft's catch-up over freshly
    committed context, one ragged multi-token forward per step.
    Without it, draft work is not charged (a target-only projection).
    """
    from repro.hw.cycle_model import PipelineConfig

    pipeline = pipeline or PipelineConfig()
    cycles_by_width: dict[int, int] = {}
    draft_cycles_by_width: dict[int, int] = {}

    def draft_forward(width: int) -> int:
        if width not in draft_cycles_by_width:
            draft_cycles_by_width[width] = decode_step_cycles(
                draft_config, width, design, pipeline)
        return draft_cycles_by_width[width]

    steps = tokens = compute = kv_bytes_total = 0
    for step in trace:
        width = step.spec_verify_tokens or step.tokens
        if width not in cycles_by_width:
            cycles_by_width[width] = decode_step_cycles(
                config, width, design, pipeline)
        compute += cycles_by_width[width]
        if draft_config is not None and step.spec_draft_tokens > 0:
            per = max(1, step.rows)
            loop = min(step.spec_proposed, step.spec_draft_tokens)
            widths = [per] * (loop // per)
            if loop % per:
                widths.append(loop % per)
            catchup = step.spec_draft_tokens - loop
            if catchup > 0:
                widths.append(catchup)
            for w in widths:
                compute += draft_forward(w)
        kv_bytes_total += (step.kv_bytes_streamed
                           if step.kv_bytes_streamed >= 0 else step.kv_bytes)
        tokens += step.tokens
        steps += 1
    kv_dma = -(-kv_bytes_total // int(pipeline.dma_bytes_per_cycle))
    return DecodeProjection(design=design, clock_mhz=pipeline.clock_mhz,
                            steps=steps, tokens=tokens,
                            compute_cycles=int(compute),
                            kv_dma_cycles=int(kv_dma))
