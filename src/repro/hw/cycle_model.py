"""Cycle-level model of the six-stage FineQ pipeline (paper Sec. IV-A).

Stages: (1) off-chip DMA in, (2) decode, (3) input preload, (4) matrix
multiply, (5) vector processing, (6) DMA write-back.  Tiles stream
through the pipeline, so total latency is the bottleneck stage's total
plus a fill term — the standard throughput model for tiled accelerators.

The baseline design shares every stage except decode (bypassed) and
consumes FP16 weights; the FineQ design consumes the packed 2.33-bit
format and spends 1-3 matmul cycles per weight row chunk (temporal
coding with early termination).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.array import TemporalCodingArray
from repro.hw.systolic import BaselineSystolicArray
from repro.hw.decoder import FineQStreamDecoder
from repro.hw.workloads import GEMMShape

#: Packed FineQ weight bits per weight (7 bytes / 24 weights).
FINEQ_BITS_PER_WEIGHT = 7.0 * 8.0 / 24.0
FP16_BITS = 16.0


@dataclass(frozen=True)
class PipelineConfig:
    """Shared machine parameters (both designs)."""

    array_rows: int = 64
    array_cols: int = 64
    num_decoders: int = 64
    # Sized so the MAC baseline is not DMA-starved: a 64-wide array
    # consumes 64 FP16 weights (128 B) per cycle.
    dma_bytes_per_cycle: float = 128.0
    vector_lanes: int = 64
    clock_mhz: float = 400.0


@dataclass
class CycleReport:
    """Per-stage cycle totals for one GEMM."""

    design: str
    stage_cycles: dict[str, int] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        """Pipelined latency: bottleneck total + fill by the other stages."""
        peak = max(self.stage_cycles.values())
        fill = sum(self.stage_cycles.values()) - peak
        # Fill amortises over tiles; charge 1/8 of the residual stages.
        return int(peak + fill / 8)

    def runtime_us(self, clock_mhz: float) -> float:
        return self.total_cycles / clock_mhz


def _expected_row_chunk_cycles(outlier_cluster_ratio: float,
                               chunk_weights: int) -> float:
    """Expected temporal cycles for one row chunk without explicit codes.

    A chunk costs 3 cycles if it contains any 3-bit (outlier) cluster,
    else 1 cycle (all magnitudes <= 1).  Clusters are 3 weights.
    """
    clusters = max(1, chunk_weights // 3)
    p_no_outlier = (1.0 - outlier_cluster_ratio) ** clusters
    return 3.0 * (1.0 - p_no_outlier) + 1.0 * p_no_outlier


def simulate_gemm(shape: GEMMShape, design: str,
                  config: PipelineConfig | None = None,
                  code_magnitudes: np.ndarray | None = None,
                  outlier_cluster_ratio: float = 0.15) -> CycleReport:
    """Cycle totals for one GEMM on ``design`` ("baseline" or "fineq").

    For FineQ, ``code_magnitudes`` (an ``(M, K)`` |code| matrix from the
    quantizer artifacts) gives exact temporal cycle counts; without it an
    expectation based on ``outlier_cluster_ratio`` is used.
    """
    config = config or PipelineConfig()
    if design not in ("baseline", "fineq"):
        raise ValueError(f"unknown design {design!r}")

    k_tiles = -(-shape.k // config.array_rows)
    n_tiles = -(-shape.n // config.array_cols)
    activation_bytes = shape.k * shape.n * 2
    output_bytes = shape.m * shape.n * 2  # FP16 partial sums written back

    report = CycleReport(design=design)
    if design == "baseline":
        weight_bytes = shape.weight_count * FP16_BITS / 8
        matmul = BaselineSystolicArray(
            config.array_rows, config.array_cols).compute_cycles(
                shape.m, shape.k, shape.n)
        decode = 0
    else:
        weight_bytes = shape.weight_count * FINEQ_BITS_PER_WEIGHT / 8
        if code_magnitudes is not None:
            array = TemporalCodingArray(config.array_rows, config.array_cols)
            matmul = array.compute_cycles(code_magnitudes) * n_tiles
        else:
            per_chunk = _expected_row_chunk_cycles(
                outlier_cluster_ratio, min(config.array_rows, shape.k))
            matmul = int(round(shape.m * k_tiles * n_tiles * per_chunk))
        total_clusters = shape.m * (-(-shape.k // 3))
        decode = -(-total_clusters // config.num_decoders)

    report.stage_cycles = {
        "dma_in": int(np.ceil((weight_bytes + activation_bytes)
                              / config.dma_bytes_per_cycle)),
        "decode": decode,
        "preload": k_tiles * config.array_rows * n_tiles,
        "matmul": int(matmul),
        "vector": int(np.ceil(shape.m * shape.n / config.vector_lanes)),
        "writeback": int(np.ceil(output_bytes / config.dma_bytes_per_cycle)),
    }
    return report
