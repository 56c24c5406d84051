"""Micro-benchmarks of the core kernels (true pytest-benchmark timing).

These measure the software pipeline itself — quantization, packing,
decoding, temporal matmul — rather than regenerating a paper artifact.
"""

import time

import numpy as np
import pytest

from repro.core import FineQQuantizer, pack_matrix, unpack_matrix
from repro.core.clusters import cluster_weights
from repro.core.encoding import encode_channels_stepwise
from repro.core.packing import (decode_payload, decode_payload_bitwise,
                                pack_matrix_bitwise)
from repro.hw import TemporalCodingArray
from repro.quant import get_quantizer


@pytest.fixture(scope="module")
def big_weight():
    gen = np.random.default_rng(0)
    weight = gen.standard_normal((512, 512)).astype(np.float64) * 0.05
    weight[:, gen.choice(512, 10, replace=False)] *= 9.0
    return weight


def test_bench_fineq_quantize(benchmark, big_weight):
    quantizer = FineQQuantizer()
    dequantized, record = benchmark(quantizer.quantize_weight, big_weight)
    assert 2.3 < record.avg_bits < 2.5


def test_bench_rtn_quantize(benchmark, big_weight):
    quantizer = get_quantizer("rtn", bits=2)
    dequantized, _ = benchmark(quantizer.quantize_weight, big_weight)
    assert dequantized.shape == big_weight.shape


def test_bench_pack(benchmark, big_weight):
    quantizer = FineQQuantizer(channel_axis="output")
    _, artifacts = quantizer.quantize_with_artifacts(big_weight)
    packed = benchmark(pack_matrix, artifacts["codes"], artifacts["schemes"],
                       artifacts["scales"], big_weight.shape)
    assert packed.bits_per_weight < 2.5


def test_bench_unpack(benchmark, big_weight):
    quantizer = FineQQuantizer(channel_axis="output")
    _, artifacts = quantizer.quantize_with_artifacts(big_weight)
    packed = pack_matrix(artifacts["codes"], artifacts["schemes"],
                         artifacts["scales"], big_weight.shape)
    codes, _, _ = benchmark(unpack_matrix, packed)
    assert np.array_equal(codes, artifacts["codes"])


def test_bench_payload_decode_lut(benchmark, big_weight):
    """Time the production (LUT) payload decode on a packed 512x512 matrix."""
    quantizer = FineQQuantizer(channel_axis="output")
    _, artifacts = quantizer.quantize_with_artifacts(big_weight)
    packed = pack_matrix(artifacts["codes"], artifacts["schemes"],
                         artifacts["scales"], big_weight.shape)
    codes, _ = benchmark(decode_payload, packed.payload)
    assert np.array_equal(codes[:, :packed.num_clusters], artifacts["codes"])


def test_lut_decode_faster_than_bitwise_reference(big_weight):
    """The 64-entry pattern LUT must beat the per-bit unpackbits decode.

    Reported as a speedup so a regression in the hot unpack path (the
    serving engine's quantized-KV reads sit on it) fails loudly.  Timing
    is best-of-5 with re-measurement for scheduler noise.
    """
    quantizer = FineQQuantizer(channel_axis="output")
    _, artifacts = quantizer.quantize_with_artifacts(big_weight)
    packed = pack_matrix(artifacts["codes"], artifacts["schemes"],
                         artifacts["scales"], big_weight.shape)

    def best_of(fn, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn(packed.payload)
            best = min(best, time.perf_counter() - start)
        return best

    decode_payload(packed.payload)          # warm both paths
    decode_payload_bitwise(packed.payload)
    speedup = 0.0
    for attempt in range(3):
        speedup = max(speedup,
                      best_of(decode_payload_bitwise) / best_of(decode_payload))
        if speedup >= 1.5:
            break
    print(f"\npayload decode: LUT is {speedup:.1f}x the bitwise reference")
    assert speedup >= 1.5, f"LUT decode only {speedup:.2f}x vs bitwise"


def test_block_resident_fineq_decode_beats_gather_at_1024_context():
    """Fused block-resident decode must beat gather-everything >= 1.5x.

    One decode step's attention reads at a 1024-token context, batch 16,
    on llama-sim-7b-shaped layers (5 layers, 4 heads, head_dim 32): the
    baseline re-gathers and re-dequantizes every owned block of every
    row per layer (the tests' dense-gather oracle), the fused path
    iterates ``context_blocks`` through the warm dequant memo.  Timing
    is best-of with re-measurement, like the LUT decode benchmark above.
    """
    from repro.nn.block_attention import block_decode_attention
    from repro.nn.paged_kv_cache import QuantizedPagedKVCache
    from tests.kv_oracle import dense_context

    layers, batch, heads, head_dim, bs = 5, 16, 4, 32, 16
    context = 1024
    rng = np.random.default_rng(42)
    cache = QuantizedPagedKVCache(layers, batch=batch, block_size=bs)
    rows = np.arange(batch)
    for layer in range(layers):
        k = rng.standard_normal((batch, heads, context, head_dim)) \
            .astype(np.float32)
        v = rng.standard_normal((batch, heads, context, head_dim)) \
            .astype(np.float32)
        cache.prefill_rows(layer, k, v, rows, np.zeros(batch, dtype=np.int64),
                           np.full(batch, context))
    q = rng.standard_normal((batch, heads, 1, head_dim)).astype(np.float32)
    kv_mask = np.zeros((batch, 1, 1, context), dtype=np.float32)
    scale = np.float32(1.0 / np.sqrt(head_dim))

    def gather_step():
        for layer in range(layers):
            k, v = dense_context(cache, layer)
            scores = (q @ k.transpose(0, 1, 3, 2)) * scale + kv_mask
            shifted = scores - scores.max(axis=-1, keepdims=True)
            exp = np.exp(shifted)
            out = (exp / exp.sum(axis=-1, keepdims=True)) @ v
        return out

    def fused_step():
        for layer in range(layers):
            out = block_decode_attention(q, cache, layer, kv_mask=kv_mask)
        return out

    # Warm both paths (BLAS, the dequant memo) and check they agree.
    reference, fused = gather_step(), fused_step()
    np.testing.assert_allclose(fused, reference, rtol=0, atol=1e-5)

    def best_of(fn, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    speedup = 0.0
    for attempt in range(3):
        speedup = max(speedup, best_of(gather_step) / best_of(fused_step))
        if speedup >= 1.5:
            break
    print(f"\nfineq decode step: block-resident is {speedup:.1f}x the "
          f"gather path at a {context}-token context")
    assert speedup >= 1.5, f"block-resident only {speedup:.2f}x vs gather"


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("blocks", [2, 20])
def test_fused_flush_kernel_faster_than_stepwise_reference(blocks):
    """The fused encode+pack flush must beat Algorithm 1 line by line.

    ``quantize_kv_block`` on 7b-shaped K/V blocks (4 heads x 32 dims, 16
    tokens) — 2 blocks is the parent's per-layer, per-operand flush of a
    boundary crossing, 20 the all-layer flush of two rows — against the
    step functions plus the per-bit packer, same bytes out.  A ratio, so
    a regression in the serving write path fails loudly on any machine.
    """
    from repro.nn.paged_kv_cache import quantize_kv_block

    rng = np.random.default_rng(blocks)
    data = rng.standard_normal((blocks, 4, 16, 32)).astype(np.float32)
    data[..., rng.integers(32, size=3)] *= 10.0   # channel outliers

    def stepwise():
        matrix = data.transpose(0, 1, 3, 2).reshape(-1, 16)
        clusters, _ = cluster_weights(matrix)
        codes, schemes, scales = encode_channels_stepwise(clusters)
        return pack_matrix_bitwise(codes, schemes, scales.reshape(-1),
                                   matrix.shape)

    reference = stepwise()                  # warms both paths, too
    payload, scales = quantize_kv_block(data)
    assert payload.tobytes() == reference.payload.tobytes()
    assert scales.tobytes() == reference.scales.tobytes()
    speedup = 0.0
    for attempt in range(3):
        speedup = max(speedup, _best_of(stepwise)
                      / _best_of(lambda: quantize_kv_block(data)))
        if speedup >= 1.5:
            break
    print(f"\nflush kernel at {blocks} blocks: fused is {speedup:.1f}x the "
          "step-function reference")
    assert speedup >= 1.5, f"fused flush only {speedup:.2f}x vs stepwise"


def test_fineq_decode_within_2p2x_of_paged_at_short_context(zoo_7b):
    """The short-context tax of 2.33-bit KV, as a tracked ratio.

    Batch 16, 12-token prompts, 64 new tokens on llama-sim-7b: the model
    work is identical on both backends, so decode tok/s on ``"paged"``
    over ``"fineq"`` is what the write buffer, flush-quantize and chunk
    assembly cost (2.7x before the fused, all-layer, written-through
    flush).  Best-of with re-measurement, like the ratios above.
    """
    from repro.serve import GenerationEngine

    model = zoo_7b.model
    rng = np.random.default_rng(0)
    prompts = [rng.integers(0, model.config.vocab_size, size=12)
               for _ in range(16)]

    def decode_seconds(kv_cache):
        engine = GenerationEngine(model, max_batch_size=16, kv_cache=kv_cache)
        engine.generate_batch(prompts, 64)
        return engine.stats.decode_seconds

    for kv_cache in ("paged", "fineq"):     # warm BLAS, masks, rope
        decode_seconds(kv_cache)
    ratio = float("inf")
    for attempt in range(3):
        ratio = min(ratio, min(decode_seconds("fineq") for _ in range(2))
                    / min(decode_seconds("paged") for _ in range(2)))
        if ratio <= 2.2:
            break
    print(f"\nshort-context decode: fineq is {ratio:.2f}x paged's time")
    assert ratio <= 2.2, f"fineq decode {ratio:.2f}x slower than paged"


def test_prefill_wave_within_7_decode_steps(zoo_7b):
    """A span's projections run as one ``(rows * seq, d)`` GEMM.

    One 16-row x 12-token prefill wave on llama-sim-7b (a budget that
    fits it whole) against one decode step of the same batch: ~5 steps
    as flattened GEMMs, 8.3-9.1 as numpy's one GEMM per row (2-core
    AVX-512, OpenBLAS SkylakeX).  Best-of with re-measurement, like the
    ratios above, so a regression to per-row GEMMs fails on any machine.
    """
    from repro.serve import GenerationEngine

    model = zoo_7b.model
    rng = np.random.default_rng(0)
    prompts = [rng.integers(0, model.config.vocab_size, size=12)
               for _ in range(16)]

    def wave_in_steps():
        engine = GenerationEngine(model, max_batch_size=16,
                                  prefill_chunk_tokens=16 * 12)
        engine.generate_batch(prompts, 17)
        stats = engine.stats
        return stats.prefill_seconds / (stats.decode_seconds
                                        / stats.decode_steps)

    wave_in_steps()                         # warm BLAS, masks, rope
    ratio = float("inf")
    for attempt in range(3):
        ratio = min(ratio, min(wave_in_steps() for _ in range(3)))
        if ratio <= 7.0:
            break
    print(f"\nprefill wave: {ratio:.1f} decode steps of the same batch")
    assert ratio <= 7.0, f"16x12 prefill wave costs {ratio:.1f} decode steps"


def test_bench_temporal_matmul(benchmark):
    gen = np.random.default_rng(1)
    weights = gen.integers(-3, 4, size=(128, 128))
    activations = gen.standard_normal((128, 64))
    array = TemporalCodingArray()
    result = benchmark(array.run, weights, activations)
    np.testing.assert_allclose(result.output, weights @ activations)
