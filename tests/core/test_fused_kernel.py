"""The fused encode+pack kernels equal the step-function reference.

``encode_channels`` and ``pack_matrix`` are the production kernels of
both the weight quantizer and the quantized KV cache; the step functions
(``initial_schemes`` -> ``channel_scales`` -> ``harmonize_pairs`` ->
``quantize_codes``, composed by ``encode_channels_stepwise``) and the
per-bit ``pack_matrix_bitwise`` are Algorithm 1 line by line.  Every
stored byte — payload and FP16 scale bits — must agree between the two
on the channels where a reordered sum, a different tie-break or a
rounding shortcut would show.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clusters import cluster_weights, initial_schemes
from repro.core.encoding import encode_channels, encode_channels_stepwise
from repro.core.packing import (pack_matrix, pack_matrix_bitwise,
                                unpack_matrix)

#: Channel lengths: not divisible by 3 or by 24, KV block sizes (8, 16,
#: 20), an odd trailing cluster (15 -> 5 clusters), exact groups (24, 48).
LENGTHS = (1, 2, 3, 4, 5, 7, 8, 15, 16, 20, 23, 24, 25, 47, 48)


def _threshold(rng, rows, cols):
    """Clusters sitting exactly on the outlier rule: max == 4 * min."""
    base = rng.integers(1, 9, size=(rows, -(-cols // 3), 1)) * 0.125
    cluster = base * rng.permuted(
        np.broadcast_to([4.0, 1.0, 2.0], base.shape[:2] + (3,)), axis=-1)
    signs = rng.choice([-1.0, 1.0], size=cluster.shape)
    return (cluster * signs).reshape(rows, -1)[:, :cols]


def _ties(rng, rows, cols):
    """Equal magnitudes inside a cluster, signs free: argmin/argmax ties."""
    mags = rng.choice([0.0, 0.25, 1.0, 4.0], size=(rows, -(-cols // 3), 1))
    signs = rng.choice([-1.0, 1.0], size=mags.shape[:2] + (3,))
    return (mags * signs).reshape(rows, -1)[:, :cols]


def _half_grid(rng, rows, cols):
    """Values on .5 of the grid: the channel peak pins the scale to 1
    (peak 3, an outlier cluster) or to 0.5 (peak 0.5, none)."""
    values = rng.integers(-6, 7, size=(rows, cols)) * 0.5
    values[:, 0] = 3.0
    flat = rng.random(rows) < 0.5
    values[flat] = rng.integers(-2, 3, size=(int(flat.sum()), cols)) * 0.25
    return values


def _signed_zeros(rng, rows, cols):
    values = rng.standard_normal((rows, cols))
    values[rng.random(values.shape) < 0.4] = 0.0
    values[rng.random(values.shape) < 0.3] *= -1.0  # plants -0.0 too
    return values


def _huge_outlier(rng, rows, cols):
    values = rng.standard_normal((rows, cols)) * 1e-3
    values[rng.integers(rows), rng.integers(cols)] = \
        rng.choice([6e4, -6e4, 1e3])   # scales stay inside FP16
    return values


CHANNELS = {
    "gaussian": lambda rng, rows, cols: rng.standard_normal((rows, cols)),
    "float32": lambda rng, rows, cols: rng.standard_normal(
        (rows, cols)).astype(np.float32),
    "all_zero": lambda rng, rows, cols: np.zeros((rows, cols)),
    "threshold": _threshold,
    "ties": _ties,
    "half_grid": _half_grid,
    "signed_zeros": _signed_zeros,
    "huge_outlier": _huge_outlier,
}


def assert_bit_identical(matrix, outlier_ratio=4.0, harmonize=True):
    clusters, _ = cluster_weights(matrix)
    want = encode_channels_stepwise(clusters, outlier_ratio, harmonize)
    got = encode_channels(clusters, outlier_ratio, harmonize)
    for reference, fused in zip(want, got):
        assert fused.dtype == reference.dtype
        assert fused.shape == reference.shape
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2].tobytes() == want[2].tobytes()

    packed_want = pack_matrix_bitwise(want[0], want[1], want[2].reshape(-1),
                                      matrix.shape)
    packed = pack_matrix(got[0], got[1], got[2].reshape(-1), matrix.shape)
    assert packed.payload.dtype == np.uint8
    assert packed.payload.flags.c_contiguous
    assert packed.payload.tobytes() == packed_want.payload.tobytes()
    assert packed.payload.shape == packed_want.payload.shape
    assert packed.scales.tobytes() == packed_want.scales.tobytes()
    # C-ordered artifacts (as a caller might rebuild them) pack the same.
    again = pack_matrix(np.ascontiguousarray(want[0]),
                        np.ascontiguousarray(want[1]),
                        want[2].reshape(-1), matrix.shape)
    assert again.payload.tobytes() == packed_want.payload.tobytes()
    if harmonize:   # the format only represents harmonized pairs
        codes, schemes, _ = unpack_matrix(packed)
        np.testing.assert_array_equal(codes, want[0])
        np.testing.assert_array_equal(schemes, want[1])


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(CHANNELS)), rows=st.integers(1, 9),
       cols=st.sampled_from(LENGTHS), seed=st.integers(0, 10_000),
       harmonize=st.booleans())
def test_fused_equals_stepwise_on_adversarial_channels(kind, rows, cols,
                                                       seed, harmonize):
    rng = np.random.default_rng(seed)
    assert_bit_identical(CHANNELS[kind](rng, rows, cols),
                         harmonize=harmonize)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(1e-6, 1e4),
       ratio=st.sampled_from([2.0, 4.0, 8.0]))
def test_fused_equals_stepwise_across_scales_and_ratios(seed, scale, ratio):
    rng = np.random.default_rng(seed)
    assert_bit_identical(rng.standard_normal((5, 21)) * scale,
                         outlier_ratio=ratio)


def test_harmonization_that_strips_a_channels_last_outlier():
    """A channel whose only outlier cluster harmonizes to scheme 0 moves
    to the 2-bit Eq. 1 scale; the fused kernel re-rounds that channel."""
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(400):
        matrix = rng.standard_normal((4, 12)) * 0.2 + 1.0
        matrix[:, 4] = rng.choice([0.2, 0.24, 0.3], size=4)
        clusters, _ = cluster_weights(matrix)
        _, schemes, _ = encode_channels_stepwise(clusters)
        stripped = ((initial_schemes(clusters) > 0).any(axis=1)
                    & ~(schemes > 0).any(axis=1))
        hits += int(stripped.sum())
        assert_bit_identical(matrix)
    assert hits > 0   # the scenario actually occurred


@pytest.mark.parametrize("block", [8, 16, 20])
def test_kv_shaped_channels_at_block_sizes(block):
    """7b-shaped K/V channels (128 per block) at each block size."""
    rng = np.random.default_rng(block)
    matrix = rng.standard_normal((256, block)).astype(np.float32)
    matrix[rng.integers(256, size=20), rng.integers(block, size=20)] *= 30.0
    assert_bit_identical(matrix)
