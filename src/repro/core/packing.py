"""Byte-exact packed memory format (paper Fig. 4 step 5).

Every cluster occupies exactly 6 data bits regardless of scheme:

* scheme ``00``: three 2-bit sign-magnitude fields
  ``[s0 m0 s1 m1 s2 m2]`` with magnitudes in {0, 1};
* schemes ``01/10/11``: two 3-bit sign-magnitude fields for the surviving
  positions (in ascending position order)
  ``[sa ma1 ma0 sb mb1 mb0]`` with magnitudes in {0..3}.

Rows are padded to groups of eight clusters; each group is stored as one
index byte (four 2-bit pair indices) followed by six data bytes — the
paper's aligned layout of 7 bytes per 24 weights (2.333 bits/weight),
plus one FP16 scale per channel.

``pack_matrix`` / ``unpack_matrix`` round-trip exactly (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Surviving positions (ascending) for outlier schemes indexed by the
#: zeroed position: zero pos 0 -> keep (1, 2), 1 -> (0, 2), 2 -> (0, 1).
_KEEP_A = np.array([1, 0, 0])
_KEEP_B = np.array([2, 2, 1])

CLUSTERS_PER_GROUP = 8
GROUP_DATA_BYTES = 6
GROUP_BYTES = 1 + GROUP_DATA_BYTES  # index byte + data bytes


@dataclass
class PackedMatrix:
    """A FineQ-packed weight matrix."""

    shape: tuple[int, int]           # original (rows, cols)
    num_clusters: int                # clusters per row before group padding
    scales: np.ndarray               # (rows,) float16 channel scales
    payload: np.ndarray              # (rows, groups * GROUP_BYTES) uint8

    @property
    def total_bytes(self) -> int:
        """Stored bytes: payload plus FP16 scales."""
        return self.payload.size + 2 * self.shape[0]

    @property
    def bits_per_weight(self) -> float:
        return 8.0 * self.total_bytes / (self.shape[0] * self.shape[1])


def _cluster_bits(codes: np.ndarray, schemes: np.ndarray) -> np.ndarray:
    """Encode ``(n, 3)`` codes + ``(n,)`` schemes into ``(n, 6)`` bits."""
    signs = (codes < 0).astype(np.uint8)
    mags = np.abs(codes).astype(np.uint8)

    # Normal layout: [s0 m0 s1 m1 s2 m2].
    normal = np.empty((codes.shape[0], 6), dtype=np.uint8)
    normal[:, 0::2] = signs
    normal[:, 1::2] = mags

    # Outlier layout: two 3-bit fields for surviving positions.
    zero_pos = np.clip(schemes - 1, 0, 2)
    pos_a = _KEEP_A[zero_pos][:, None]
    pos_b = _KEEP_B[zero_pos][:, None]
    sign_a = np.take_along_axis(signs, pos_a, axis=1)[:, 0]
    mag_a = np.take_along_axis(mags, pos_a, axis=1)[:, 0]
    sign_b = np.take_along_axis(signs, pos_b, axis=1)[:, 0]
    mag_b = np.take_along_axis(mags, pos_b, axis=1)[:, 0]
    outlier = np.stack([sign_a, (mag_a >> 1) & 1, mag_a & 1,
                        sign_b, (mag_b >> 1) & 1, mag_b & 1], axis=1)

    is_outlier = (schemes > 0)[:, None]
    return np.where(is_outlier, outlier, normal).astype(np.uint8)


def _bits_to_clusters(bits: np.ndarray, schemes: np.ndarray) -> np.ndarray:
    """Decode ``(n, 6)`` bits + schemes back to ``(n, 3)`` integer codes.

    Reference per-bit implementation; the hot path decodes through
    :data:`_DECODE_LUT` (built from this function) instead.
    """
    n = bits.shape[0]
    codes = np.zeros((n, 3), dtype=np.int64)

    normal_mags = bits[:, 1::2].astype(np.int64)
    normal_signs = bits[:, 0::2].astype(np.int64)
    normal = np.where(normal_signs == 1, -normal_mags, normal_mags)

    mag_a = (bits[:, 1].astype(np.int64) << 1) | bits[:, 2]
    mag_b = (bits[:, 4].astype(np.int64) << 1) | bits[:, 5]
    val_a = np.where(bits[:, 0] == 1, -mag_a, mag_a)
    val_b = np.where(bits[:, 3] == 1, -mag_b, mag_b)

    zero_pos = np.clip(schemes - 1, 0, 2)
    outlier = np.zeros((n, 3), dtype=np.int64)
    rows = np.arange(n)
    outlier[rows, _KEEP_A[zero_pos]] = val_a
    outlier[rows, _KEEP_B[zero_pos]] = val_b

    is_outlier = (schemes > 0)[:, None]
    return np.where(is_outlier, outlier, normal)


def _build_decode_lut() -> np.ndarray:
    """``(4, 64, 3)`` table: integer codes for every (scheme, 6-bit pattern).

    There are only 64 possible data-bit patterns per cluster and 4 schemes,
    so the whole decode space is enumerated once at import through the
    reference :func:`_bits_to_clusters` and decoding becomes a single fancy
    index instead of per-bit arithmetic.
    """
    patterns = np.arange(64)
    bits = ((patterns[:, None] >> np.arange(5, -1, -1)[None, :]) & 1).astype(np.uint8)
    lut = np.empty((4, 64, 3), dtype=np.int8)
    for scheme in range(4):
        lut[scheme] = _bits_to_clusters(bits, np.full(64, scheme, dtype=np.int64))
    return lut


#: Codes for every (scheme, 6-bit cluster pattern); the decode hot path.
_DECODE_LUT = _build_decode_lut()


def decode_payload(payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode packed group bytes via the pattern lookup table.

    ``payload`` is ``(rows, groups * GROUP_BYTES)`` uint8 in the
    :func:`pack_matrix` layout; returns ``(codes, schemes)`` of shapes
    ``(rows, groups * 8, 3)`` (int8) and ``(rows, groups * 8)`` (uint8),
    group padding still included.  6-bit cluster patterns are reassembled
    with byte shifts (three data bytes hold four clusters) and looked up
    in :data:`_DECODE_LUT`, replacing the per-bit ``unpackbits``/``where``
    decode (see the micro-benchmark in ``benchmarks/test_kernels.py``).
    All arithmetic stays in uint8 — every intermediate fits in 6 bits, so
    the quantized-KV hot path never materialises widened copies.
    """
    rows = payload.shape[0]
    grouped = np.ascontiguousarray(payload).reshape(rows, -1, GROUP_BYTES)

    index = grouped[:, :, 0]
    pairs = np.stack([(index >> 6) & 3, (index >> 4) & 3,
                      (index >> 2) & 3, index & 3], axis=-1)
    schemes = np.repeat(pairs.reshape(rows, -1), 2, axis=1)

    data = grouped[:, :, 1:].reshape(rows, -1, 2, 3)  # two byte-triplets/group
    b0, b1, b2 = data[..., 0], data[..., 1], data[..., 2]
    patterns = np.stack([b0 >> 2,
                         ((b0 & 0x03) << 4) | (b1 >> 4),
                         ((b1 & 0x0F) << 2) | (b2 >> 6),
                         b2 & 0x3F], axis=-1).reshape(rows, -1)

    codes = _DECODE_LUT[schemes, patterns]
    return codes, schemes


def decode_payload_bitwise(payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: per-bit reference decode (the pre-LUT implementation).

    Kept for the equivalence property test and as the baseline of the
    pack/unpack micro-benchmark; production decode is :func:`decode_payload`.
    """
    rows = payload.shape[0]
    grouped = payload.reshape(rows, -1, GROUP_BYTES)
    groups = grouped.shape[1]
    padded = groups * CLUSTERS_PER_GROUP

    index_bytes = grouped[:, :, 0]
    pair_bits = np.unpackbits(np.ascontiguousarray(index_bytes), axis=1)
    pair_schemes = ((pair_bits[:, 0::2].astype(np.int64) << 1)
                    | pair_bits[:, 1::2])[:, :padded // 2]
    schemes = np.repeat(pair_schemes, 2, axis=1)

    data_bytes = grouped[:, :, 1:].reshape(rows, groups * GROUP_DATA_BYTES)
    bits = np.unpackbits(np.ascontiguousarray(data_bytes), axis=1).reshape(-1, 6)
    codes = _bits_to_clusters(bits, schemes.reshape(-1)).reshape(rows, padded, 3)
    return codes, schemes


def _build_encode_lut() -> np.ndarray:
    """Flat ``(4 * 343,)`` table: the 6-bit data pattern of every
    ``(scheme, code triple)``, codes on the ``-3..3`` grid.

    The mirror image of :data:`_DECODE_LUT`: enumerated once at import
    through the reference :func:`_cluster_bits` (a non-zero bit value
    sets the bit, as ``np.packbits`` reads it), so packing becomes one
    table lookup instead of per-bit ``take_along_axis``/``packbits``.
    Entry ``((scheme * 7 + c0 + 3) * 7 + c1 + 3) * 7 + c2 + 3``.
    """
    grid = np.arange(-3, 4)
    triples = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"),
                       axis=-1).reshape(-1, 3)
    place = 1 << np.arange(5, -1, -1)
    lut = np.empty((4, len(triples)), dtype=np.uint8)
    for scheme in range(4):
        bits = _cluster_bits(triples, np.full(len(triples), scheme))
        lut[scheme] = (bits != 0) @ place
    return lut.reshape(-1)


#: Data pattern for every (scheme, code triple); the encode hot path.
_ENCODE_LUT = _build_encode_lut()
#: Offset that moves a ``-3..3`` code triple onto the table's 0..342 range.
_ENCODE_BIAS = (3 * 7 + 3) * 7 + 3


def pack_matrix(codes: np.ndarray, schemes: np.ndarray, scales: np.ndarray,
                shape: tuple[int, int]) -> PackedMatrix:
    """Pack quantization artifacts into the aligned byte format.

    ``codes``: ``(rows, clusters, 3)`` on the ``-3..3`` grid; ``schemes``:
    ``(rows, clusters)`` with harmonized pairs; ``scales``: ``(rows,)``;
    ``shape`` is the original matrix shape (for unpadding on decode).

    Every cluster's 6 data bits come out of :data:`_ENCODE_LUT`; four
    patterns then shift into three data bytes and four pair indices into
    one index byte (the inverse of :func:`decode_payload`'s byte
    arithmetic).  Work is laid out clusters-major, channels innermost —
    the layout :func:`repro.core.encoding.encode_channels` hands over —
    so every shift runs across whole channel vectors.
    """
    rows, num_clusters, _ = codes.shape
    padded = num_clusters + (-num_clusters) % CLUSTERS_PER_GROUP
    groups = padded // CLUSTERS_PER_GROUP
    c0, c1, c2 = codes.transpose(2, 1, 0)
    by_cluster = schemes.T

    key = np.multiply(by_cluster, 7, dtype=np.intp)
    key += c0
    key *= 7
    key += c1
    key *= 7
    key += c2
    key += _ENCODE_BIAS
    # Group padding is normal clusters of zeros: pattern 0, scheme 0.
    patterns = np.zeros((padded, rows), dtype=np.uint8)
    np.take(_ENCODE_LUT, key, out=patterns[:num_clusters])
    pair_index = np.zeros((padded // 2, rows), dtype=np.uint8)
    pair_index[:(num_clusters + 1) // 2] = by_cluster[0::2]

    payload = np.empty((rows, groups, GROUP_BYTES), dtype=np.uint8)
    i0, i1, i2, i3 = pair_index.reshape(groups, 4, rows).transpose(1, 0, 2)
    payload[:, :, 0] = ((i0 << 6) | (i1 << 4) | (i2 << 2) | i3).T
    # Data bytes: four 6-bit patterns -> one byte triplet, two per group
    # (uint8 shifts drop the bits that belong to the previous byte).
    p0, p1, p2, p3 = patterns.reshape(groups, 2, 4, rows).transpose(2, 0, 1, 3)
    data = np.empty((groups, 2, 3, rows), dtype=np.uint8)
    data[:, :, 0] = (p0 << 2) | (p1 >> 4)
    data[:, :, 1] = (p1 << 4) | (p2 >> 2)
    data[:, :, 2] = (p2 << 6) | p3
    payload[:, :, 1:] = data.reshape(groups, GROUP_DATA_BYTES,
                                     rows).transpose(2, 0, 1)
    return PackedMatrix(shape=tuple(shape), num_clusters=num_clusters,
                        scales=np.asarray(scales, dtype=np.float16),
                        payload=payload.reshape(rows, -1))


def pack_matrix_bitwise(codes: np.ndarray, schemes: np.ndarray,
                        scales: np.ndarray, shape: tuple[int, int]
                        ) -> PackedMatrix:
    """Oracle: per-bit reference pack (the pre-LUT implementation).

    Kept for the equivalence property tests and as the baseline of the
    flush micro-benchmark; production pack is :func:`pack_matrix`.
    """
    rows, num_clusters, _ = codes.shape
    pad_clusters = (-num_clusters) % CLUSTERS_PER_GROUP
    if pad_clusters:
        codes = np.concatenate(
            [codes, np.zeros((rows, pad_clusters, 3), dtype=codes.dtype)], axis=1)
        schemes = np.concatenate(
            [schemes, np.zeros((rows, pad_clusters), dtype=schemes.dtype)], axis=1)
    padded = codes.shape[1]
    groups = padded // CLUSTERS_PER_GROUP

    # Data bytes: 8 clusters x 6 bits -> 6 bytes per group.
    bits = _cluster_bits(codes.reshape(-1, 3), schemes.reshape(-1))
    data_bytes = np.packbits(bits.reshape(rows, padded * 6), axis=1)
    data_bytes = data_bytes.reshape(rows, groups, GROUP_DATA_BYTES)

    # Index bytes: four 2-bit pair indices per group of eight clusters.
    pair_schemes = schemes.reshape(rows, -1, 2)[:, :, 0]  # harmonized pairs
    pair_bits = np.stack([(pair_schemes >> 1) & 1, pair_schemes & 1], axis=-1)
    index_bytes = np.packbits(
        pair_bits.reshape(rows, padded // 2 * 2).astype(np.uint8), axis=1)
    index_bytes = index_bytes.reshape(rows, groups, 1)

    payload = np.concatenate([index_bytes, data_bytes], axis=2)
    return PackedMatrix(shape=tuple(shape), num_clusters=num_clusters,
                        scales=np.asarray(scales, dtype=np.float16),
                        payload=payload.reshape(rows, -1))


def unpack_matrix(packed: PackedMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_matrix`.

    Returns ``(codes, schemes, dequantized)`` where ``dequantized`` has
    the original matrix shape.
    """
    rows, cols = packed.shape
    codes, schemes = decode_payload(packed.payload)
    codes = codes[:, :packed.num_clusters].astype(np.int64)
    schemes = schemes.astype(np.int64)
    schemes = schemes[:, :packed.num_clusters]
    scales = packed.scales.astype(np.float64).reshape(rows, 1, 1)
    dequantized = (codes * scales).reshape(rows, -1)[:, :cols].astype(np.float32)
    return codes, schemes, dequantized
