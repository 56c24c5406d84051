"""K/V blocks to and from the FineQ 2.33-bit cluster format.

The kernel glue between :mod:`repro.core` (encode, pack, LUT decode) and
the quantized paged cache: moved out of :mod:`repro.nn.paged_kv_cache`,
which imports both functions back for its flush and miss paths.
"""

from __future__ import annotations

import numpy as np

from repro.core.clusters import CLUSTER_SIZE
from repro.core.encoding import encode_channels
from repro.core.packing import decode_payload, pack_matrix


def quantize_kv_block(blocks: np.ndarray, with_values: bool = False):
    """FineQ-encode ``(n, heads, block, head_dim)`` FP32 K/V blocks.

    Each ``(head, dim)`` pair is a channel; its ``block`` tokens are
    clustered in threes along the token axis and run through the paper's
    pipeline (outlier schemes -> pair harmonization -> Eq. 1 channel
    scale -> grid rounding -> 6-bit packing).  Returns ``(payload,
    scales)`` of shapes ``(n * heads * head_dim, groups * GROUP_BYTES)``
    uint8 and ``(n * heads * head_dim,)`` float16.  Channels are
    independent, so any mix of blocks (K and V, several layers) encodes
    in one call to the bytes separate calls would produce.

    ``with_values=True`` appends the blocks' dequantized values, ``(n,
    heads, block, head_dim)`` float32: the integer codes times the FP16
    scales, bitwise what :func:`dequantize_kv_channels` decodes from the
    returned payload — which lets a flush write them through into the
    :class:`DequantBlockCache` without a decode.
    """
    n, heads, block, head_dim = blocks.shape
    rows = n * heads * head_dim
    num_clusters = -(-block // CLUSTER_SIZE)
    # Stage token-major: one position of one cluster across all channels
    # is then a contiguous vector, the layout the core kernels work in,
    # and the trailing cluster's padding is already zero.
    staged = np.zeros((num_clusters * CLUSTER_SIZE, n, heads, head_dim))
    staged[:block] = np.moveaxis(blocks, 2, 0)
    clusters = staged.reshape(num_clusters, CLUSTER_SIZE, rows) \
                     .transpose(2, 0, 1)
    codes, schemes, scales = encode_channels(clusters)
    packed = pack_matrix(codes, schemes, scales.reshape(-1), (rows, block))
    if not with_values:
        return packed.payload, packed.scales
    tokens = codes.transpose(1, 2, 0).reshape(-1, rows)[:block]
    values = tokens.astype(np.float32) * packed.scales.astype(np.float32)
    return packed.payload, packed.scales, np.moveaxis(
        values.reshape(block, n, heads, head_dim), 0, 2)


def dequantize_kv_channels(payload: np.ndarray, scales: np.ndarray,
                           block_size: int) -> np.ndarray:
    """Inverse of :func:`quantize_kv_block` at the channel-matrix level.

    ``payload``/``scales`` are ``(channels, groups * GROUP_BYTES)`` and
    ``(channels,)``; returns ``(channels, block_size)`` float32.
    """
    codes, _ = decode_payload(payload)
    values = codes.astype(np.float32) * scales.astype(np.float32)[:, None, None]
    return values.reshape(len(payload), -1)[:, :block_size]
