"""Cluster partitioning, outlier detection, and initial bit allocation.

Implements Algorithm 1 lines 1-14: each weight channel (matrix row) is
divided into clusters of three consecutive values; a cluster is an
*outlier cluster* when its maximum magnitude exceeds ``OUTLIER_RATIO``
times its minimum magnitude, in which case the two largest magnitudes are
encoded with 3 bits and the smallest is zeroed.

Encoding schemes (paper Sec. III-B):

====== =========== ===========================
index  bit widths  meaning
====== =========== ===========================
``00``  (2, 2, 2)  all three values 2-bit
``01``  (0, 3, 3)  first value zeroed
``10``  (3, 0, 3)  second value zeroed
``11``  (3, 3, 0)  third value zeroed
====== =========== ===========================

Every scheme occupies exactly 6 data bits, which is what makes the
paper's aligned 7-byte / 24-weight memory layout possible.
"""

from __future__ import annotations

import numpy as np

#: Weights per cluster (the paper's fine granularity).
CLUSTER_SIZE = 3
#: Outlier rule: max magnitude > OUTLIER_RATIO x min magnitude.
OUTLIER_RATIO = 4.0

#: Bit width of each value position under each encoding scheme.
SCHEME_WIDTHS = np.array([
    [2, 2, 2],  # '00' : normal cluster
    [0, 3, 3],  # '01' : first value sacrificed
    [3, 0, 3],  # '10' : second value sacrificed
    [3, 3, 0],  # '11' : third value sacrificed
], dtype=np.int64)

SCHEME_NAMES = ("00", "01", "10", "11")

#: Largest representable magnitude per bit width (sign-magnitude coding):
#: width 0 -> 0, width 2 -> 1, width 3 -> 3 (width 1 is never allocated).
_QMAX_BY_WIDTH = np.array([0, 0, 1, 3], dtype=np.int64)


def qmax_for_widths(widths: np.ndarray) -> np.ndarray:
    """Map bit widths {0,2,3} to their max representable magnitudes."""
    return _QMAX_BY_WIDTH[widths]


def cluster_weights(weights: np.ndarray, cluster_size: int = CLUSTER_SIZE
                    ) -> tuple[np.ndarray, int]:
    """Reshape ``(rows, cols)`` weights into ``(rows, clusters, size)``.

    The final cluster of each channel is zero-padded when ``cols`` is not
    a multiple of ``cluster_size``; returns the padded view and the number
    of padding columns (needed to undo the padding later).
    """
    w = np.asarray(weights)
    if w.ndim != 2:
        raise ValueError(f"expected 2-D weights, got shape {w.shape}")
    rows, cols = w.shape
    pad = (-cols) % cluster_size
    if pad:
        padded = np.zeros((rows, cols + pad))
        padded[:, :cols] = w
    else:
        padded = np.asarray(w, dtype=np.float64)
    return padded.reshape(rows, -1, cluster_size), pad


def detect_outlier_clusters(clusters: np.ndarray,
                            ratio: float = OUTLIER_RATIO) -> np.ndarray:
    """Boolean ``(rows, clusters)`` mask of clusters needing protection
    (oracle: a step of ``encode_channels_stepwise``).

    The comparison is on magnitudes (the paper's walking example is
    all-positive); a zero minimum fires the rule whenever the maximum is
    non-zero, which is the conservative, protective choice.
    """
    magnitude = np.abs(clusters)
    max_val = magnitude.max(axis=-1)
    min_val = magnitude.min(axis=-1)
    return max_val > ratio * min_val


def initial_schemes(clusters: np.ndarray, ratio: float = OUTLIER_RATIO
                    ) -> np.ndarray:
    """Per-cluster scheme before pair harmonization (oracle: a step of
    ``encode_channels_stepwise``).

    Outlier clusters zero their smallest-magnitude position (scheme
    ``position + 1``); normal clusters use scheme 0.
    """
    outlier = detect_outlier_clusters(clusters, ratio=ratio)
    smallest = np.abs(clusters).argmin(axis=-1)
    return np.where(outlier, smallest + 1, 0).astype(np.int64)
