"""Scheme selection, pair harmonization, and (de)quantization on scales.

Implements Algorithm 1 lines 15-26 and the paper's Eq. 1:

* adjacent clusters form *pairs* that must share one 2-bit encoding index
  (that is what lets one index byte describe eight clusters); pairs whose
  members disagree pick the scheme minimising the summed reconstruction
  error (``argmin_l Loss(Ci, Cj, l)``);
* each channel then gets one symmetric scale
  ``s_c = max(|w_c|) / (2^(b_c - 1) - 1)`` where ``b_c`` is 3 if the
  channel contains any outlier cluster and 2 otherwise — this reproduces
  the scales of the paper's Fig. 4 walking example exactly;
* values are rounded to their per-position grids and clipped to the
  allocated magnitude range ({-1,0,1} at 2 bits, {-3..3} at 3 bits,
  forced 0 at 0 bits).
"""

from __future__ import annotations

import numpy as np

from repro.core.clusters import (OUTLIER_RATIO, SCHEME_WIDTHS,
                                 initial_schemes, qmax_for_widths)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round halves away from zero (matches the paper's Fig. 4 example,
    where 0.02/0.04 = 0.5 quantizes to 1, unlike numpy's banker rounding)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def channel_scales(clusters: np.ndarray, schemes: np.ndarray) -> np.ndarray:
    """Per-channel scale from Eq. 1; ``(rows, 1, 1)`` for broadcasting.
    Oracle: a step of :func:`encode_channels_stepwise`.

    Channels containing at least one outlier cluster use the 3-bit grid
    (``qmax = 3``); all-normal channels use the 2-bit grid (``qmax = 1``).
    """
    rows = clusters.shape[0]
    max_abs = np.abs(clusters).reshape(rows, -1).max(axis=1)
    has_outlier = (schemes > 0).any(axis=1)
    qmax = np.where(has_outlier, 3.0, 1.0)
    scale = np.where(max_abs > 0, max_abs / qmax, 1.0)
    return scale.reshape(rows, 1, 1)


def quantize_codes(clusters: np.ndarray, schemes: np.ndarray,
                   scales: np.ndarray) -> np.ndarray:
    """Integer codes ``(rows, clusters, 3)`` under the given schemes.
    Oracle: a step of :func:`encode_channels_stepwise`."""
    widths = SCHEME_WIDTHS[schemes]            # (rows, clusters, 3)
    qmax = qmax_for_widths(widths)
    codes = round_half_away(clusters / scales)
    return np.clip(codes, -qmax, qmax).astype(np.int64)


def dequantize_codes(codes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Reconstruct real values from integer codes and channel scales."""
    return codes * scales


#: Clip magnitude of every position under every scheme, position-major
#: (``[position, scheme]``) so the position planes index it directly.
_SCHEME_QMAX = qmax_for_widths(SCHEME_WIDTHS).T.astype(np.float64)


def _round_levels(mags: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """:func:`round_half_away` of ``x / s`` as a magnitude
    (``|x / s| == |x| / s`` exactly), computed in one buffer."""
    levels = mags / scales
    levels += 0.5
    return np.floor(levels, out=levels)


def _best_pair_schemes(mags: np.ndarray, levels: np.ndarray,
                       scales: np.ndarray) -> np.ndarray:
    """Error-minimising shared scheme of every adjacent cluster pair.

    ``mags``/``levels`` are ``(3, clusters, rows)`` position planes (an
    even cluster count) of magnitudes and their grid-rounded levels;
    returns ``(clusters // 2, rows)``.  A position's squared residual
    depends only on its clip level — 0 (sacrificed), 1 (2-bit grid) or 3
    (3-bit grid, which never clips: levels are at most 3 at an Eq. 1
    scale) — so three residual planes serve all four schemes.  The six
    terms of a pair are summed left to right, first member first, the
    order :func:`_pair_scheme_errors` reduces in, so near-ties resolve
    exactly as the reference's ``argmin`` does (first minimum wins).
    """
    gone = mags * mags
    fine = levels * scales
    np.subtract(mags, fine, out=fine)
    fine *= fine
    coarse = np.minimum(levels, 1.0)
    coarse *= scales
    np.subtract(mags, coarse, out=coarse)
    coarse *= coarse

    def pair_error(p0, p1, p2):
        total = p0[0::2] + p1[0::2]
        for term in (p2[0::2], p0[1::2], p1[1::2], p2[1::2]):
            total += term
        return total

    lowest = pair_error(coarse[0], coarse[1], coarse[2])
    best = np.zeros(lowest.shape, dtype=np.int64)
    for scheme, planes in ((1, (gone[0], fine[1], fine[2])),
                           (2, (fine[0], gone[1], fine[2])),
                           (3, (fine[0], fine[1], gone[2]))):
        error = pair_error(*planes)
        better = error < lowest
        best += (scheme - best) * better
        np.minimum(lowest, error, out=lowest)
    return best


def encode_channels(clusters: np.ndarray,
                    outlier_ratio: float = OUTLIER_RATIO,
                    harmonize: bool = True
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The full FineQ encode pipeline for pre-clustered channels.

    Scheme selection -> Eq. 1 channel scales -> pair harmonization (with
    the scale recompute only for channels harmonization stripped of
    their last outlier cluster) -> grid rounding.  Single source of truth
    shared by the weight quantizer and the quantized KV cache, so the two
    formats cannot drift.  Returns ``(codes, schemes, scales)`` with
    ``scales`` shaped ``(rows, 1, 1)``.

    This is the fused form of the step functions in this module and
    :mod:`repro.core.clusters` (``initial_schemes`` -> ``channel_scales``
    -> ``harmonize_pairs`` -> ``quantize_codes``), which stay as the
    line-by-line Algorithm 1 reference the property tests compare
    against, bit for bit.  It works on the three position planes of the
    clusters, channels innermost (element-wise max/min instead of
    reductions over a length-3 axis, cluster reductions across whole
    channel vectors), and in the magnitude domain: ``|x| / s`` is
    rounded to the grid once, and that one array feeds the harmonization
    errors and — with the sign put back — the final codes.  ``codes`` and
    ``schemes`` come back as transposed views of the plane arrays, which
    is the layout :func:`repro.core.packing.pack_matrix` consumes.
    """
    rows, num_clusters, _ = clusters.shape
    values = np.ascontiguousarray(clusters.transpose(2, 1, 0),
                                  dtype=np.float64)
    mags = np.abs(values)
    m0, m1, m2 = mags
    top = np.maximum(np.maximum(m0, m1), m2)
    low = np.minimum(np.minimum(m0, m1), m2)
    outlier = top > outlier_ratio * low
    # The first smallest magnitude is sacrificed (argmin's tie-break):
    # scheme 1, 2 or 3 by its position, 0 for normal clusters.
    first = m0 == low
    schemes = (3 - (m1 == low)) * ~first
    schemes += first
    schemes *= outlier

    peak = top.max(axis=0)

    def eq1_scales(has_outlier):
        return np.where(peak > 0, peak / (1.0 + 2.0 * has_outlier), 1.0)

    has_outlier = outlier.any(axis=0)
    scales = eq1_scales(has_outlier)
    levels = _round_levels(mags, scales)

    even = num_clusters - num_clusters % 2
    if harmonize and even:
        left = schemes[0:even:2]
        disagree = left != schemes[1:even:2]
        if disagree.any():
            best = _best_pair_schemes(mags[:, :even], levels[:, :even],
                                      scales)
            left += (best - left) * disagree
            schemes[1:even:2] = left
            still = (schemes > 0).any(axis=0)
            changed = np.nonzero(still != has_outlier)[0]
            if len(changed):
                scales = eq1_scales(still)
                levels[:, :, changed] = _round_levels(mags[:, :, changed],
                                                      scales[changed])

    codes = np.take(_SCHEME_QMAX, schemes, axis=1)
    np.minimum(levels, codes, out=codes)
    np.copysign(codes, values, out=codes)
    return (codes.astype(np.int64).transpose(2, 1, 0), schemes.T,
            scales.reshape(rows, 1, 1))


def encode_channels_stepwise(clusters: np.ndarray,
                             outlier_ratio: float = OUTLIER_RATIO,
                             harmonize: bool = True
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`encode_channels` as the composition of the step functions.

    Oracle: Algorithm 1 line by line (the pre-fusion implementation).
    Kept for the equivalence property tests and as the baseline of the
    flush micro-benchmark; production encode is :func:`encode_channels`.
    """
    schemes = initial_schemes(clusters, ratio=outlier_ratio)
    scales = channel_scales(clusters, schemes)
    if harmonize:
        harmonized = harmonize_pairs(clusters, schemes, scales)
        if harmonized is not schemes:
            schemes = harmonized
            scales = channel_scales(clusters, schemes)
    codes = quantize_codes(clusters, schemes, scales)
    return codes, schemes, scales


def scheme_reconstruction_error(clusters: np.ndarray, scales: np.ndarray
                                ) -> np.ndarray:
    """Squared reconstruction error of every scheme for every cluster
    (oracle: the exhaustive form the tests hold pair selection to).

    Returns ``(4, rows, clusters)``: entry ``l`` is the error if scheme
    ``l`` were used for that cluster at the given channel scale.  Rounding
    is scheme-independent, so it is hoisted out of the scheme loop (only
    the clip bounds differ between schemes).
    """
    rounded = round_half_away(clusters / scales)
    errors = np.empty((len(SCHEME_WIDTHS),) + clusters.shape[:2])
    for scheme_index in range(len(SCHEME_WIDTHS)):
        qmax = qmax_for_widths(SCHEME_WIDTHS[scheme_index])
        residual = clusters - np.clip(rounded, -qmax, qmax) * scales
        errors[scheme_index] = (residual ** 2).sum(axis=-1)
    return errors


def _pair_scheme_errors(pair_values: np.ndarray, pair_scales: np.ndarray
                        ) -> np.ndarray:
    """Summed per-pair error of every scheme, for disagreeing pairs only
    (oracle: :func:`harmonize_pairs`' error term).

    ``pair_values`` is ``(pairs, 2, cluster)`` (both members of each
    pair), ``pair_scales`` the matching ``(pairs,)`` channel scales;
    returns ``(4, pairs)``.
    """
    scales = pair_scales[:, None, None]
    rounded = round_half_away(pair_values / scales)
    qmax = qmax_for_widths(SCHEME_WIDTHS)            # (4, cluster)
    codes = np.clip(rounded[None], -qmax[:, None, None, :],
                    qmax[:, None, None, :])          # (4, pairs, 2, cluster)
    residual = pair_values[None] - codes * scales[None]
    return (residual ** 2).sum(axis=(-1, -2))


def harmonize_pairs(clusters: np.ndarray, schemes: np.ndarray,
                    scales: np.ndarray) -> np.ndarray:
    """Force adjacent cluster pairs to share one encoding scheme.
    Oracle: a step of :func:`encode_channels_stepwise`.

    Pairs are ``(0,1), (2,3), ...``; an odd trailing cluster keeps its own
    scheme (it gets a dedicated index field whose second slot is padding).
    Agreeing pairs are untouched; disagreeing pairs take the
    error-minimising scheme over both members (Algorithm 1 line 22).

    Reconstruction errors are evaluated only for the disagreeing pairs
    (typically a small fraction of all clusters), not for every cluster
    under every scheme.  When no pair disagrees the input ``schemes``
    array is returned unchanged — callers can use identity to skip
    recomputing scales.
    """
    rows, num_clusters = schemes.shape
    even_count = num_clusters - (num_clusters % 2)
    if even_count == 0:
        return schemes

    left = schemes[:, 0:even_count:2]
    right = schemes[:, 1:even_count:2]
    disagree = left != right
    if not disagree.any():
        return schemes

    row_idx, pair_idx = np.nonzero(disagree)
    left_idx = 2 * pair_idx
    pair_values = np.stack([clusters[row_idx, left_idx],
                            clusters[row_idx, left_idx + 1]], axis=1)
    pair_scales = scales.reshape(-1)[row_idx]
    errors = _pair_scheme_errors(pair_values, pair_scales)  # (4, pairs)
    best = errors.argmin(axis=0)

    result = schemes.copy()
    result[row_idx, left_idx] = best
    result[row_idx, left_idx + 1] = best
    return result
