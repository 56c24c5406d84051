"""Block-resident attention reads for paged KV caches (decode + prefill).

The paged caches' one read path (the serving engine's and
``cached_perplexity``'s).  Gathering every row's whole context into a
dense ``(batch, heads, total, head_dim)`` copy per layer per step (and,
on the quantized cache, re-running LUT dequantization over every owned
block each time) is what the tests' dense-gather oracle does; here the
paged block table itself is the iteration space — the paper's
accelerator dataflow projected into numpy: scores are computed chunk by
chunk against the pool (``q @ pool[ids]ᵀ``), softmax normalisation runs
over the assembled score vector (``O(total)`` floats, no ``head_dim``
factor), and the value contraction streams the same chunks back through
the softmax weights.  Only one chunk of K or V is ever resident, and it
is a single copy: the cache gathers it straight into the ``(rows, heads,
tokens, head_dim)`` layout the matmuls below consume, in buffers it
reuses, so a chunk is valid until the iteration advances.

Numerics: everything runs in float32, op for op what
:class:`repro.nn.attention.MultiHeadAttention` runs on a dense context
(the "dense path" below).  Per-chunk score matmuls reduce over
``head_dim`` exactly like the dense matmul, so scores — and therefore
the softmax probabilities — are bit-identical to the dense path's.  The
value contraction
accumulates per-chunk partial products in chunk order; whenever the
context fits one chunk (``chunk_blocks * block_size`` tokens, 128 by
default) that too is the identical monolithic matmul, and beyond it the
summation tree differs only in final-ulp rounding.  The quantized
cache's chunks gather from its decoded store, indexed by block id, so
a sealed block is dequantized once, when it is sealed, however many
rows and steps read it.

:func:`block_prefill_attention` extends the same read to multi-query
prefill chunks: the engine's chunked prefill writes a span of prompt
tokens and attends them over the full context through the identical
``context_blocks`` iteration, so prefill and decode share one read path
(and the quantized cache's decoded store serves prefill re-reads too).
Its score/value geometry is *chunk-grid stable*: scores land in
fixed ``chunk_blocks * block_size``-wide window blocks, the softmax
denominator accumulates fixed-width per-window partial sums, and every
value chunk is read padded to the full window (the cache supplies the
exact-zero tail, ``context_blocks(pad=True)``) so the value GEMMs are
always window-wide — the same query runs bit-identical accumulation
trees whatever the surrounding context width, which is what makes
chunked prefill match one-shot prefill (padded positions carry
exactly-zero probabilities and contribute exact zeros).  Scores need no
padding: each is a dot product over ``head_dim`` of its own, so the K
read stops at the last block the queries reach and the window's tail
is zero-filled after the exponent.  So the grid ends at the forward's
*reach* (the mask's width, the last key any query sees), not at the
cache's widest row: windows past it add exact zeros and are neither
read nor multiplied.
"""

from __future__ import annotations

import numpy as np


_ZERO, _NEG_INF = np.float32(0.0), np.float32(-np.inf)


def additive_mask(allow: np.ndarray) -> np.ndarray:
    """Float32 additive attention mask: 0 where ``allow``, else -inf."""
    return np.where(allow, _ZERO, _NEG_INF)


def _softmax_probs(scores: np.ndarray, kv_mask: np.ndarray | None,
                   head_dim: int) -> np.ndarray:
    """Scale, mask, and normalise raw ``q @ kᵀ`` scores.

    One shared copy of the exact float32 op sequence the dense path
    runs (``* 1/sqrt(d)`` as a float32 scalar — a bare ``np.sqrt``
    result is float64 and would promote everything downstream —
    additive mask, max-shift, exp, normalise; see
    :func:`repro.autograd.functional.softmax`), so both block-attention
    functions keep the bit-parity contract by construction; ``-inf``
    masked slots exponentiate to exact zeros.
    """
    scores = scores * np.float32(1.0 / np.sqrt(head_dim))
    if kv_mask is not None:
        scores = scores + kv_mask
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def block_decode_attention(q: np.ndarray, cache, layer_index: int,
                           kv_mask: np.ndarray | None = None,
                           rows: np.ndarray | None = None) -> np.ndarray:
    """Single-token attention over a paged cache, block chunk by chunk.

    Parameters
    ----------
    q:
        ``(n, heads, 1, head_dim)`` float32 query — one decode token per
        (sub-batch) row, already rotated.
    cache:
        A paged cache exposing ``context_blocks(layer, rows, kind)`` and
        ``layer_len`` (see :class:`repro.nn.paged_kv_cache.PagedKVCache`).
        The step's K/V must already be written (``write_token``).
    kv_mask:
        Optional additive ``(n, 1, 1, total)`` mask (the engine's
        per-row length mask); masked slots contribute exact zeros.
    rows:
        Cache rows behind ``q``'s entries (``None`` = all rows).

    Returns the ``(n, heads, 1, head_dim)`` float32 context (the
    pre-``wo`` attention output).
    """
    n, heads, _, head_dim = q.shape
    total = cache.layer_len(layer_index)

    if total <= cache.chunk_blocks * cache.block_size:
        # Short contexts fit one chunk: read K and V in a single pass
        # (the chunk *is* the whole context; the quantized cache
        # gathers it from its decoded store) and run the monolithic
        # attention ops on it — op for op the dense path's math, so the
        # result is bit-identical, while the chunk is still the only
        # materialised copy and stays bounded by the chunk window.
        k, v = cache.context_chunk_pair(layer_index, rows=rows)
        return _softmax_probs(q @ k.transpose(0, 1, 3, 2), kv_mask,
                              head_dim) @ v

    # Pass 1: scores, one chunk at a time.  Each chunk's q @ kᵀ reduces
    # over head_dim exactly as the dense matmul does, so the assembled
    # score vector is bit-identical to the dense path's.
    score_chunks = []
    for start, k_chunk in cache.context_blocks(layer_index, rows=rows,
                                               kind="k"):
        width = min(k_chunk.shape[2], total - start)
        score_chunks.append(q @ k_chunk[:, :, :width].transpose(0, 1, 3, 2))
    probs = _softmax_probs(np.concatenate(score_chunks, axis=-1), kv_mask,
                           head_dim)

    # Pass 2: stream the value chunks back through the softmax weights
    # (an online accumulation — no rescaling needed, the normaliser is
    # already exact).
    context = np.zeros((n, heads, 1, head_dim), dtype=np.float32)
    for start, v_chunk in cache.context_blocks(layer_index, rows=rows,
                                               kind="v"):
        width = min(v_chunk.shape[2], total - start)
        context += probs[..., start:start + width] @ v_chunk[:, :, :width]
    return context


def block_prefill_attention(q: np.ndarray, cache, layer_index: int,
                            kv_mask: np.ndarray | None = None,
                            rows: np.ndarray | None = None) -> np.ndarray:
    """Multi-query prefill attention over a paged cache, chunk by chunk.

    Parameters
    ----------
    q:
        ``(n, heads, seq, head_dim)`` float32 queries — one prefill
        chunk per (sub-batch) row, already rotated.  The chunk's K/V
        must already be written (``prefill_rows``).
    cache:
        A paged cache exposing ``context_blocks``/``layer_len`` (see
        :class:`repro.nn.paged_kv_cache.PagedKVCache`).
    kv_mask:
        Additive ``(n, 1, seq, reach)`` per-row causal mask (the
        engine's suffix-prefill mask).  Its width bounds the read: grid,
        score workspace and both passes cover ``ceil(reach / window)``
        windows — at least the one short prompts pay — whatever other
        rows hold beyond.  ``None`` allows every written position
        (queries then attend the whole context below ``layer_len``).
    rows:
        Cache rows behind ``q``'s entries (``None`` = all rows).

    Returns the ``(n, heads, seq, head_dim)`` float32 context.

    Numerics: scores reduce over ``head_dim`` exactly like the dense
    matmul, so they are bit-identical to the dense path's (the K read
    therefore ends at the reach's last block).  Softmax and the value
    contraction run at *chunk-grid* geometry — every value chunk padded
    to the ``chunk_blocks * block_size`` window, the softmax denominator
    accumulated window by window, the value GEMMs always window-wide —
    so a given query's reduction trees do not
    depend on how much context happens to sit in the cache beyond what
    its mask allows.  Padded/masked positions exponentiate to exact
    zeros and contribute exact zero partial sums and products, which is
    what keeps a prompt position's attention output identical whether
    its chunk was forwarded alone (chunked prefill) or as part of the
    whole prompt (one-shot prefill).
    """
    n, heads, seq, head_dim = q.shape
    total = cache.layer_len(layer_index)
    window = cache.chunk_blocks * cache.block_size
    # Columns past the mask's width (the written context, without one)
    # are masked for every query, their weights the exact zeros a
    # ``-inf`` pad would exponentiate to: whole windows of them are left
    # off the grid and the read, the last window's tail is zero-filled.
    live = total if kv_mask is None else min(total, kv_mask.shape[-1])
    windows = max(1, -(-live // window))
    widths = [min(window, live - w * window) for w in range(windows)]

    # Pass 1: scores over the chunk grid, one contiguous ``(n, heads,
    # seq, window)`` block per window.  Chunk starts are window-aligned;
    # the K read stops at the reach's last block, so a chunk's ``q @ kᵀ``
    # fills the leading columns of its block — each score is its own
    # dot product over ``head_dim``, whatever the chunk's width.  Each
    # block is scaled and masked exactly like :func:`_softmax_probs`
    # while it is hot, over its live columns only, and the row maxima
    # fold across blocks (a maximum is exact in any order).
    scores = np.empty((windows, n, heads, seq, window), dtype=np.float32)
    scale = np.float32(1.0 / np.sqrt(head_dim))
    top = np.full((n, heads, seq, 1), _NEG_INF)
    for start, k_chunk in cache.context_blocks(
            layer_index, rows=rows, kind="k", _reach=live):
        w = start // window
        np.matmul(q, k_chunk.transpose(0, 1, 3, 2),
                  out=scores[w, ..., :k_chunk.shape[2]])
        seen = scores[w, ..., :widths[w]]
        seen *= scale
        if kv_mask is not None:
            seen += kv_mask[..., start:start + widths[w]]
        np.maximum(top, seen.max(axis=-1, keepdims=True, initial=_NEG_INF),
                   out=top)

    # Shift/exp in place, then normalise with a *window-blocked*
    # denominator: every window's partial sum runs the fixed
    # width-``window`` reduction tree and the partials accumulate
    # sequentially, so a row's normaliser does not depend on the grid
    # width at all — windows beyond the row's masked context hold exact
    # zeros and add exact zeros.  A plain ``exp.sum(-1)`` over the grid
    # would re-shape its pairwise summation tree with the grid, leaking
    # *other* rows' context lengths into this row's ulps (the grid
    # tracks the forward's widest row, which a chunked and a one-shot
    # run grow on different step schedules).
    denom = np.zeros((n, heads, seq), dtype=np.float32)
    for w in range(windows):
        seen = scores[w, ..., :widths[w]]
        seen -= top
        np.exp(seen, out=seen)
        scores[w, ..., widths[w]:] = _ZERO
        denom += scores[w].sum(axis=-1)
    denom = denom[..., None]

    # Pass 2: normalise each window's weights and stream the value
    # chunks back through them at full window width (masked positions
    # hold exactly-zero weights).
    context = np.zeros((n, heads, seq, head_dim), dtype=np.float32)
    for start, v_chunk in cache.context_blocks(
            layer_index, rows=rows, kind="v", pad=True, _reach=live):
        w = start // window
        scores[w, ..., :widths[w]] /= denom
        context += scores[w] @ v_chunk
    return context
