"""Token sampling shared by decode, draft proposals and verify.

Pure functions of ``(logits, per-row params, per-row RNG streams)``: the
engine's decode and prefill steps, the speculative decoder's proposal
loop and the verify's re-sampling all draw through
:func:`_sample_tokens`, so given its logits a request's stream depends
on its own params and RNG only, not on which caller or batch it rode
in.  (Whether the *logits* depend on the batch is the forward's and the
cache's business: see :class:`repro.serve.params.SamplingParams`.)
"""

from __future__ import annotations

import numpy as np

def apply_top_k_top_p(scaled: np.ndarray, top_k: np.ndarray,
                      top_p: np.ndarray) -> np.ndarray:
    """Mask ``(batch, vocab)`` scaled logits to each row's top-k/top-p set.

    ``top_k`` holds per-row k (``vocab`` disables), ``top_p`` per-row
    nucleus mass (``1.0`` disables).  One descending sort serves both
    filters: the k-th sorted logit is the top-k threshold, and the
    smallest sorted logit inside the minimal nucleus whose probability
    mass reaches ``top_p`` is the top-p threshold.  Ties at a threshold
    are kept (deterministic, never empties a row); masked entries are
    ``-inf`` so downstream softmax zeroes them exactly.
    """
    vocab = scaled.shape[-1]
    top_k = np.minimum(np.asarray(top_k, dtype=np.int64), vocab)
    top_p = np.asarray(top_p, dtype=np.float64)
    if np.all(top_k >= vocab) and np.all(top_p >= 1.0):
        return scaled
    order = np.argsort(scaled, axis=-1)[:, ::-1]
    sorted_logits = np.take_along_axis(scaled, order, axis=-1)
    kth = np.take_along_axis(sorted_logits, top_k[:, None] - 1, axis=-1)
    keep = scaled >= kth
    if np.any(top_p < 1.0):
        shifted = sorted_logits - sorted_logits[:, :1]
        probs = np.exp(shifted)
        probs /= probs.sum(axis=-1, keepdims=True)
        csum = probs.cumsum(axis=-1)
        # A sorted position is inside the nucleus while the mass *before*
        # it is < top_p; the first token is therefore always kept.
        in_nucleus = (csum - probs) < top_p[:, None]
        counts = in_nucleus.sum(axis=-1)
        cutoff = np.take_along_axis(sorted_logits, counts[:, None] - 1,
                                    axis=-1)
        keep &= scaled >= cutoff
    return np.where(keep, scaled, -np.inf)


def _filtered_probs(logits: np.ndarray, params: list) -> np.ndarray:
    """Per-row post-filter sampling distributions for the ``(batch,
    vocab)`` logits of non-greedy rows: temperature scaling and
    top-k/top-p masking followed by softmax, vectorized over the rows.
    These are the distributions sampling (CDF inversion) operates on."""
    vocab = logits.shape[-1]
    temperatures = np.array([p.temperature for p in params])
    top_k = np.array([p.top_k or vocab for p in params])
    top_p = np.array([p.top_p if p.top_p is not None else 1.0
                      for p in params])
    scaled = apply_top_k_top_p(logits / temperatures[:, None], top_k, top_p)
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    probs = np.exp(scaled)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _sample_tokens(logits: np.ndarray, params: list, rngs: list
                   ) -> np.ndarray:
    """Sample one token per row of ``(batch, vocab)`` logits.

    The engine's sampling math with explicit per-row params and RNG
    streams, shared by regular decode, speculative draft proposals, and
    speculative verify re-sampling.  Greedy rows take their argmax and
    consume no RNG; each non-greedy row inverts its own masked CDF at a
    draw from its *private* generator — exactly one draw per row — so
    given its logits a request's sample depends only on its own params
    and draws.
    """
    greedy = logits.argmax(axis=-1)
    hot_idx = np.array([i for i, p in enumerate(params) if not p.greedy],
                       dtype=np.int64)
    if len(hot_idx) == 0:
        return greedy
    # Only the hot rows pay the vocab-wide sort/softmax; greedy rows
    # already have their argmax.
    probs = _filtered_probs(logits[hot_idx], [params[i] for i in hot_idx])
    draws = np.array([rngs[i].random() for i in hot_idx])
    # Smallest index whose cumulative mass exceeds the draw: masked
    # tokens carry exactly zero mass, so ties (cumsum flat) can never
    # select them — including a draw of exactly 0.0 with token 0
    # masked.  Float rounding can still leave the total mass a hair
    # under a draw near 1.0, so clamp onto the last *kept* token.
    vocab = logits.shape[-1]
    sampled = (probs.cumsum(axis=-1) <= draws[:, None]).sum(axis=-1)
    last_kept = vocab - 1 - np.argmax(probs[:, ::-1] > 0, axis=-1)
    out = greedy.copy()
    out[hot_idx] = np.minimum(sampled, last_kept)
    return out
