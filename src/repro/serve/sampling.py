"""Token sampling shared by decode, draft proposals and verify.

Pure functions of ``(logits, per-row params, per-row RNG streams)``: the
engine's decode and prefill steps, the speculative decoder's proposal
loop and the verify's re-sampling all draw through
:func:`_sample_tokens`, so a request's stream depends on its own params
and logits only, never on which caller or batch it rode in.
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
    """Per-row post-filter sampling distributions for ``(batch, vocab)``
    logits: temperature scaling and top-k/top-p masking followed by
    softmax, vectorized over the non-greedy rows; greedy rows collapse
    to a one-hot at their argmax.  These are the distributions both
    sampling (CDF inversion) and the speculative ``"leftover"``
    acceptance rule (target ``p`` and draft ``q``) operate on."""
    greedy = logits.argmax(axis=-1)
    probs = np.zeros(logits.shape)
    probs[np.arange(len(logits)), greedy] = 1.0
    hot_idx = np.array([i for i, p in enumerate(params) if not p.greedy],
                       dtype=np.int64)
    if len(hot_idx) == 0:
        return probs
    hot_params = [params[i] for i in hot_idx]
    vocab = logits.shape[-1]
    temperatures = np.array([p.temperature for p in hot_params])
    top_k = np.array([p.top_k or vocab for p in hot_params])
    top_p = np.array([p.top_p if p.top_p is not None else 1.0
                      for p in hot_params])
    scaled = apply_top_k_top_p(logits[hot_idx] / temperatures[:, None],
                               top_k, top_p)
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    hot = np.exp(scaled)
    hot /= hot.sum(axis=-1, keepdims=True)
    probs[hot_idx] = hot
    return probs


def _sample_tokens(logits: np.ndarray, params: list, rngs: list,
                   return_probs: bool = False):
    """Sample one token per row of ``(batch, vocab)`` logits.

    The engine's sampling math with explicit per-row params and RNG
    streams, shared by regular decode, speculative draft proposals, and
    speculative verify re-sampling.  Greedy rows take their argmax and
    consume no RNG; each non-greedy row inverts its own masked CDF at a
    draw from its *private* generator — exactly one draw per row — so a
    request's sample stream depends only on its own params and logits,
    never on batch composition.

    ``return_probs=True`` additionally returns the
    :func:`_filtered_probs` distributions (the ``"leftover"`` policy
    needs the draft's proposal distribution alongside its sample).
    """
    greedy = logits.argmax(axis=-1)
    hot_idx = np.array([i for i, p in enumerate(params) if not p.greedy],
                       dtype=np.int64)
    if len(hot_idx) == 0:
        return (greedy, _filtered_probs(logits, params)) if return_probs \
            else greedy
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
    if return_probs:
        full = np.zeros(logits.shape)
        full[np.arange(len(logits)), greedy] = 1.0
        full[hot_idx] = probs
        return out, full
    return out
