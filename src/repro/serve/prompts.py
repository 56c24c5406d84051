"""Token prompts for serving tests and benchmarks.

Three workload shapes: ragged random prompts (``bench_prompts``),
held-out in-distribution corpus windows (``corpus_prompts`` — what
speculative acceptance needs), and a shared system prompt plus
per-request suffixes (``prefix_prompts``).
"""

from __future__ import annotations

import numpy as np


def bench_prompts(vocab_size: int, num: int, max_prompt_len: int = 12,
                  min_prompt_len: int = 4, seed: int = 0) -> list[np.ndarray]:
    """Random token prompts of cycling lengths (exercises ragged batching)."""
    rng = np.random.default_rng(seed)
    lengths = [min_prompt_len + i % (max_prompt_len - min_prompt_len + 1)
               for i in range(num)]
    return [rng.integers(0, vocab_size, size=length) for length in lengths]


def corpus_prompts(tokenizer, num: int, prompt_len: int,
                   seed: int = 0) -> list[np.ndarray]:
    """In-distribution prompts: token windows of a held-out corpus slice.

    Speculative decoding's speedup rides on draft/target agreement, and
    zoo models only agree on text like the corpus they were trained on —
    random-token prompts would understate acceptance.  Uses a seed offset
    the training stream never saw so the windows are held out.
    """
    from repro.data.corpus import generate_corpus

    rng = np.random.default_rng(seed)
    sentences = generate_corpus("wikitext-sim", max(64, num * 8),
                                seed=100_000 + seed)
    stream = np.asarray(tokenizer.encode(sentences), dtype=np.int64)
    if stream.size < prompt_len + num:
        raise ValueError(f"corpus slice too short for {num} windows of "
                         f"{prompt_len} tokens")
    starts = rng.integers(0, stream.size - prompt_len, size=num)
    return [stream[s:s + prompt_len].copy() for s in starts]


def prefix_prompts(vocab_size: int, num: int, prefix_len: int,
                   share_ratio: float = 1.0, suffix_len: int = 8,
                   seed: int = 0) -> list[np.ndarray]:
    """A shared-prefix workload: system prompt + per-request suffix.

    ``share_ratio`` of the ``num`` prompts start with one common
    ``prefix_len``-token prefix (a system prompt / few-shot template)
    followed by a unique ``suffix_len``-token user suffix; the rest are
    fully random prompts of the same total length.  Shared and unshared
    prompts interleave, mimicking mixed traffic.
    """
    if not 0.0 <= share_ratio <= 1.0:
        raise ValueError("share_ratio must be in [0, 1]")
    rng = np.random.default_rng(seed)
    prefix = rng.integers(0, vocab_size, size=prefix_len)
    num_shared = round(num * share_ratio)
    # Even spread of shared prompts through the arrival order.
    shared_flags = [(i * num_shared) // num < ((i + 1) * num_shared) // num
                    for i in range(num)]
    prompts = []
    for i in range(num):
        suffix = rng.integers(0, vocab_size, size=suffix_len)
        if shared_flags[i]:
            prompts.append(np.concatenate([prefix, suffix]))
        else:
            prompts.append(rng.integers(0, vocab_size,
                                        size=prefix_len + suffix_len))
    return prompts
