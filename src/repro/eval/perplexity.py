"""Perplexity evaluation (the paper's accuracy metric).

Matches standard LLM practice: the token stream is cut into
non-overlapping windows of the evaluation sequence length, and perplexity
is ``exp`` of the mean next-token negative log-likelihood over all target
positions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.autograd import no_grad
from repro.autograd.functional import nll_per_token
from repro.data.corpus import generate_corpus
from repro.data.tokenizer import WordTokenizer
from repro.nn.model import TransformerLM

#: Seed offset so evaluation text is disjoint from zoo training text.
EVAL_SEED = 917


def eval_stream(tokenizer: WordTokenizer, dataset: str,
                num_sentences: int = 4000, seed: int = EVAL_SEED) -> np.ndarray:
    """Held-out token stream for ``dataset`` (wikitext-sim / c4-sim).

    Memoised on the vocabulary and the corpus arguments (a corpus is a
    pure function of them), so the returned array is shared and
    read-only: copy it before writing.
    """
    return _stream(tuple(tokenizer.vocab), dataset, num_sentences, seed)


@lru_cache(maxsize=8)
def _stream(vocab: tuple[str, ...], dataset: str, num_sentences: int,
            seed: int) -> np.ndarray:
    stream = WordTokenizer(list(vocab)).encode(
        generate_corpus(dataset, num_sentences, seed=seed))
    stream.flags.writeable = False
    return stream


def _token_windows(stream: np.ndarray, seq_len: int,
                   max_windows: int | None = None) -> np.ndarray:
    """Non-overlapping ``(windows, seq_len + 1)`` token windows.

    Each row carries one extra token so targets are the row shifted by
    one.  One vectorized gather for every window instead of a python
    slice-and-stack per batch; shared by every perplexity variant so the
    windowing convention cannot drift between them.
    """
    stream = np.asarray(stream, dtype=np.int64).reshape(-1)
    num_windows = (len(stream) - 1) // seq_len
    if max_windows is not None:
        if max_windows < 1:
            raise ValueError(f"max_windows must be >= 1, got {max_windows}")
        num_windows = min(num_windows, max_windows)
    if num_windows == 0:
        raise ValueError(f"stream of {len(stream)} tokens shorter than "
                         f"seq_len={seq_len}")
    starts = np.arange(num_windows)[:, None] * seq_len
    return stream[starts + np.arange(seq_len + 1)[None, :]]


def perplexity(model: TransformerLM, stream: np.ndarray, seq_len: int,
               batch_size: int = 8, max_tokens: int | None = 20_000) -> float:
    """Perplexity of ``model`` on ``stream`` at window length ``seq_len``."""
    stream = np.asarray(stream, dtype=np.int64).reshape(-1)
    if max_tokens is not None:
        stream = stream[:max_tokens]
    all_windows = _token_windows(stream, seq_len)
    num_windows = len(all_windows)
    total_nll = 0.0
    total_tokens = 0
    with no_grad():
        for start in range(0, num_windows, batch_size):
            windows = all_windows[start:start + batch_size]
            logits = model(windows[:, :-1]).data
            nll = nll_per_token(logits, windows[:, 1:])
            total_nll += float(nll.sum())
            total_tokens += nll.size
    mean_nll = total_nll / total_tokens
    # Clamp to the paper's display convention (their tables saturate ~1e6+).
    return float(np.exp(min(mean_nll, 30.0)))


def cached_perplexity(model: TransformerLM, stream: np.ndarray, seq_len: int,
                      cache_factory, batch_size: int = 8,
                      max_windows: int | None = 16) -> float:
    """Perplexity with every prediction produced through a KV cache.

    :func:`perplexity` does one full forward per window, so the KV cache
    never participates.  Here each window's tokens are fed one at a time
    (teacher forcing) through the serving engine's decode forward, so
    every next-token distribution attends over *cached* keys/values read
    the way serving reads them — the write and read path that an
    approximate cache (e.g. the FineQ-quantized paged cache) actually
    changes.  ``cache_factory`` receives the batch-row count and returns
    a fresh paged cache; comparing the result across factories isolates
    the accuracy cost of the cache format itself.

    Token-by-token evaluation costs ``seq_len`` decode forwards per
    window batch (each reading the whole cached context block by
    block), so unlike :func:`perplexity`'s 20k-token cap the default
    here is a modest ``max_windows=16``; pass ``None`` deliberately for
    a full-stream run.
    """
    all_windows = _token_windows(stream, seq_len, max_windows=max_windows)
    num_windows = len(all_windows)
    total_nll = 0.0
    total_tokens = 0
    with no_grad():
        for start in range(0, num_windows, batch_size):
            windows = all_windows[start:start + batch_size]
            cache = cache_factory(len(windows))
            for t in range(seq_len):
                logits = model(windows[:, t:t + 1], cache,
                               positions=np.full((len(windows), 1), t)).data
                nll = nll_per_token(logits[:, 0], windows[:, t + 1])
                total_nll += float(nll.sum())
                total_tokens += nll.size
    mean_nll = total_nll / total_tokens
    return float(np.exp(min(mean_nll, 30.0)))


def dataset_perplexity(model: TransformerLM, tokenizer: WordTokenizer,
                       dataset: str, seq_len: int, batch_size: int = 8,
                       max_tokens: int | None = 20_000) -> float:
    """Perplexity on a named held-out synthetic dataset."""
    stream = eval_stream(tokenizer, dataset)
    return perplexity(model, stream, seq_len, batch_size=batch_size,
                      max_tokens=max_tokens)
