"""Speculative decoding: cheap draft proposals, batched target verify.

Batch-1–4 decode is latency-bound: every emitted token costs one full
single-token target forward, and none of the serving machinery (batching,
prefix sharing, block-resident reads, chunked prefill) can shorten that
dependency chain.  Speculative decoding does: a small *draft* model
autoregressively proposes ``k`` tokens against its own private cache,
and the target model verifies all ``k + 1`` positions in **one**
multi-token forward over the existing block-resident prefill read path —
one target forward now emits ``accepted + 1`` tokens instead of one.

This module owns the draft side and the acceptance math; the engine
(:meth:`repro.serve.engine.GenerationEngine._spec_decode_step`) owns the
verify forward, commit/rollback against the target cache, and event
emission.  The split keeps every target-cache invariant in one place
while the draft remains a self-contained model+cache pipeline:

* :class:`SpeculativeConfig` — the user-facing knob (draft model, ``k``).
* :class:`SpeculativeDecoder` — per-row draft state: a private FP32
  paged draft KV cache (never quantized — the draft is supposed to be
  cheap *and* exact), per-row drafted-extent counters, and per-request
  draft RNG streams.

Determinism: draft proposals for non-greedy requests are sampled from a
*separate* per-request RNG stream (derived from ``params.seed`` with a
fixed salt), never from the request's sampling stream.  The emitted
tokens are drawn from the target logits with the request's own RNG —
one draw per emitted token, in stream order — so the emitted stream is
a pure function of the target logits and ``params.seed``, and
speculative sampled output equals target-only sampled output token for
token whatever the draft proposes.

The draft cache never rolls back: after a verify the drafted extent is
clamped to the committed prefix (``commit``), stale positions beyond it
are masked by the next catch-up's causal mask and overwritten in place,
and ``drop_rows`` (retire/cancel/preempt) returns the row's blocks to
the draft pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.model import TransformerLM
from repro.nn.paged_kv_cache import PagedKVCache
from repro.serve.sampling import _sample_tokens

#: Salt mixed into ``params.seed`` for the draft-proposal RNG stream, so
#: draft draws can never collide with (or perturb) the request's own
#: sampling stream.
_DRAFT_SEED_SALT = 0x5BEC


@dataclass(frozen=True)
class SpeculativeConfig:
    """Speculative-decoding knobs for :class:`GenerationEngine`.

    Emitted tokens are the target's own choices at every position — a
    draft token is accepted while it equals the target's choice — so
    greedy output is token-identical to target-only decode and sampled
    output is draw-for-draw identical.

    Parameters
    ----------
    draft_model:
        The proposal model.  Must share the target's vocabulary; should
        be much cheaper per forward (``llama-sim-3b`` drafting for
        ``llama-sim-13b`` is the intended pairing).
    k:
        Tokens drafted per decode step.  Each step then emits between 1
        and ``k + 1`` tokens per row; larger ``k`` amortises the target
        forward further but wastes draft work once the acceptance run
        length is exceeded.
    """

    draft_model: TransformerLM
    k: int = 4

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1 (tokens drafted per step)")

    def validate_target(self, target: TransformerLM) -> None:
        """Reject draft/target pairs that cannot verify each other."""
        draft_vocab = self.draft_model.config.vocab_size
        target_vocab = target.config.vocab_size
        if draft_vocab != target_vocab:
            raise ValueError(
                "draft and target must share a vocabulary: draft has "
                f"{draft_vocab} tokens, target has {target_vocab}")


def _pad_spans(spans: list, starts: np.ndarray, max_pos: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Batch ragged token spans for one span forward: ``(tokens,
    positions)``, both ``(len(spans), longest span)``.  Row ``j`` holds
    ``spans[j]`` zero-padded, at positions ``starts[j], starts[j] + 1,
    ...`` clamped into the RoPE table (``max_pos``) — padded K/V are
    never written (the forward writes true ``span_lens`` only) and
    padded logits are never used."""
    width = max(len(span) for span in spans)
    tokens = np.zeros((len(spans), width), dtype=np.int64)
    for j, span in enumerate(spans):
        tokens[j, :len(span)] = span
    positions = np.minimum(np.asarray(starts)[:, None] + np.arange(width),
                           max_pos)
    return tokens, positions


class SpeculativeDecoder:
    """Draft-side state of a speculative serving session.

    One instance per engine, sized to the engine's slot pool (``batch``
    rows of ``block_size``-token blocks, ``initial_blocks`` to start
    with): row ``r`` of the draft cache mirrors engine row ``r``.
    ``_len[r]`` is the drafted extent — how many of the request's
    tokens the draft model has processed into its cache; it trails the
    engine's committed length and is caught up with one ragged span
    forward at the start of every :meth:`propose`.
    """

    def __init__(self, config: SpeculativeConfig, batch: int,
                 block_size: int, initial_blocks: int):
        self.config = config
        self.draft = config.draft_model
        # The draft stays full precision by design — quantizing the
        # *draft* would lower acceptance to save memory nobody is short
        # of (the draft model is the small one).
        self.cache = PagedKVCache(self.draft.config.num_layers, batch=batch,
                                  block_size=block_size,
                                  initial_blocks=initial_blocks)
        self._len = np.zeros(batch, dtype=np.int64)
        self._req = np.full(batch, -1, dtype=np.int64)
        self._rng: list[np.random.Generator | None] = [None] * batch

    def drop_rows(self, rows: np.ndarray) -> None:
        """Forget a row's draft state (retire/cancel/preempt).

        The row's blocks return to the draft pool immediately; the RNG
        is discarded too, so a restored
        request re-derives its draft stream from ``params.seed`` (draft
        draws only steer *proposals*, never emitted tokens, so this
        cannot perturb the request's output stream).
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        self._len[rows] = 0
        self._req[rows] = -1
        for row in rows:
            self._rng[int(row)] = None
        self.cache.free_rows(rows)
        self.cache.trim(int(self._len.max()))

    def _catch_up(self, rows: np.ndarray, slots: list, starts: np.ndarray,
                  widths: np.ndarray) -> np.ndarray:
        """One ragged span forward of row ``j``'s tokens ``starts[j] ..
        starts[j] + widths[j]``; returns the ``(n, vocab)`` logits after
        each row's last one."""
        toks, positions = _pad_spans(
            [slot.tokens[s:s + w]
             for slot, s, w in zip(slots, starts, widths)],
            starts, self.draft.config.max_seq_len - 1)
        out = self.draft(toks, cache=self.cache, positions=positions,
                         rows=rows, span_lens=widths,
                         logits_positions=widths - 1)
        return out.data[:, 0]

    def propose(self, rows: np.ndarray, slots: list, lengths: np.ndarray,
                k_eff: np.ndarray):
        """Draft up to ``k_eff[j]`` proposal tokens for each row.

        ``rows`` are engine cache rows, ``slots`` the matching engine
        slots, ``lengths`` each row's committed context length ``L``
        (so the row's pending token sits at token index ``L``), and
        ``k_eff`` the per-row draft budget (all ``>= 1``).

        Returns ``(proposals, draft_tokens)``: per-row proposal arrays
        of ``k_eff[j]`` tokens, and the total number of token positions
        the draft model forwarded (for accelerator-projection
        accounting).
        """
        n = len(rows)
        params = [slot.request.params for slot in slots]
        rngs: list[np.random.Generator] = []
        for j in range(n):
            row = int(rows[j])
            rid = slots[j].request.request_id
            if self._req[row] != rid or self._rng[row] is None:
                # A fresh (or restored) request in this row: start its
                # draft stream and cache from scratch.
                self._req[row] = rid
                self._len[row] = 0
                self._rng[row] = np.random.default_rng(
                    (_DRAFT_SEED_SALT, params[j].seed))
            rngs.append(self._rng[row])

        # --- catch-up: a ragged span forward over every token the draft
        # --- has not yet seen (through the pending token at L).  A row
        # --- that just arrived owes its whole prompt while its
        # --- neighbours owe the <= k + 1 tokens a step leaves behind;
        # --- the two classes forward separately, or the short rows
        # --- would be padded to prompt width (same logits either way
        # --- only where both waves' rows * width GEMMs are row-stable) ---
        starts = self._len[rows].copy()
        widths = lengths + 1 - starts            # >= 1: _len trails L
        logits_now = np.zeros((n, self.draft.config.vocab_size),
                              dtype=np.float32)
        arrived = widths > self.config.k + 1
        for wave in (np.flatnonzero(arrived), np.flatnonzero(~arrived)):
            if len(wave):
                logits_now[wave] = self._catch_up(
                    rows[wave], [slots[j] for j in wave], starts[wave],
                    widths[wave])
        draft_tokens = int(widths.sum())

        # --- autoregressive proposals: sample d_{i+1}, forward it as a
        # single-token decode to get the logits for d_{i+2} (the last
        # proposal is never forwarded — the target's verify supersedes
        # the draft's opinion of what follows it) ---
        proposals: list[list[int]] = [[] for _ in range(n)]
        for i in range(int(k_eff.max())):
            sub = np.flatnonzero(k_eff > i)
            drafted = _sample_tokens(
                logits_now[sub], [params[j] for j in sub],
                [rngs[j] for j in sub])
            for jj, j in enumerate(sub):
                proposals[j].append(int(drafted[jj]))
            nxt = np.flatnonzero(k_eff > i + 1)
            if len(nxt) == 0:
                break
            pos = lengths[nxt] + i + 1
            tok = np.array([proposals[j][-1] for j in nxt], dtype=np.int64)
            out = self.draft(tok[:, None], cache=self.cache,
                             positions=pos[:, None], rows=rows[nxt])
            draft_tokens += len(nxt)
            logits_now[nxt] = out.data[:, -1]

        self._len[rows] = lengths + k_eff
        return ([np.asarray(p, dtype=np.int64) for p in proposals],
                draft_tokens)

    def commit(self, rows: np.ndarray, committed: np.ndarray) -> None:
        """Clamp drafted extents to the verify's committed lengths.

        A draft position is valid while the token it caches is still on
        the request's committed path — accepted proposals stay, the
        first rejected position and everything after it are clamped off.
        The clamp releases whole uncovered blocks via
        :meth:`PagedKVCache.truncate_rows`; stale tail positions
        inside kept storage are masked by the next catch-up's causal
        mask and overwritten in place.
        """
        new_lens = np.minimum(self._len[rows], committed)
        self.cache.truncate_rows(rows, new_lens)
        self._len[rows] = new_lens
        self.cache.trim(int(self._len.max()))
