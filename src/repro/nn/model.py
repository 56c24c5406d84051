"""Decoder-only LLaMA-style language model."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from typing import TYPE_CHECKING

from repro.autograd import Tensor, no_grad
from repro.nn.block_attention import (additive_mask, block_decode_attention,
                                      block_prefill_attention)
from repro.nn.layers import Linear, Embedding, RMSNorm
from repro.nn.module import Module
from repro.nn.rope import RotaryEmbedding, rotate
from repro.nn.transformer import TransformerBlock
from repro.nn.kv_cache import KVCache

if TYPE_CHECKING:  # runtime import would cycle through repro.core
    from repro.nn.paged_kv_cache import PagedKVCache


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters.

    ``name`` identifies zoo entries (e.g. ``llama-sim-7b``); the remaining
    fields are the standard decoder-only knobs.
    """

    name: str = "custom"
    vocab_size: int = 512
    d_model: int = 128
    num_layers: int = 4
    num_heads: int = 4
    d_ff: int = 512
    max_seq_len: int = 512
    rope_theta: float = 10000.0
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class TransformerLM(Module):
    """Token embedding, N transformer blocks, final norm, LM head.

    The LM head and embeddings stay in high precision (as in the paper and
    its baselines); the quantization surface is the per-block linear
    layers, enumerated by :meth:`quantizable_linears`.
    """

    def __init__(self, config: ModelConfig):
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.embed = Embedding(config.vocab_size, config.d_model, rng=rng)
        self.rope = RotaryEmbedding(config.d_model // config.num_heads,
                                    config.max_seq_len, theta=config.rope_theta)
        self.blocks = [
            TransformerBlock(config.d_model, config.num_heads, config.d_ff,
                             self.rope, rng=rng)
            for _ in range(config.num_layers)
        ]
        self.final_norm = RMSNorm(config.d_model)
        self.head = Linear(config.d_model, config.vocab_size, rng=rng)

    def forward(self, tokens: np.ndarray,
                cache: KVCache | PagedKVCache | None = None,
                positions: np.ndarray | None = None,
                rows: np.ndarray | None = None,
                span_lens: np.ndarray | None = None,
                logits_positions: np.ndarray | None = None) -> Tensor:
        """Return logits ``(batch, seq, vocab)`` for integer ``tokens``.

        Without ``positions`` this is the autograd path: training,
        ``perplexity``, and — with a rectangular :class:`KVCache`, the
        only cache it takes — the sequential ``generate`` reference
        (``cache.append`` at a uniform offset).  With a paged ``cache``
        **and** ``positions`` (``(batch, seq)`` absolute positions) it
        is the serving forward — the engine's ragged batch and
        ``cached_perplexity``'s teacher-forced decode — run by
        :meth:`_serve_forward` on raw arrays with bit-identical logits;
        ``rows``, ``span_lens`` and ``logits_positions`` belong to that
        pass only.
        """
        tokens = np.asarray(tokens)
        if tokens.ndim == 1:
            tokens = tokens[None, :]
        if cache is not None and positions is not None:
            return Tensor(self._serve_forward(
                tokens, cache, positions, rows, span_lens, logits_positions))
        if any(arg is not None for arg in (
                positions, rows, span_lens, logits_positions)):
            raise ValueError("the serving arguments need both a paged "
                             "cache and positions")
        x = self.embed(tokens)
        for index, block in enumerate(self.blocks):
            x = block(x, cache=cache, layer_index=index)
        return self.head(self.final_norm(x))

    def _serve_forward(self, tokens, cache, positions, rows, span_lens,
                       logits_positions) -> np.ndarray:
        """Autograd-free serving pass: write the span, attend the blocks.

        The same float32 numpy ops in the same order on operands laid
        out as on the ``Tensor`` path, minus the graph objects.  Each
        row rotates by its own ``positions`` (checked and gathered once
        for all layers), every layer writes its new K/V without reading
        anything back and :mod:`repro.nn.block_attention` iterates the
        rows' block tables.  Batch entry ``j`` serves cache row
        ``rows[j]`` (``None`` = every row in order; ``tokens`` holds
        only the engine's *active* slots) and starts at
        ``positions[j, 0]``, the context that row already holds.

        * Single-token decode (``span_lens`` unset): one token per row.
        * Span prefill: row ``j``'s first ``span_lens[j]`` tokens are
          real and get written; the rest of the rectangle is padding
          (its positions clamped into the RoPE table by the caller, its
          K/V never written, its logits never used).

        Causality is derived, not passed: every query attends the
        cached positions up to its own — one additive ``(batch, 1, seq,
        total)`` mask, ``t <= positions``, built here once per forward:
        a span's ends at its *reach*, the last key any of its queries
        can see (as its block read does); a decode's spans the cache.

        ``logits_positions`` (``(batch,)`` indices into ``seq``) runs the
        final norm and vocab projection only at each row's selected
        position, returning ``(batch, 1, vocab)``; a *negative* entry
        skips the head for that row (its logits return as zeros): a
        mid-prompt prefill chunk samples nothing this step.
        """
        batch, seq = tokens.shape
        heads = self.config.num_heads
        split = (batch, seq, heads, self.config.d_model // heads)
        inv_dim = np.float32(1.0 / self.config.d_model)
        cos, sin = self.rope.tables_at(positions)

        def project(layer, h):          # -> (batch, heads, seq, head_dim)
            return layer.apply(h).reshape(split).transpose(0, 2, 1, 3)

        starts = positions[:, 0]
        reach = int((starts + (1 if span_lens is None else span_lens)).max())
        total = max(cache.seq_len, reach) if span_lens is None else reach
        kv_mask = additive_mask(
            np.arange(total) <= positions[:, :, None])[:, None]
        x = self.embed.weight.data[tokens]
        for index, block in enumerate(self.blocks):
            attn = block.attn
            h = block.attn_norm.apply(x, inv_dim)
            q = rotate(project(attn.wq, h), cos, sin)
            k = rotate(project(attn.wk, h), cos, sin)
            v = project(attn.wv, h)
            if span_lens is not None:
                cache.prefill_rows(index, k, v, rows, starts, span_lens)
                context = block_prefill_attention(
                    q, cache, index, kv_mask=kv_mask, rows=rows)
            else:
                cache.write_token(index, k, v, starts, rows=rows)
                context = block_decode_attention(
                    q, cache, index, kv_mask=kv_mask, rows=rows)
            x = x + attn.wo.apply(
                context.transpose(0, 2, 1, 3).reshape(batch, seq, -1))
            h = block.ffn_norm.apply(x, inv_dim)
            x = x + block.ffn.down.apply(
                np.maximum(block.ffn.up.apply(h), 0.0))
        if logits_positions is None:
            return self.head.apply(self.final_norm.apply(x, inv_dim))
        last = np.asarray(logits_positions, dtype=np.int64)
        keep = np.flatnonzero(last >= 0)
        picked = self.head.apply(self.final_norm.apply(
            x[keep, last[keep]][:, None], inv_dim))
        if len(keep) == len(last):
            return picked
        logits = np.zeros((batch, 1, self.config.vocab_size),
                          dtype=np.float32)
        logits[keep] = picked
        return logits

    # ------------------------------------------------------------------ #
    # quantization surface
    # ------------------------------------------------------------------ #
    def quantizable_linears(self) -> list[tuple[str, Linear]]:
        """Every linear layer the paper's methods quantize (attn + FFN)."""
        layers = []
        for i, block in enumerate(self.blocks):
            layers.extend([
                (f"blocks.{i}.attn.wq", block.attn.wq),
                (f"blocks.{i}.attn.wk", block.attn.wk),
                (f"blocks.{i}.attn.wv", block.attn.wv),
                (f"blocks.{i}.attn.wo", block.attn.wo),
                (f"blocks.{i}.ffn.up", block.ffn.up),
                (f"blocks.{i}.ffn.down", block.ffn.down),
            ])
        return layers

    def weight_bytes(self, bits_per_weight: float = 16.0) -> int:
        """Model-weight footprint at a given storage precision."""
        return int(self.num_parameters() * bits_per_weight / 8)

    # ------------------------------------------------------------------ #
    # generation
    # ------------------------------------------------------------------ #
    def generate(self, prompt: np.ndarray, max_new_tokens: int,
                 temperature: float = 1.0,
                 rng: np.random.Generator | None = None) -> np.ndarray:
        """Sample a continuation using the KV cache (greedy if T == 0).
        Oracle: the one-request-at-a-time reference the engine's greedy
        ``"paged"`` output is asserted token-identical to."""
        rng = rng or np.random.default_rng(0)
        prompt = np.asarray(prompt).reshape(-1)
        cache = KVCache(self.config.num_layers)
        tokens = list(prompt)
        with no_grad():
            logits = self.forward(prompt[None, :], cache=cache)
            for step in range(max_new_tokens):
                last = logits.data[0, -1]
                if temperature <= 0.0:
                    next_token = int(last.argmax())
                else:
                    scaled = last / temperature
                    scaled -= scaled.max()
                    probs = np.exp(scaled)
                    probs /= probs.sum()
                    next_token = int(rng.choice(len(probs), p=probs))
                tokens.append(next_token)
                if step + 1 < max_new_tokens:
                    logits = self.forward(np.array([[next_token]]), cache=cache)
        return np.asarray(tokens, dtype=np.int64)
