"""LLaMA-architecture neural-network substrate (numpy + repro.autograd).

The block layout follows the paper's Fig. 2(a): RMSNorm -> causal
self-attention (QKV generation, attention, output linear) -> RMSNorm ->
feed-forward network (Linear, ReLU, Linear), with residual connections
and rotary position embeddings on Q/K.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import Linear, Embedding, RMSNorm
from repro.nn.rope import RotaryEmbedding
from repro.nn.attention import MultiHeadAttention
from repro.nn.block_attention import block_decode_attention
from repro.nn.transformer import FeedForward, TransformerBlock
from repro.nn.model import ModelConfig, TransformerLM
from repro.nn.kv_cache import KVCache
from repro.nn.paged_kv_cache import (DEFAULT_BLOCK_SIZE,
                                     DEFAULT_CHUNK_BLOCKS, DequantBlockCache,
                                     KVReadStats, PagedKVCache,
                                     QuantizedPagedKVCache)

__all__ = [
    "Module", "Parameter", "Linear", "Embedding", "RMSNorm",
    "RotaryEmbedding", "MultiHeadAttention", "FeedForward",
    "TransformerBlock", "ModelConfig", "TransformerLM", "KVCache",
    "PagedKVCache", "QuantizedPagedKVCache", "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CHUNK_BLOCKS", "DequantBlockCache", "KVReadStats",
    "block_decode_attention",
]
