"""Shared fixtures: tiny trained models and synthetic data."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import generate_corpus, WordTokenizer, split_stream
from repro.models import OutlierSpec, pretrain_column_outliers, inject_outliers
from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.train import Trainer, TrainConfig


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_tokenizer() -> WordTokenizer:
    corpora = [generate_corpus(name, 2500, seed=0)
               for name in ("wikitext-sim", "c4-sim")]
    return WordTokenizer.train(corpora, 256)


@pytest.fixture(scope="session")
def tiny_stream(tiny_tokenizer) -> np.ndarray:
    parts = [tiny_tokenizer.encode(generate_corpus(name, 2500, seed=0))
             for name in ("wikitext-sim", "c4-sim")]
    return np.concatenate(parts)


@pytest.fixture(scope="session")
def tiny_model(tiny_stream) -> TransformerLM:
    """A small trained model with injected LLM-like outliers.

    Session-scoped: trained once (~10 s) and shared.  Tests must not
    mutate it — quantization tests clone first.
    """
    config = tiny_config(vocab_size=256, seed=5)
    model = TransformerLM(config)
    spec = OutlierSpec(seed=5)
    pretrain_column_outliers(model, spec)
    train, val = split_stream(tiny_stream, 0.05)
    trainer = Trainer(model, train,
                      TrainConfig(steps=150, batch_size=16, seq_len=64,
                                  lr=3e-3, weight_decay=0.02, seed=5))
    trainer.train()
    inject_outliers(model, spec)
    return model


@pytest.fixture(scope="session")
def gaussian_weight() -> np.ndarray:
    """A representative weight matrix: Gaussian bulk + column outliers."""
    gen = np.random.default_rng(99)
    weight = gen.standard_normal((96, 120)) * 0.05
    cols = gen.choice(120, 3, replace=False)
    weight[:, cols] *= 9.0
    return weight


@pytest.fixture(scope="session")
def stepwise_fineq_cache():
    """``QuantizedPagedKVCache`` flushing the pre-fusion way.

    Each layer quantizes its own write buffer at its own boundary
    crossing, K and V in separate calls of the line-by-line reference
    kernel (step functions + per-bit packer), and nothing is written
    through into the dequant memo.  Driving it and the production cache
    with the same operations must leave byte-identical pools.
    """
    from repro.core.clusters import cluster_weights
    from repro.core.encoding import encode_channels_stepwise
    from repro.core.packing import pack_matrix_bitwise
    from repro.nn.kv_codec import FineQCodec
    from repro.nn.paged_kv_cache import QuantizedPagedKVCache

    def quantize_stepwise(blocks):
        n, heads, block, head_dim = blocks.shape
        matrix = blocks.transpose(0, 1, 3, 2).reshape(-1, block)
        clusters, _ = cluster_weights(matrix)
        codes, schemes, scales = encode_channels_stepwise(clusters)
        packed = pack_matrix_bitwise(codes, schemes, scales.reshape(-1),
                                     matrix.shape)
        return packed.payload, packed.scales

    class StepwiseFlushCodec(FineQCodec):
        def _flush(self, layers, ids, k_blocks, v_blocks, memoise=True):
            for i, (layer, block) in enumerate(zip(layers, ids)):
                for payloads, scales, data in (
                        (self._payload_k, self._scale_k, k_blocks),
                        (self._payload_v, self._scale_v, v_blocks)):
                    payloads[layer][block], scales[layer][block] = \
                        quantize_stepwise(data[i][None])
            self.cache._read_stats.flush_calls += 2 * len(ids)
            self.cache._read_stats.flush_blocks += 2 * len(ids)
            self.dequant_cache.invalidate(ids, layers)

    class StepwiseFlushCache(QuantizedPagedKVCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.codec = StepwiseFlushCodec(self, self.codec.budget_bytes)

        def write_token(self, layer, *args, **kwargs):
            # Sibling layers look empty, so a crossing flushes `layer`
            # alone — every layer is a lagging layer.
            others = np.arange(self.num_layers) != layer
            saved = self.codec._buf_end[others].copy()
            self.codec._buf_end[others] = 0
            try:
                return super().write_token(layer, *args, **kwargs)
            finally:
                self.codec._buf_end[others] = saved

    return StepwiseFlushCache


@pytest.fixture(scope="session")
def assert_memo_coherent():
    """Checker for a quantized cache's dequant memo: every resident
    entry is bitwise the dequant of its pool block, its key is recorded,
    the zero slot is zero, and no block on the free list is resident."""
    def check(cache):
        memo = cache.codec.dequant_cache
        table = memo._slot_table[:, :-1]
        layers, blocks = np.nonzero(table >= 0)
        assert len(memo) == len(layers) <= memo.capacity
        for layer, block in zip(layers, blocks):
            slot = table[layer, block]
            assert memo._occupied[slot]
            assert (memo._key_layer[slot], memo._key_block[slot]) == \
                (layer, block)
            for store, kind in ((memo._store_k, "k"), (memo._store_v, "v")):
                want = cache.codec._dequant_kind(layer, np.array([block]),
                                                 kind)[0]
                assert store[slot].tobytes() == want.tobytes()
        assert not memo._store_k[0].any() and not memo._store_v[0].any()
        free = [b for b in cache._free if b < table.shape[1]]
        assert (table[:, free] < 0).all()

    return check
