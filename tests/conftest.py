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
def tiny_corpora() -> list[list[str]]:
    """The two 2 500-sentence corpora the tiny tokenizer and stream share."""
    return [generate_corpus(name, 2500, seed=0)
            for name in ("wikitext-sim", "c4-sim")]


@pytest.fixture(scope="session")
def tiny_tokenizer(tiny_corpora) -> WordTokenizer:
    return WordTokenizer.train(tiny_corpora, 256)


@pytest.fixture(scope="session")
def tiny_stream(tiny_tokenizer, tiny_corpora) -> np.ndarray:
    return np.concatenate([tiny_tokenizer.encode(tokens)
                           for tokens in tiny_corpora])


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
    kernel (step functions + per-bit packer), and fills the decoded
    store with values decoded back from its *own* payload.  Driving it
    and the production cache with the same operations must leave
    byte-identical pools.
    """
    from repro.core.clusters import cluster_weights
    from repro.core.encoding import encode_channels_stepwise
    from repro.core.packing import pack_matrix_bitwise
    from repro.nn.kv_codec import FineQCodec
    from repro.nn.paged_kv_cache import QuantizedPagedKVCache
    from tests.kv_oracle import decoded_blocks, payload_arrays

    def quantize_stepwise(blocks):
        n, heads, block, head_dim = blocks.shape
        matrix = blocks.transpose(0, 1, 3, 2).reshape(-1, block)
        clusters, _ = cluster_weights(matrix)
        codes, schemes, scales = encode_channels_stepwise(clusters)
        packed = pack_matrix_bitwise(codes, schemes, scales.reshape(-1),
                                     matrix.shape)
        return packed.payload, packed.scales

    class StepwiseFlushCodec(FineQCodec):
        def _flush(self, layers, ids, k_blocks, v_blocks, charge=True):
            for i, (layer, block) in enumerate(zip(layers, ids)):
                for payloads, scales, data in zip(*payload_arrays(self.cache),
                                                  (k_blocks, v_blocks)):
                    payloads[layer, block], scales[layer, block] = \
                        quantize_stepwise(data[i][None])
                for array, values in zip(self.store.arrays[:2],
                                         decoded_blocks(self.cache, layer,
                                                        [block])):
                    array[layer, block] = values[0]
            stats = self.cache._read_stats
            stats.flush_calls += 2 * len(ids)
            stats.flush_blocks += 2 * len(ids)
            if charge:
                stats.streamed_bytes += len(ids) * 2 * self.block_bytes

    class StepwiseFlushCache(QuantizedPagedKVCache):
        codec_type = StepwiseFlushCodec

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
def assert_store_coherent():
    """Checker for a quantized cache's decoded store: every sealed block
    any row owns reads, in every layer, bitwise what its payload
    decodes to, and the zero block every ``-1`` reads is zero."""
    from tests.kv_oracle import decoded_blocks

    def check(cache):
        k_store, v_store = cache.codec.store.arrays[:2]
        owned = np.unique(np.concatenate(
            [cache._tables[row, :cache._blocks_per_row[row]]
             for row in range(cache.batch)]))
        for layer in range(cache.num_layers if owned.size else 0):
            for vals, want in zip((k_store, v_store),
                                  decoded_blocks(cache, layer, owned)):
                assert vals[layer, owned].tobytes() == want.tobytes()
        assert not k_store[:, -1].any()
        assert not v_store[:, -1].any()

    return check
