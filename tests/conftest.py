"""Shared fixtures: tiny trained models and synthetic data."""

from __future__ import annotations

import weakref

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
    crossing, K and V in separate calls of the reference round trip
    (step functions, per-bit packer, then a decode of that payload), and
    stores the decoded values.  Driving it and the production cache with
    the same operations must leave byte-identical stores.
    """
    from repro.nn.kv_codec import FineQCodec
    from repro.nn.paged_kv_cache import QuantizedPagedKVCache
    from tests.kv_oracle import reference_quantize

    class StepwiseFlushCodec(FineQCodec):
        def _flush(self, layers, ids, k_blocks, v_blocks, charge=True):
            for i, (layer, block) in enumerate(zip(layers, ids)):
                for array, data in zip(self.store.arrays,
                                       (k_blocks, v_blocks)):
                    array[layer, block] = reference_quantize(data[i][None])[0]
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


@pytest.fixture(scope="module")
def assert_store_coherent():
    """Checker for a quantized cache's store: every sealed block any row
    owns reads, in every layer, bitwise what the reference round trip
    (``tests.kv_oracle.reference_quantize``) gives for the FP32 contents
    sealed into it, and the zero block every ``-1`` reads is zero.

    While the fixture is active, every FineQ codec set up records what
    it seals: its ``_flush`` and its store's ``copy`` are wrapped, per
    instance, to note each ``(layer, block id)``'s FP32 contents and to
    carry them along with a copied block.  A cache set up before that
    cannot be checked.
    """
    from repro.nn.kv_codec import FineQCodec
    from tests.kv_oracle import reference_quantize

    sealed_by_codec = weakref.WeakKeyDictionary()
    real_setup = FineQCodec.setup

    def recording_setup(codec):
        real_setup(codec)
        sealed = sealed_by_codec[codec] = {}
        flush, copy = codec._flush, codec.store.copy
        layers = codec.cache.num_layers

        def recording_flush(at, ids, k_blocks, v_blocks, charge=True):
            for layer, block, k, v in zip(at, ids, k_blocks, v_blocks):
                sealed[int(layer), int(block)] = k.copy(), v.copy()
            flush(at, ids, k_blocks, v_blocks, charge)

        def recording_copy(src, dst):
            for layer in range(layers):
                if (layer, src) in sealed:
                    sealed[layer, dst] = sealed[layer, src]
                else:
                    sealed.pop((layer, dst), None)
            copy(src, dst)

        codec._flush, codec.store.copy = recording_flush, recording_copy

    def check(cache):
        sealed = sealed_by_codec[cache.codec]
        k_store, v_store = cache.codec.store.arrays
        owned = np.unique(np.concatenate(
            [cache._tables[row, :cache._blocks_per_row[row]]
             for row in range(cache.batch)]))
        keys = [(layer, int(block)) for layer in range(cache.num_layers)
                for block in owned]
        if keys:
            want = [reference_quantize(np.stack([sealed[key][operand]
                                                 for key in keys]))
                    for operand in (0, 1)]
            at, ids = np.array(keys).T
            assert k_store[at, ids].tobytes() == want[0].tobytes()
            assert v_store[at, ids].tobytes() == want[1].tobytes()
        assert not k_store[:, -1].any()
        assert not v_store[:, -1].any()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FineQCodec, "setup", recording_setup)
        yield check
