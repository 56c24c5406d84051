"""Perplexity harness and sweep tests."""

import numpy as np
import pytest

from repro.data import WordTokenizer
from repro.eval import (cached_perplexity, perplexity, clone_model,
                        quantized_perplexity, run_method_sweep)
from repro.eval.perplexity import _token_windows, eval_stream
from repro.eval.tables import format_table, format_markdown, format_number
from repro.models.configs import tiny_config
from repro.nn import PagedKVCache, QuantizedPagedKVCache, TransformerLM


def test_perplexity_of_untrained_model_near_vocab(tiny_model, tiny_stream):
    """An untrained model is near-uniform: PPL ~ vocab size."""
    untrained = TransformerLM(tiny_config(vocab_size=256, seed=77))
    ppl = perplexity(untrained, tiny_stream[:4000], seq_len=64)
    assert 100 < ppl < 600


def test_trained_model_much_better_than_chance(tiny_model, tiny_stream):
    ppl = perplexity(tiny_model, tiny_stream[:4000], seq_len=64)
    assert ppl < 40


def test_perplexity_requires_enough_tokens(tiny_model):
    with pytest.raises(ValueError):
        perplexity(tiny_model, np.arange(10), seq_len=64)


def test_token_windows_rejects_nonpositive_max_windows():
    with pytest.raises(ValueError, match="max_windows must be >= 1"):
        _token_windows(np.arange(1000), 8, max_windows=0)


def test_cached_perplexity_fp32_matches_full_forward(tiny_model, tiny_stream):
    """Feeding tokens through the FP32 paged cache changes nothing."""
    stream = tiny_stream[:4 * 32 + 1]
    plain = perplexity(tiny_model, stream, seq_len=32, batch_size=2)
    layers = tiny_model.config.num_layers
    for factory in (lambda b: PagedKVCache(layers, batch=b),
                    lambda b: PagedKVCache(layers, batch=b, block_size=8)):
        cached = cached_perplexity(tiny_model, stream, 32, factory,
                                   batch_size=2)
        np.testing.assert_allclose(cached, plain, rtol=1e-6)


def test_cached_perplexity_quantized_close_to_exact(tiny_model, tiny_stream):
    """The FineQ cache degrades perplexity only slightly on a tiny model."""
    stream = tiny_stream[:2 * 32 + 1]
    layers = tiny_model.config.num_layers
    exact = cached_perplexity(tiny_model, stream, 32,
                              lambda b: PagedKVCache(layers, batch=b),
                              batch_size=2)
    quant = cached_perplexity(
        tiny_model, stream, 32,
        lambda b: QuantizedPagedKVCache(layers, batch=b, block_size=8),
        batch_size=2)
    assert abs(quant - exact) / exact < 0.25


@pytest.mark.parametrize("cls", [PagedKVCache, QuantizedPagedKVCache])
def test_cached_perplexity_reads_through_the_serving_path(
        tiny_model, tiny_stream, cls, monkeypatch):
    """Every prediction reads the cache as the engine does — block
    attention iterating ``context_blocks``, on fineq through the
    dequant memo — and no paged cache keeps a dense ``append`` path."""
    reads = []
    real = cls.context_blocks

    def spy(self, layer, *args, **kwargs):
        reads.append(layer)
        return real(self, layer, *args, **kwargs)

    monkeypatch.setattr(cls, "context_blocks", spy)
    caches = []

    def factory(rows):
        caches.append(cls(tiny_model.config.num_layers, batch=rows))
        return caches[-1]

    cached_perplexity(tiny_model, tiny_stream[:2 * 32 + 1], 32, factory,
                      batch_size=2)
    assert len(reads) >= 32 * tiny_model.config.num_layers
    assert not hasattr(caches[0], "append")
    if cls is QuantizedPagedKVCache:
        assert caches[0].take_read_stats().dequant_hits > 0


def test_eval_stream_disjoint_from_training(tiny_tokenizer):
    a = eval_stream(tiny_tokenizer, "wikitext-sim")
    b = eval_stream(tiny_tokenizer, "c4-sim")
    assert len(a) > 1000 and len(b) > 1000
    assert not np.array_equal(a[:100], b[:100])


def test_clone_model_independent(tiny_model):
    clone = clone_model(tiny_model)
    clone.blocks[0].ffn.up.weight.data[:] = 0.0
    assert not np.allclose(tiny_model.blocks[0].ffn.up.weight.data, 0.0)


def test_quantized_perplexity_fp16_reference(tiny_model, tiny_tokenizer):
    result, report = quantized_perplexity(
        tiny_model, tiny_tokenizer, "fp16", ("wikitext-sim",), seq_len=64,
        max_tokens=3000)
    assert report is None
    assert result.avg_bits == 16.0
    assert result.perplexity["wikitext-sim"] > 1.0


def test_method_sweep_ordering(tiny_model, tiny_tokenizer):
    """The paper's headline ordering on the tiny substrate."""
    methods = [("fp16", None), ("rtn", {"bits": 2}), ("fineq", None)]
    results = run_method_sweep(tiny_model, tiny_tokenizer, methods,
                               datasets=("wikitext-sim",), seq_len=64,
                               max_tokens=3000)
    by_method = {r.method: r.perplexity["wikitext-sim"] for r in results}
    assert by_method["fp16"] < by_method["fineq"] < by_method["rtn"]


def test_format_number_scientific_for_huge():
    assert "E+" in format_number(7.4e5)
    assert format_number(12.345) == "12.35"


def test_format_table_and_markdown():
    text = format_table(["a", "b"], [[1, 2.5], ["x", 1e6]], title="T")
    assert "T" in text and "x" in text
    md = format_markdown(["a"], [[3.14159]])
    assert md.startswith("| a |")
    assert "3.14" in md
