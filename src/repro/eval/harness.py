"""Method x model x dataset sweep runner used by all accuracy experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.tokenizer import WordTokenizer
from repro.eval.perplexity import dataset_perplexity, eval_stream
from repro.nn.model import TransformerLM
from repro.quant.base import ModelQuantReport
from repro.quant.calibration import (calibration_batches, collect_layer_inputs,
                                     sequential_quantize)
from repro.quant.registry import get_quantizer


@dataclass
class MethodResult:
    """One (method, model) evaluation row."""

    method: str
    avg_bits: float
    perplexity: dict[str, float] = field(default_factory=dict)  # dataset -> ppl
    detail: dict = field(default_factory=dict)


def clone_model(model: TransformerLM) -> TransformerLM:
    """Fresh model instance with copied weights (quantization sandbox)."""
    clone = TransformerLM(model.config)
    clone.load_state_dict(model.state_dict())
    return clone


def quantized_perplexity(model: TransformerLM, tokenizer: WordTokenizer,
                         method: str, datasets: tuple[str, ...],
                         seq_len: int,
                         method_kwargs: dict | None = None,
                         calibration: np.ndarray | None = None,
                         max_tokens: int | None = 20_000
                         ) -> tuple[MethodResult, ModelQuantReport | None]:
    """Quantize a clone of ``model`` with ``method`` and measure perplexity.

    ``method="fp16"`` is the unquantized reference.  Calibration-based
    methods follow the faithful sequential protocol: each block is
    calibrated on activations from the already-quantized prefix.
    """
    work = clone_model(model)
    report = None
    if method == "fp16":
        avg_bits = 16.0
    else:
        quantizer = get_quantizer(method, **(method_kwargs or {}))
        if quantizer.needs_calibration:
            if calibration is None:
                calibration = default_calibration_batches(work, tokenizer)
            report = sequential_quantize(work, quantizer, calibration)
        else:
            report = quantizer.quantize_model(work)
        avg_bits = report.avg_bits
    result = MethodResult(method=method, avg_bits=avg_bits)
    for dataset in datasets:
        result.perplexity[dataset] = dataset_perplexity(
            work, tokenizer, dataset, seq_len, max_tokens=max_tokens)
    return result, report


def default_calibration_batches(model: TransformerLM, tokenizer: WordTokenizer,
                                num_tokens: int = 4096) -> np.ndarray:
    """Held-out mixed-domain calibration token windows.

    Mixing both corpora mirrors standard practice (GPTQ/OWQ calibrate on
    generic web text, not the evaluation set).
    """
    streams = [eval_stream(tokenizer, name, num_sentences=1000, seed=31)
               for name in ("wikitext-sim", "c4-sim")]
    stream = np.concatenate(streams)
    seq_len = min(128, model.config.max_seq_len)
    return calibration_batches(stream, num_tokens=num_tokens, seq_len=seq_len)


def run_method_sweep(model: TransformerLM, tokenizer: WordTokenizer,
                     methods: list[tuple[str, dict]],
                     datasets: tuple[str, ...] = ("wikitext-sim", "c4-sim"),
                     seq_len: int = 256,
                     max_tokens: int | None = 20_000) -> list[MethodResult]:
    """Evaluate several methods on one model, sharing calibration tokens."""
    calibration = None
    needs = any(m != "fp16" and get_quantizer(m, **(kw or {})).needs_calibration
                for m, kw in methods)
    if needs:
        calibration = default_calibration_batches(model, tokenizer)
    results = []
    for method, kwargs in methods:
        result, report = quantized_perplexity(
            model, tokenizer, method, datasets, seq_len,
            method_kwargs=kwargs, calibration=calibration,
            max_tokens=max_tokens)
        if report is not None:
            sample = next(iter(report.records.values()))
            result.detail["example_record"] = sample.detail
        results.append(result)
    return results
