"""What ``repro.serve`` exports, and who may import it."""

import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.serve
import repro.serve.gateway

PACKAGES = [repro.serve, repro.serve.gateway]
#: The retired sweep layer; perfbench is the one benchmark system.
RETIRED_SUFFIXES = ("Point", "Report", "_sweep", "_point")
RETIRED_NAMES = ("serve_session", "mixed_traffic_session", "export_report",
                 "sequential_throughput", "engine_throughput",
                 "stream_latency", "dataclass_to_dict")


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve_and_are_unique(package):
    assert len(set(package.__all__)) == len(package.__all__)
    for name in package.__all__:
        assert getattr(package, name) is not None


def test_sweep_layer_and_cli_are_gone():
    for package in PACKAGES:
        for name in dir(package):
            assert not name.endswith(RETIRED_SUFFIXES), name
        for name in RETIRED_NAMES:
            assert not hasattr(package, name), name
    for module in ("repro.serve.__main__", "repro.serve.bench",
                   "repro.serve.gateway.bench"):
        assert importlib.util.find_spec(module) is None, module


def test_offline_half_does_not_import_serving():
    """Quantization, evaluation, experiments and the accelerator model
    load without the engine, the gateway, sqlite3 or http.server."""
    code = ("import sys, repro.eval, repro.experiments, repro.quant, "
            "repro.hw; print([m for m in sys.modules "
            "if m.startswith('repro.serve')])")
    src = str(Path(repro.serve.__file__).parents[2])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_engine_and_forward_take_exactly_these_arguments():
    """An option cannot come back (or arrive) unreviewed."""
    from repro.nn import TransformerLM

    assert list(inspect.signature(
        repro.serve.GenerationEngine.__init__).parameters) == [
        "self", "model", "max_batch_size", "rng", "kv_cache",
        "block_size", "scheduler", "prefix_sharing", "prefix_blocks",
        "max_pool_blocks", "record_trace", "prefill_chunk_tokens",
        "speculative"]
    assert list(inspect.signature(TransformerLM.forward).parameters) == [
        "self", "tokens", "cache", "positions", "rows", "span_lens",
        "logits_positions"]
    assert [field.name for field in dataclasses.fields(
        repro.serve.SpeculativeConfig)] == ["draft_model", "k"]
    assert list(inspect.signature(
        repro.serve.ServingGateway.__init__).parameters) == [
        "self", "engine", "queue", "max_queue_depth", "max_inflight", "rng"]
    # No optional members: a policy lacking one is not a Scheduler.
    protocol = repro.serve.Scheduler
    assert sorted(name for name in {*vars(protocol),
                                    *protocol.__annotations__}
                  if not name.startswith("_")) == [
        "name", "preempt", "prefill_order", "select", "victims_for_blocks"]


def test_paged_caches_take_exactly_these_arguments():
    """The format is the class, not an option; and the FineQ cache is the
    FP32 one built with another codec type, so it defines no method — a
    per-format override of a write, read, sharing, rollback or
    accounting path cannot creep back.  Nor can a per-codec read loop,
    a per-codec view of the storage, or per-layer block pools beside
    the one block store."""
    from repro.nn import PagedKVCache, QuantizedPagedKVCache
    from repro.nn.kv_codec import FineQCodec, FP32Codec

    common = ["self", "num_layers", "batch", "block_size", "initial_blocks",
              "max_blocks", "chunk_blocks"]
    assert list(inspect.signature(
        PagedKVCache.__init__).parameters) == common
    assert list(inspect.signature(
        QuantizedPagedKVCache.__init__).parameters) == common
    assert [name for name, value in vars(QuantizedPagedKVCache).items()
            if inspect.isfunction(value)] == []
    assert QuantizedPagedKVCache.codec_type is FineQCodec
    # Both codecs read through their shared chunk loop, from their store.
    for codec in (FP32Codec, FineQCodec):
        assert "read" not in vars(codec)
        assert "_views" not in vars(codec)
    src = Path(repro.serve.__file__).parents[1]
    assert not [path for path in src.rglob("*.py")
                if "block_pools" in path.read_text()]


def test_durable_queue_module_needs_neither_engine_nor_model():
    """``gateway/queue.py`` journals ``SamplingParams`` through
    ``serve/params.py`` alone.  The ``repro`` and ``repro.serve``
    package ``__init__``s import the model and the engine for their
    re-exports, so they are stood in for by bare packages here: what is
    pinned is the import graph of the two modules themselves."""
    root = Path(repro.serve.__file__).parents[1]
    code = f"""
import sys, types
for name, path in (("repro", ""), ("repro.serve", "serve"),
                   ("repro.serve.gateway", "serve/gateway")):
    package = types.ModuleType(name)
    package.__path__ = [{str(root)!r} + "/" + path]
    sys.modules[name] = package
import repro.serve.gateway.queue
print(sorted(m for m in sys.modules if m.startswith("repro.")))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == str([
        "repro.serve", "repro.serve.gateway", "repro.serve.gateway.queue",
        "repro.serve.params"])


#: Span targets ``perfbench/trace.py`` lists but has never resolved
#: (methods a class inherits rather than defines; ``write_rows`` went in
#: PR 15; the paged caches' ``append`` went when ``cached_perplexity``
#: moved onto the serving forward; ``DequantBlockCache.lookup`` went
#: when the dequant memo became a decoded store that reads never miss):
#: the tracer skips them.  Everything
#: else it names must exist.  ``perfbench/`` is deliberately left as it
#: is — it is the benchmark both sides of a change run — so retired
#: names are pinned here rather than deleted there.
UNRESOLVED_SPAN_TARGETS = {
    ("repro.nn.paged_kv_cache", "PagedKVCache", "append"),
    ("repro.nn.paged_kv_cache", "QuantizedPagedKVCache", "append"),
    ("repro.nn.paged_kv_cache", "PagedKVCache", "write_rows"),
    ("repro.nn.paged_kv_cache", "QuantizedPagedKVCache", "write_token"),
    ("repro.nn.paged_kv_cache", "QuantizedPagedKVCache", "write_rows"),
    ("repro.nn.paged_kv_cache", "QuantizedPagedKVCache", "prefill_rows"),
    ("repro.nn.paged_kv_cache", "QuantizedPagedKVCache",
     "context_chunk_pair"),
    ("repro.nn.paged_kv_cache", "QuantizedPagedKVCache", "context_blocks"),
    ("repro.nn.kv_cache", "KVCache", "write_token"),
    ("repro.nn.kv_cache", "KVCache", "write_rows"),
    ("repro.nn.kv_cache", "KVCache", "prefill_rows"),
    ("repro.nn.paged_kv_cache", "DequantBlockCache", "lookup"),
}


def test_everything_perfbench_patches_still_resolves():
    """perfbench installs its spans from outside, by
    ``(module, class, method)`` path; a refactor under ``src/`` that
    moves one silently drops its layer metrics."""
    sys.path.insert(0, str(Path(repro.serve.__file__).parents[3]))
    try:
        from perfbench.trace import FUNCTION_SPANS, METHOD_SPANS
    finally:
        sys.path.pop(0)
    missing = set()
    for module, class_name, methods, _span in METHOD_SPANS:
        cls = getattr(importlib.import_module(module), class_name)
        missing |= {(module, class_name, method) for method in methods
                    if method not in vars(cls)}
    for module, function, _span in FUNCTION_SPANS:
        assert hasattr(importlib.import_module(module), function), function
    assert missing == UNRESOLVED_SPAN_TARGETS
