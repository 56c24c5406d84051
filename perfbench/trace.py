"""Span tracing installed from outside the program.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` wraps the
public callables listed in :data:`METHOD_SPANS` and
:data:`FUNCTION_SPANS` for the length of a traced round and puts the
originals back afterwards:

* methods are replaced on the class that defines them (``setattr``);
* module functions are replaced in every loaded ``repro.*`` and
  ``perfbench.*`` module whose global *is* the original, so call sites
  that did ``from x import f`` are caught too.

A span is ``(name, start_ns, end_ns, parent, step_id, nested)``:
``parent`` is the index of the enclosing span (``-1`` for a root),
``step_id`` is shared by everything inside one ``step()``/``pump()``,
and ``nested`` is positive when an enclosing span already has the same
name (an override calling its base method), so that ``calls`` and
``busy_s`` count the outermost only (``-1`` marks the resumption of a
generator, which is busy time but not another call).  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np

#: (module, class, methods) -> span name.  A class is patched only where
#: it defines the method itself; subclasses inherit the wrapper.
METHOD_SPANS: list[tuple[str, str, tuple[str, ...], str]] = [
    ("repro.serve.engine", "GenerationEngine", ("step",),
     "serve.engine.step"),
    ("repro.serve.engine", "GenerationEngine", ("submit",),
     "serve.engine.submit"),
    ("repro.serve.scheduler", "FIFOScheduler", ("select",),
     "serve.scheduler.select"),
    ("repro.serve.scheduler", "PrefixAffinityScheduler", ("select",),
     "serve.scheduler.select"),
    ("repro.serve.scheduler", "PriorityScheduler", ("select",),
     "serve.scheduler.select"),
    ("repro.serve.prefix", "PrefixStore", ("attach", "match", "peek"),
     "serve.prefix.lookup"),
    ("repro.serve.prefix", "PrefixStore", ("capture",),
     "serve.prefix.capture"),
    ("repro.serve.spec", "SpeculativeDecoder", ("propose",),
     "serve.spec.propose"),
    ("repro.serve.spec", "SpeculativeDecoder", ("commit",),
     "serve.spec.commit"),
    ("repro.nn.model", "TransformerLM", ("forward",), "nn.model.forward"),
    ("repro.nn.attention", "MultiHeadAttention", ("forward",),
     "nn.attention.forward"),
    ("repro.autograd.tensor", "Tensor", ("matmul", "__matmul__"),
     "autograd.tensor.matmul"),
    ("repro.nn.paged_kv_cache", "PagedKVCache",
     ("write_token", "write_rows", "prefill_rows", "append"),
     "nn.paged_kv_cache.write"),
    ("repro.nn.paged_kv_cache", "QuantizedPagedKVCache",
     ("write_token", "write_rows", "prefill_rows", "append"),
     "nn.paged_kv_cache.write"),
    ("repro.nn.paged_kv_cache", "PagedKVCache",
     ("context_blocks", "context_chunk_pair"), "nn.paged_kv_cache.read"),
    ("repro.nn.paged_kv_cache", "QuantizedPagedKVCache",
     ("context_blocks", "context_chunk_pair"), "nn.paged_kv_cache.read"),
    ("repro.nn.paged_kv_cache", "DequantBlockCache", ("lookup",),
     "nn.paged_kv_cache.dequant"),
    ("repro.nn.paged_kv_cache", "PagedKVCache", ("truncate_rows",),
     "nn.paged_kv_cache.truncate"),
    ("repro.nn.kv_cache", "KVCache",
     ("write_token", "write_rows", "prefill_rows", "append"),
     "nn.kv_cache.write"),
    ("repro.core.quantizer", "FineQQuantizer", ("quantize_with_artifacts",),
     "core.quantizer.quantize"),
    ("repro.serve.gateway.queue", "RequestQueue", ("submit",),
     "serve.gateway.queue.submit"),
    ("repro.serve.gateway.queue", "RequestQueue", ("append_tokens",),
     "serve.gateway.queue.append_tokens"),
    ("repro.serve.gateway.queue", "RequestQueue", ("finish",),
     "serve.gateway.queue.finish"),
    ("repro.serve.gateway.queue", "RequestQueue", ("mark_running",),
     "serve.gateway.queue.claim"),
    ("repro.serve.gateway.queue", "RequestQueue",
     ("next_queued", "get", "tokens", "depth", "counts", "job_ids"),
     "serve.gateway.queue.read"),
    ("repro.serve.gateway.queue", "RequestQueue",
     ("recover", "cancel", "fail"), "serve.gateway.queue.other"),
    ("repro.serve.gateway.gateway", "ServingGateway", ("pump",),
     "serve.gateway.gateway.pump"),
    ("repro.serve.gateway.gateway", "ServingGateway", ("submit",),
     "serve.gateway.gateway.submit"),
]

#: (module, function) -> span name.
FUNCTION_SPANS: list[tuple[str, str, str]] = [
    ("repro.nn.paged_kv_cache", "quantize_kv_block",
     "nn.paged_kv_cache.flush_quantize"),
    ("repro.nn.block_attention", "block_decode_attention",
     "nn.block_attention.decode"),
    ("repro.nn.block_attention", "block_prefill_attention",
     "nn.block_attention.prefill"),
    ("repro.core.packing", "decode_payload", "core.packing.decode_payload"),
    ("repro.core.packing", "pack_matrix", "core.packing.pack_matrix"),
    ("repro.core.encoding", "encode_channels",
     "core.encoding.encode_channels"),
    ("repro.eval.perplexity", "perplexity", "eval.perplexity.perplexity"),
    ("repro.eval.perplexity", "cached_perplexity",
     "eval.perplexity.cached_perplexity"),
    ("repro.hw.workloads", "project_decode_trace", "hw.workloads.project"),
    ("repro.hw.cycle_model", "simulate_gemm",
     "hw.cycle_model.simulate_gemm"),
]

#: Spans that open a new step id when nothing encloses them.
STEP_ROOTS = ("serve.engine.step", "serve.gateway.gateway.pump")

#: ``RequestQueue`` methods that end in one sqlite commit.
COMMITTING = ("serve.gateway.queue.submit", "serve.gateway.queue.claim",
              "serve.gateway.queue.append_tokens",
              "serve.gateway.queue.finish", "serve.gateway.queue.other")

_PATCHED_PREFIXES = ("repro.", "perfbench.")


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.requests: list[tuple] = []
        self.step_id = 0
        self.tensor_allocs = 0
        self.tokens_forwarded = 0
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._name_ids[name]

    def _span_wrapper(self, fn, name: str):
        name_id = self._name_id(name)
        opens_step = name in STEP_ROOTS
        spans, stack, depth = self.spans, self._stack, self._depth
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if opens_step and parent < 0:
                self.step_id += 1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            nested = depth[name_id]
            depth[name_id] = nested + 1
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                depth[name_id] = nested
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.step_id,
                                nested)

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator_wrapper(self, fn, name: str):
        """Span wrapper for generator methods (``context_blocks``).

        Calling a generator function does no work; the work happens in
        each ``next()``.  The call itself is recorded as an empty span
        (it is what ``calls`` counts) and every resumption as a
        *continuation* span (``nested == -1`` when outermost), which
        adds to ``busy_s``/``self_s`` but not to ``calls``.
        """
        name_id = self._name_id(name)
        spans, stack, depth = self.spans, self._stack, self._depth
        now = time.perf_counter_ns

        def resume(generator):
            try:
                while True:
                    parent = stack[-1] if stack else -1
                    index = len(spans)
                    spans.append(None)
                    stack.append(index)
                    nested = depth[name_id]
                    depth[name_id] = nested + 1
                    start = now()
                    try:
                        item = next(generator)
                    except StopIteration:
                        return
                    finally:
                        end = now()
                        depth[name_id] = nested
                        stack.pop()
                        spans[index] = (name_id, start, end, parent,
                                        self.step_id, nested or -1)
                    yield item
            finally:
                generator.close()

        def wrapper(*args, **kwargs):
            stamp = now()
            spans.append((name_id, stamp, stamp,
                          stack[-1] if stack else -1, self.step_id,
                          depth[name_id]))
            return resume(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _forward_wrapper(self, fn):
        """``TransformerLM.forward`` span that also counts the token
        positions pushed through the model."""
        inner = self._span_wrapper(fn, "nn.model.forward")

        def wrapper(model, tokens, *args, **kwargs):
            self.tokens_forwarded += int(np.size(tokens))
            return inner(model, tokens, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _alloc_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.tensor_allocs += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------ #
    # install / restore
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr: str, wrapper) -> None:
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every listed callable (idempotent per tracer)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for module_name, _, _, _ in METHOD_SPANS:
            importlib.import_module(module_name)
        for module_name, _, _ in FUNCTION_SPANS:
            importlib.import_module(module_name)
        for module_name, class_name, methods, name in METHOD_SPANS:
            cls = getattr(sys.modules[module_name], class_name)
            wrapped: dict[int, object] = {}
            for method in methods:
                fn = cls.__dict__.get(method)
                if fn is None:
                    continue
                # Aliases (``__matmul__ = matmul``) share one wrapper.
                if id(fn) not in wrapped:
                    if name == "nn.model.forward":
                        wrapped[id(fn)] = self._forward_wrapper(fn)
                    elif inspect.isgeneratorfunction(fn):
                        wrapped[id(fn)] = self._generator_wrapper(fn, name)
                    else:
                        wrapped[id(fn)] = self._span_wrapper(fn, name)
                self._patch(cls, method, wrapped[id(fn)])
        tensor = sys.modules["repro.autograd.tensor"].Tensor
        self._patch(tensor, "__init__",
                    self._alloc_wrapper(tensor.__dict__["__init__"]))
        loaded = [mod for mod_name, mod in list(sys.modules.items())
                  if mod is not None and mod_name.startswith(_PATCHED_PREFIXES)]
        for module_name, function, name in FUNCTION_SPANS:
            original = getattr(sys.modules[module_name], function)
            wrapper = self._span_wrapper(original, name)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every live patch."""
        return list(self._patches)

    # ------------------------------------------------------------------ #
    # request spans
    # ------------------------------------------------------------------ #
    def note_request(self, request_id: int, submitted_ns: int,
                     first_token_ns: int, last_token_ns: int,
                     first_step: int, last_step: int) -> None:
        """The driver's per-request span: joins a slow request to the
        step ids that served it."""
        self.requests.append((request_id, submitted_ns, first_token_ns,
                              last_token_ns, first_step, last_step))

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    def table(self, lo: int = 0, hi: int | None = None) -> "SpanTable":
        return SpanTable(self.names, self.spans[lo:hi], lo)

    def write(self, path: Path) -> None:
        """Dump spans and request spans as one compressed ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        done = [s for s in self.spans if s is not None]
        spans = (np.asarray(done, dtype=np.int64) if done
                 else np.zeros((0, 6), dtype=np.int64))
        requests = (np.asarray(self.requests, dtype=np.int64)
                    if self.requests else np.zeros((0, 6), dtype=np.int64))
        np.savez_compressed(
            path, names=np.asarray(self.names), spans=spans,
            span_columns=np.asarray(["name", "start_ns", "end_ns", "parent",
                                     "step_id", "nested"]),
            requests=requests,
            request_columns=np.asarray(
                ["request_id", "submitted_ns", "first_token_ns",
                 "last_token_ns", "first_step", "last_step"]))


class SpanTable:
    """Per-name ``calls`` / ``busy_s`` / ``self_s`` over a span range."""

    def __init__(self, names: list[str], spans: list, offset: int):
        self.names = names
        if any(span is None for span in spans):
            raise ValueError("span range cuts through an open span")
        rows = np.asarray(spans, dtype=np.int64).reshape(-1, 6)
        self.name = rows[:, 0]
        self.start = rows[:, 1]
        self.duration = (rows[:, 2] - rows[:, 1]).astype(np.float64)
        self.parent = rows[:, 3] - offset
        self.nested = rows[:, 5]
        child = np.zeros(len(rows))
        inside = (self.parent >= 0) & (self.parent < len(rows))
        np.add.at(child, self.parent[inside], self.duration[inside])
        self.self_time = self.duration - child
        # A span whose parent lies before the range counts as a root.
        self.root = ~inside

    def _mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def calls(self, name: str) -> int:
        return int((self._mask(name) & (self.nested == 0)).sum())

    def busy_s(self, name: str) -> float:
        mask = self._mask(name) & (self.nested <= 0)
        return float(self.duration[mask].sum()) / 1e9

    def self_s(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum()) / 1e9

    def root_s(self) -> float:
        """Time inside root spans: the traced share of the wall."""
        return float(self.duration[self.root].sum()) / 1e9

    def starts_ns(self, name: str) -> np.ndarray:
        return self.start[self._mask(name) & (self.nested == 0)]


def per_round(tables: list[SpanTable], name: str, *fields: str) -> dict:
    """``{name.field: value per traced round}`` for ``calls`` / ``busy_s``
    / ``self_s`` summed over the rounds' tables."""
    rounds = max(1, len(tables))
    return {f"{name}.{field}":
            sum(getattr(table, field)(name) for table in tables) / rounds
            for field in fields}
