"""Request-centric continuous-batching generation engine: the session
and the step loop.

The engine is a *persistent session*: the KV cache and slot state are
engine members created once, so requests can be submitted, streamed, and
cancelled while serving is live.  One :meth:`GenerationEngine.step`
admits waiting prompts into free slots, lets prefilling rows write one
budgeted chunk of their prompts, and advances every decoding row by one
token (or one speculative run).  Request and result types live in
:mod:`repro.serve.params`, sampling in :mod:`repro.serve.sampling`,
counters and :class:`StepTrace` in :mod:`repro.serve.stats`.

Typical streaming client::

    engine = GenerationEngine(model, max_batch_size=8)
    engine.submit(prompt_a, params=SamplingParams(max_new_tokens=32,
                                                  temperature=0.8,
                                                  top_p=0.95, seed=7))
    engine.submit(prompt_b, max_new_tokens=16)        # greedy shorthand
    for event in engine.stream():                     # TokenEvent stream
        print(event.request_id, event.token, event.finish_reason)
        if event.request_id == 0 and event.token == BORING:
            engine.cancel(0)                          # frees row + blocks
        if need_more_work:
            engine.submit(prompt_c, max_new_tokens=8) # mid-flight is fine
    done = engine.take_completions()

Every model call the engine makes is ``model(tokens, cache=cache,
positions=..., rows=..., span_lens=..., logits_positions=...)`` — which
cache rows, where each starts, how many of the padded tokens are real.
Masks, span starts and context widths are derived inside the forward
(:meth:`repro.nn.model.TransformerLM.forward`), which writes the span
and then attends the block table (:mod:`repro.nn.block_attention`); idle
slots are neither forwarded nor read.

The cache backend is selected by ``kv_cache``:

* ``"paged"`` (default) — block-granular FP32
  :class:`~repro.nn.paged_kv_cache.PagedKVCache`; memory tracks the sum
  of live tokens instead of ``batch x max_len``.  Greedy decoding is
  token-identical to the sequential
  :meth:`repro.nn.model.TransformerLM.generate` reference (which runs on
  the rectangular :class:`~repro.nn.kv_cache.KVCache`, not a serving
  backend) — including with mid-flight submission, cancelled
  neighbours, prefix sharing, preemption, chunking and speculation.
  That parity has held in every test so far; it is empirical (small-M
  GEMM rows — a span's ``M`` is ``rows * seq`` — move by an ulp with the
  batch's shape and nothing here amplifies it), not structural.
* ``"fineq"`` — :class:`~repro.nn.paged_kv_cache.QuantizedPagedKVCache`,
  the same paged cache built with the FineQ block codec
  (:class:`~repro.nn.kv_codec.FineQCodec`): full blocks sealed in the
  paper's 2.33-bit format (~7x fewer bytes per full block, ~4.7x
  end-to-end with the FP32 write buffers; bounded perplexity delta
  instead of exact parity), read through a dequantized-block LRU so an
  immutable block is LUT-decoded once.
  A stream here can depend on its neighbours — a wider one pads the
  wave to another GEMM shape, and the first 2.33-bit flush turns the
  ulp into a quantization step (pinned:
  ``test_fineq_stream_depends_on_its_neighbour``).

What is asserted on both backends is **replay determinism**: the same
call sequence on a fresh engine returns the same bytes.  Making
``"fineq"`` composition-independent, or specifying that it is not, is
ROADMAP item 1 (ii).

Long prompts need not stall the batch: ``prefill_chunk_tokens`` (128 by
default) caps the prompt tokens forwarded per :meth:`step`.  An admitted
long prompt holds its slot in a *prefilling* state and writes one chunk
per step, decode waves run between chunks, and the scheduler's
``prefill_order`` arbitrates the budget across concurrently-prefilling
rows — the stall a decoding stream sees is bounded by one chunk, not one
prompt — while the chunk-grid-stable attention geometry keeps chunked
output tokens identical to one-shot prefill.  The LM head runs only at
each row's last prompt position (``logits_positions``).

Admission is delegated to a pluggable :class:`~repro.serve.scheduler
.Scheduler` (``"fifo"`` default, ``"prefix-affinity"``, ``"priority"``
with preemption), and ``prefix_sharing=True`` puts a
:class:`~repro.serve.prefix.PrefixStore` in front of the paged cache:
admitted prompts adopt the longest cached prefix by block reference and
only the novel suffix is forwarded (copy-on-write when a prompt diverges
inside a partially-filled shared block).  Preempted requests requeue
with their progress and restore from whatever shared prefix survived.
``record_trace=True`` keeps a :class:`StepTrace` per forward step that
``repro.hw.workloads.project_decode_trace`` projects onto the paper's
accelerator cycle model.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.nn.paged_kv_cache import (DEFAULT_BLOCK_SIZE, PagedKVCache,
                                     QuantizedPagedKVCache)
from repro.nn.model import TransformerLM
from repro.serve.params import (Completion, Request, SamplingParams,
                                TokenEvent, validate_request)
from repro.serve.prefix import PrefixStore
from repro.serve.sampling import _sample_tokens
from repro.serve.scheduler import (RunningInfo, Scheduler, SchedulerView,
                                   get_scheduler)
from repro.serve.spec import (SpeculativeConfig, SpeculativeDecoder,
                              _pad_spans)
from repro.serve.stats import EngineStats, StepTrace

#: Engine cache backends: constructor keyed by the ``kv_cache`` argument.
KV_CACHE_MODES = ("paged", "fineq")

#: Context tokens per slot the KV pools (target and draft) start with;
#: they grow on demand.
INITIAL_CAPACITY = 64

#: Most recent :class:`StepTrace` records ``record_trace`` keeps — far
#: more than any benchmark round or test produces (a few hundred), and
#: a bound on what a long-lived traced session holds.
TRACE_WINDOW = 65536


@dataclass
class _RequestState:
    """One request's serving state, wherever it is: waiting in the queue
    (fresh, or preempted with its progress) or holding a cache row.

    ``generated`` and ``rng`` carry the request's progress and private
    sampling stream across a preempt / restore cycle, so a restored
    request continues exactly where it left off.  ``prefill_pos`` is set
    while the request holds a row whose context is still being written:
    how much of :attr:`tokens` the row already has (adopted shared
    prefix plus written chunks).  It is ``None`` in the queue and once
    the row decodes.
    """

    request: Request
    rng: np.random.Generator
    generated: list[int] = field(default_factory=list)
    prefill_pos: int | None = None
    _tokens: np.ndarray | None = field(default=None, repr=False)

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def priority(self) -> int:
        return self.request.params.priority

    @property
    def prefilling(self) -> bool:
        return self.prefill_pos is not None

    @property
    def tokens(self) -> np.ndarray:
        """Prompt plus everything generated so far: what an admission
        must establish, what the draft model catches up on, and what a
        completion returns."""
        prompt = self.request.prompt
        if not self.generated:
            return prompt
        if self._tokens is None \
                or len(self._tokens) != len(prompt) + len(self.generated):
            self._tokens = np.concatenate(
                [prompt, np.asarray(self.generated, dtype=np.int64)])
        return self._tokens


class GenerationEngine:
    """A persistent serving session over a fixed pool of KV-cache slots.

    The cache and per-slot state live for the engine's lifetime:
    :meth:`submit` enqueues work at any time (including mid-stream),
    :meth:`step` advances one admit+decode iteration, :meth:`stream`
    yields :class:`TokenEvent`s as tokens land, :meth:`cancel` frees a
    request's row and cache blocks immediately, and
    :meth:`take_completions` drains finished requests.  :meth:`run` and
    :meth:`generate_batch` wrap :meth:`step` for batch-oriented callers.

    Parameters
    ----------
    model:
        The language model to serve (any :class:`TransformerLM`,
        quantized or not).
    max_batch_size:
        Number of cache slots, i.e. the decode batch width.
    eos_token:
        Optional token id that terminates a sequence early.
    rng:
        Engine-level generator; only used to draw per-request seeds for
        requests that did not fix one in :class:`SamplingParams`.
    kv_cache:
        Cache backend: ``"paged"`` (default) or ``"fineq"`` (quantized
        paged).
    block_size:
        Tokens per block for the paged backends.
    scheduler:
        Admission policy: ``"fifo"`` (default), ``"prefix-affinity"``,
        ``"priority"``, or any object satisfying
        :class:`repro.serve.scheduler.Scheduler`.
    prefix_sharing:
        Index prompts in a :class:`~repro.serve.prefix.PrefixStore` and
        prefill only novel suffixes.
    prefix_blocks:
        Block budget for the prefix store's LRU eviction (None =
        unbounded).
    max_pool_blocks:
        Soft KV-pool budget: admission throttles (and the priority
        scheduler preempts) against it; forced growth can still exceed
        it so in-flight writes never fail.
    record_trace:
        Append a :class:`StepTrace` per decode step to ``self.trace``
        for accelerator projection via ``repro.hw.workloads``.
    prefill_chunk_tokens:
        Per-:meth:`step` prompt-token budget (default 128).  Admitted
        prompts longer than the budget prefill chunk by chunk across
        steps — their slots sit in a *prefilling* state while decode
        waves run between chunks — and the scheduler's ``prefill_order``
        decides which prefilling rows the budget feeds first.
    speculative:
        A :class:`~repro.serve.spec.SpeculativeConfig` to decode
        speculatively (see :meth:`_spec_decode_step`): greedy output is
        token-identical to target-only decode, and sampled output is
        draw-for-draw identical too.  ``None`` (default) decodes one
        token per step.
    """

    def __init__(self, model: TransformerLM, max_batch_size: int = 8,
                 eos_token: int | None = None,
                 rng: np.random.Generator | None = None,
                 kv_cache: str = "paged",
                 block_size: int = DEFAULT_BLOCK_SIZE,
                 scheduler: str | Scheduler = "fifo",
                 prefix_sharing: bool = False,
                 prefix_blocks: int | None = None,
                 max_pool_blocks: int | None = None,
                 record_trace: bool = False,
                 prefill_chunk_tokens: int = 128,
                 speculative: SpeculativeConfig | None = None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if prefill_chunk_tokens < 1:
            raise ValueError("prefill_chunk_tokens must be >= 1")
        if kv_cache not in KV_CACHE_MODES:
            raise ValueError(f"kv_cache must be one of {KV_CACHE_MODES}, "
                             f"got {kv_cache!r}")
        self.model = model
        self.max_batch_size = max_batch_size
        self.eos_token = eos_token
        self.rng = rng or np.random.default_rng(0)
        self.kv_cache = kv_cache
        self.block_size = block_size
        self.scheduler = get_scheduler(scheduler)
        self.prefix_sharing = prefix_sharing
        self.prefix_blocks = prefix_blocks
        self.max_pool_blocks = max_pool_blocks
        self.record_trace = record_trace
        self.prefill_chunk_tokens = prefill_chunk_tokens
        if speculative is not None:
            speculative.validate_target(model)
        self.speculative = speculative
        initial_blocks = max_batch_size * max(1,
                                              INITIAL_CAPACITY // block_size)
        self._initial_blocks = initial_blocks if max_pool_blocks is None \
            else min(initial_blocks, max_pool_blocks)
        self._spec = (SpeculativeDecoder(speculative, max_batch_size,
                                         block_size, initial_blocks)
                      if speculative is not None else None)
        self._prefill_budget = prefill_chunk_tokens
        self.trace: deque[StepTrace] = deque(maxlen=TRACE_WINDOW)
        self.stats = EngineStats()
        self._queue: deque[_RequestState] = deque()
        self._next_id = 0
        # Session state: created once, reused across every step()/run().
        self._cache: PagedKVCache | None = None
        self._prefix: PrefixStore | None = None
        self._slots: list[_RequestState | None] = [None] * max_batch_size
        self._lengths = np.zeros(max_batch_size, dtype=np.int64)
        self._pending = np.zeros(max_batch_size, dtype=np.int64)
        self._live: dict[int, int] = {}      # request_id -> slot row
        self._finished: list[Completion] = []
        self._events: list[TokenEvent] = []  # out-of-step events (cancels)

    @property
    def cache(self) -> PagedKVCache | None:
        """The session's KV cache (None until the first admit)."""
        return self._cache

    @property
    def prefix_store(self) -> PrefixStore | None:
        """The prefix index (None until the first admit or when sharing
        is disabled)."""
        return self._prefix

    def _make_cache(self) -> PagedKVCache:
        cls = PagedKVCache if self.kv_cache == "paged" \
            else QuantizedPagedKVCache
        return cls(self.model.config.num_layers, batch=self.max_batch_size,
                   block_size=self.block_size,
                   initial_blocks=self._initial_blocks,
                   max_blocks=self.max_pool_blocks)

    def _account_step(self, rows: int, tokens: int, prefill_tokens: int = 0,
                      **spec) -> None:
        """Post-forward accounting of one decode, speculative or prefill
        step: fold the cache's read/flush counters (taken per step, so
        prefill traffic never leaks into a decode step's snapshot) into
        the session stats, sample the KV-memory high-water mark (decode
        steps only), and append the step's :class:`StepTrace`."""
        cache = self._cache
        stats = self.stats
        read = cache.take_read_stats()
        stats.kv_flush_calls += read.flush_calls
        stats.kv_flush_blocks += read.flush_blocks
        if prefill_tokens:
            stats.prefill_dequant_hits += read.dequant_hits
            stats.prefill_dequant_misses += read.dequant_misses
        else:
            stats.decode_peak_scratch_bytes = max(
                stats.decode_peak_scratch_bytes, read.peak_scratch_bytes)
            stats.dequant_cache_hits += read.dequant_hits
            stats.dequant_cache_misses += read.dequant_misses
            live_tokens = cache.cached_tokens
            if live_tokens > stats.kv_peak_tokens:
                stats.kv_peak_tokens = live_tokens
                stats.kv_peak_used_bytes = cache.used_bytes()
                stats.kv_peak_physical_bytes = cache.physical_used_bytes()
            stats.kv_peak_allocated_bytes = max(
                stats.kv_peak_allocated_bytes, cache.allocated_bytes())
        if self.record_trace:
            self.trace.append(StepTrace(
                rows=rows, tokens=tokens, kv_bytes=cache.used_bytes(),
                kv_bytes_streamed=read.streamed_bytes,
                prefill_tokens=prefill_tokens, **spec))

    # ------------------------------------------------------------------ #
    # request intake and cancellation
    # ------------------------------------------------------------------ #
    def submit(self, prompt: np.ndarray, max_new_tokens: int | None = None,
               temperature: float | None = None,
               params: SamplingParams | None = None) -> int:
        """Queue a request; returns its id (events/completions carry it).

        Either pass ``params`` (the request-centric API) or the PR 1
        shorthand ``max_new_tokens``/``temperature``, not both.  Works at
        any time, including while :meth:`stream` is being consumed.
        """
        prompt, params = validate_request(
            prompt, params, max_new_tokens, temperature,
            self.model.config.max_seq_len, self.rng)
        request = Request(request_id=self._next_id, prompt=prompt,
                          params=params)
        self._next_id += 1
        self._queue.append(_RequestState(
            request=request, rng=np.random.default_rng(params.seed)))
        return request.request_id

    def submit_from_record(self, record) -> int:
        """Submit a durable queue record; returns the engine request id.

        ``record`` is anything with ``prompt`` and ``params`` attributes
        (the gateway's :class:`~repro.serve.gateway.queue.QueuedJob`).
        The params must carry a *resolved* seed: a record re-dispatched
        after a crash has to regenerate the exact token stream its
        journal already holds, which an engine-drawn seed (a function of
        this engine's RNG state) would not.
        """
        params = record.params
        if params.seed is None:
            raise ValueError(
                "queue records must carry a resolved seed — durability "
                "needs the stream to be reproducible across restarts")
        return self.submit(record.prompt, params=params)

    def cancel(self, request_id: int) -> bool:
        """Terminate a queued or running request immediately.

        A running request's slot and cache blocks are freed right away
        (shared prefix blocks stay resident for the prefix store and any
        other readers — only exclusively-owned blocks return to the
        pool); its partial output lands in :meth:`take_completions` with
        ``finish_reason="cancelled"`` and a terminal :class:`TokenEvent`
        (``token=None``) is emitted on the next :meth:`step`/
        :meth:`stream` iteration.  Returns False for ids that are unknown
        or already finished.
        """
        row = self._live.get(request_id)
        if row is not None:
            self._retire(row, "cancelled")
        else:
            waiting = next((state for state in self._queue
                            if state.request_id == request_id), None)
            if waiting is None:
                return False
            self._queue.remove(waiting)
            self._complete(waiting, "cancelled")
        self._events.append(TokenEvent(request_id, None, "cancelled"))
        return True

    def generate_batch(self, prompts: list[np.ndarray], max_new_tokens: int,
                       temperature: float = 0.0) -> list[np.ndarray]:
        """Serve ``prompts`` and return full token arrays in input order.

        Completions of requests submitted outside this call stay queued
        for :meth:`take_completions` instead of being dropped.
        """
        ids = [self.submit(p, max_new_tokens, temperature) for p in prompts]
        done = {c.request_id: c for c in self.run()}
        self._finished.extend(c for rid, c in done.items() if rid not in ids)
        return [done[i].tokens for i in ids]

    # ------------------------------------------------------------------ #
    # the serving session
    # ------------------------------------------------------------------ #
    def has_work(self) -> bool:
        """True while a step could produce events."""
        return bool(self._events or self._queue
                    or any(slot is not None for slot in self._slots))

    @property
    def num_active(self) -> int:
        """Occupied slots (decoding or mid chunked prefill)."""
        return sum(slot is not None for slot in self._slots)

    @property
    def num_prefilling(self) -> int:
        """Slots still writing their prompt chunk by chunk."""
        return sum(slot is not None and slot.prefilling
                   for slot in self._slots)

    def step(self) -> list[TokenEvent]:
        """Advance one admit+prefill+decode iteration; return its events.

        Buffered out-of-step events (cancellations) flush first, then the
        scheduler admits waiting prompts into free slots (possibly
        preempting victims first), prefilling rows consume the step's
        ``prefill_chunk_tokens`` budget, and every decoding slot advances
        one token.  Safe to call with nothing to do.
        """
        events = self._events
        self._events = []
        self._prefill_budget = self.prefill_chunk_tokens
        if self._queue:
            if self._cache is None:
                self._cache = self._make_cache()
                if self.prefix_sharing:
                    self._prefix = PrefixStore(
                        self._cache, max_blocks=self.prefix_blocks)
            events += self._admit()
        if self.num_prefilling:
            # Rows admitted in earlier steps (or starved by this
            # step's admission rounds) spend whatever budget is left.
            events += self._prefill_step()
        if len(self._decoding_rows()):
            self._ensure_decode_headroom()
            events += (self._spec_decode_step()
                       if self._spec is not None else self._decode_step())
        return events

    def _decoding_rows(self) -> np.ndarray:
        """Rows past their prefill: the next decode step's sub-batch."""
        return np.array([row for row, slot in enumerate(self._slots)
                         if slot is not None and not slot.prefilling],
                        dtype=np.int64)

    def _ensure_decode_headroom(self) -> None:
        """Preempt (if the policy allows) when the next decode step needs
        blocks the soft pool budget cannot grant: rows about to cross a
        block boundary each allocate one block (a speculative step may
        write up to ``k + 1`` tokens per row, crossing several)."""
        cache = self._cache
        if cache.max_blocks is None:
            return
        bs = cache.block_size
        extra = (self._spec.config.k + 1) if self._spec is not None else 1
        lengths = self._lengths[self._decoding_rows()]
        crossing = int((-(-(lengths + extra) // bs) - -(-lengths // bs)).sum())
        available = cache.available_blocks()
        if crossing <= available:
            return
        view = self._scheduler_view()
        for rid in self.scheduler.victims_for_blocks(view,
                                                     crossing - available):
            row = self._live.get(rid)
            if row is not None:
                self._preempt_row(row)

    def stream(self):
        """Yield :class:`TokenEvent`s until the session runs dry.

        A generator over repeated :meth:`step` calls; submitting or
        cancelling between iterations is supported, so a consumer can
        react to tokens as they land.
        """
        while self.has_work():
            yield from self.step()

    def run(self) -> list[Completion]:
        """Drain the queue with continuous batching; return completions.

        Returns *every* completion finished since the last drain — in a
        long-lived session that includes requests that finished under an
        earlier :meth:`stream` whose completions were never taken.
        """
        while self.has_work():
            self.step()
        return self.take_completions()

    def take_completions(self) -> list[Completion]:
        """Drain and return every completion finished since the last take."""
        finished = self._finished
        self._finished = []
        return finished

    def _decode_step(self) -> list[TokenEvent]:
        """One single-token decode over the active sub-batch."""
        cache = self._cache
        slots = self._slots
        batch = self.max_batch_size
        active_rows = self._decoding_rows()
        n = len(active_rows)
        # Full batches take the rows=None fast path (whole-table reads);
        # partial batches forward only the active rows, so draining
        # waves stop paying for idle slots.
        start = time.perf_counter()
        logits = self.model(self._pending[active_rows][:, None], cache=cache,
                            positions=self._lengths[active_rows][:, None],
                            rows=None if n == batch else active_rows)
        self.stats.decode_seconds += time.perf_counter() - start
        self.stats.decode_tokens += n
        self.stats.decode_steps += 1
        self.stats.decode_slot_steps += batch
        self._lengths[active_rows] += 1
        self._account_step(rows=n, tokens=n)

        sampled = _sample_tokens(
            logits.data[:, -1],
            [slots[row].request.params for row in active_rows],
            [slots[row].rng for row in active_rows])
        events = []
        for i, row in enumerate(active_rows):
            slot = slots[row]
            token = int(sampled[i])
            slot.generated.append(token)
            self._pending[row] = token
            reason = self._finish_reason(slot.request.params, token,
                                         len(slot.generated),
                                         int(self._lengths[row]))
            events.append(TokenEvent(slot.request_id, token, reason))
            if reason is not None:
                self._retire(row, reason)
        return events

    def _spec_decode_step(self) -> list[TokenEvent]:
        """One speculative decode step: draft, verify, commit/roll back.

        Per active row with committed context ``L`` and pending token
        ``t`` (token index ``L``, not yet written): the draft model
        proposes ``d_1..d_k`` continuations, and one multi-token target
        forward writes ``[t, d_1..d_k]`` at positions ``L..L+k`` and
        returns logits for every position — position ``L+i``'s logits
        are the target's next-token distribution after ``d_i``, exactly
        what target-only decode would compute there.  Tokens emit in
        stream order (the target's own choice at each position, drawn
        with the request's private RNG) while the emitted token keeps
        matching the next draft;
        the first mismatch, terminal token, or the post-run bonus token
        ends the row's run.  The caches then truncate back to the
        committed length (:meth:`PagedKVCache.truncate_rows` — shared
        prefix blocks are refcount-protected, uncommitted quantized
        blocks invalidate their dequant-memo entries).

        On the quantized backend the verify runs as *clone-rows decode*:
        each verify position becomes its own width-1 batch row through
        the standard ``write_token`` + block-decode read path, because
        BLAS GEMMs are bit-stable across the batch axis but not across
        the query-width axis — a width-``k+1`` span forward would write
        K/V that differ from single-token decode's by ulps, and
        quantizing such a block amplifies an ulp into a full
        quantization step, breaking greedy parity.  Clone rounds are
        still chunked at block boundaries so ``write_token``'s own lazy
        flush quantizes a block only after every token in it is already
        accepted (rows reach round ``r + 1`` only by fully accepting
        round ``r``); rollbacks therefore always land inside the
        buffered block and never release pool blocks mid-request.
        """
        cache = self._cache
        slots = self._slots
        spec = self._spec
        batch = self.max_batch_size
        active_rows = self._decoding_rows()
        n = len(active_rows)
        lengths = self._lengths[active_rows].copy()
        limit = min(self.model.config.max_seq_len,
                    spec.draft.config.max_seq_len)
        k_eff = np.zeros(n, dtype=np.int64)
        for j, row in enumerate(active_rows):
            slot = slots[row]
            remaining = slot.request.params.max_new_tokens \
                - len(slot.generated)
            k_eff[j] = max(0, min(spec.config.k, remaining - 1,
                                  limit - int(lengths[j]) - 1))
        if not k_eff.any():
            # Nobody can usefully draft (every request is on its last
            # token, or at the context-window limit): plain decode is
            # the same work without the verify detour.
            return self._decode_step()

        start_t = time.perf_counter()
        draft_idx = np.flatnonzero(k_eff > 0)
        proposals, draft_tokens = spec.propose(
            active_rows[draft_idx],
            [slots[row] for row in active_rows[draft_idx]],
            lengths[draft_idx], k_eff[draft_idx])
        # Per-row verify token list: [pending, d_1..d_k].  Rows that
        # could not draft fold in as width-1 verifies (a plain decode
        # through the same forward).
        verify: list[list[int]] = [
            [int(self._pending[row])] for row in active_rows]
        for jj, j in enumerate(draft_idx):
            verify[j] += [int(t) for t in proposals[jj]]

        params = [slots[row].request.params for row in active_rows]
        rngs = [slots[row].rng for row in active_rows]
        emitted: list[list[int]] = [[] for _ in range(n)]
        reasons: list[str | None] = [None] * n
        done = np.zeros(n, dtype=bool)
        offset = np.zeros(n, dtype=np.int64)
        written = lengths.copy()
        accepted_step = 0
        verify_tokens = 0
        is_quant = self.kv_cache == "fineq"
        bs = cache.block_size
        max_pos = self.model.config.max_seq_len - 1

        while not done.all():
            live = np.flatnonzero(~done)
            starts = lengths[live] + offset[live]
            rem = np.array([len(verify[j]) - int(offset[j]) for j in live],
                           dtype=np.int64)
            take = np.minimum(rem, bs - starts % bs) if is_quant else rem
            rows_arr = active_rows[live]
            width = int(take.max())
            if is_quant:
                # Clone-rows decode: verify position L+i of a row is its
                # own width-1 batch row, so every projection GEMM and
                # cache write is bitwise the one sequential decode runs
                # (batch-axis GEMM stability), and write_token's own
                # boundary flush quantizes blocks at the same points.
                clone_rows = np.repeat(rows_arr, take)
                clone_pos = np.concatenate(
                    [np.arange(int(s), int(s) + int(t))
                     for s, t in zip(starts, take)])
                clone_toks = np.concatenate(
                    [np.asarray(verify[j][int(offset[j]):
                                          int(offset[j]) + int(t)])
                     for j, t in zip(live, take)]).astype(np.int64)
                out = self.model(clone_toks[:, None], cache=cache,
                                 positions=clone_pos[:, None],
                                 rows=clone_rows)
                flat = out.data[:, -1]
                logits_arr = np.zeros((len(live), width, flat.shape[-1]),
                                      dtype=flat.dtype)
                pos0 = 0
                for jj, t in enumerate(take):
                    logits_arr[jj, :int(t)] = flat[pos0:pos0 + int(t)]
                    pos0 += int(t)
            else:
                toks, positions = _pad_spans(
                    [verify[j][int(offset[j]):int(offset[j]) + int(t)]
                     for j, t in zip(live, take)], starts, max_pos)
                logits_arr = self.model(toks, cache=cache,
                                        positions=positions, rows=rows_arr,
                                        span_lens=take).data
            verify_tokens += int(take.sum())
            written[live] = starts + take

            # Acceptance, offset by offset: every live row emits exactly
            # one token per offset it reaches, in stream order, so each
            # request's RNG draws line up with target-only decode.
            stopped = np.zeros(len(live), dtype=bool)
            for o in range(width):
                sub = [jj for jj in range(len(live))
                       if take[jj] > o and not stopped[jj]]
                if not sub:
                    break
                sub_rows = [int(live[jj]) for jj in sub]
                sub_logits = logits_arr[sub, o]
                choices = _sample_tokens(sub_logits,
                                         [params[j] for j in sub_rows],
                                         [rngs[j] for j in sub_rows])
                for idx, jj in enumerate(sub):
                    j = int(live[jj])
                    g = int(offset[j]) + o       # global verify offset
                    has_draft = g + 1 < len(verify[j])   # else: the bonus
                    tok = int(choices[idx])
                    ok = has_draft and tok == verify[j][g + 1]
                    emitted[j].append(tok)
                    if ok:
                        accepted_step += 1
                    reason = self._finish_reason(
                        params[j], tok,
                        len(slots[active_rows[j]].generated)
                        + len(emitted[j]),
                        int(lengths[j]) + g + 1)
                    if reason is not None:
                        reasons[j] = reason
                        stopped[jj] = True
                        done[j] = True
                    elif not ok:
                        stopped[jj] = True
                        done[j] = True
            # Rows that accepted their whole sub-span continue into the
            # next round (only possible with verify tokens left: the
            # bonus position always stops its row above).
            for jj in range(len(live)):
                if not stopped[jj]:
                    offset[live[jj]] += take[jj]

        # --- commit/rollback: truncate past the committed lengths ---
        new_lens = lengths + np.array([len(e) for e in emitted],
                                      dtype=np.int64)
        rollback = np.flatnonzero(written > new_lens)
        if len(rollback):
            cache.truncate_rows(active_rows[rollback], new_lens[rollback])
        spec.commit(active_rows[draft_idx], new_lens[draft_idx])
        self._lengths[active_rows] = new_lens

        total_emitted = int(new_lens.sum() - lengths.sum())
        self.stats.decode_seconds += time.perf_counter() - start_t
        self.stats.decode_tokens += total_emitted
        self.stats.decode_steps += 1
        self.stats.decode_slot_steps += batch
        self.stats.spec_proposed += int(k_eff.sum())
        self.stats.spec_accepted += accepted_step
        # One snapshot covers every verify round: the cache's read
        # counters accumulate across forwards until taken.
        self._account_step(rows=n, tokens=total_emitted,
                           spec_proposed=int(k_eff.sum()),
                           spec_accepted=accepted_step,
                           spec_draft_tokens=draft_tokens,
                           spec_verify_tokens=verify_tokens)

        events: list[TokenEvent] = []
        for j, row in enumerate(active_rows):
            slot = slots[row]
            rid = slot.request.request_id
            for idx, tok in enumerate(emitted[j]):
                slot.generated.append(int(tok))
                final = idx == len(emitted[j]) - 1
                events.append(TokenEvent(rid, int(tok),
                                         reasons[j] if final else None))
            self._pending[row] = int(emitted[j][-1])
            if reasons[j] is not None:
                self._retire(row, reasons[j])
        return events

    def _scheduler_view(self) -> SchedulerView:
        """Snapshot of engine state for one scheduler decision."""
        running = tuple(RunningInfo(request_id=slot.request_id, row=row,
                                    priority=slot.priority,
                                    tokens_generated=len(slot.generated),
                                    context_len=int(self._lengths[row]),
                                    prefill_remaining=(
                                        len(slot.tokens) - slot.prefill_pos
                                        if slot.prefilling else 0))
                        for row, slot in enumerate(self._slots)
                        if slot is not None)
        cache = self._cache
        store = self._prefix

        def prefix_peek(tokens):
            if store is None:
                return (0, None)
            match = store.peek(tokens)
            return (match.shared_len, match.node_key)

        return SchedulerView(free_slots=self._slots.count(None),
                             running=running,
                             free_blocks=cache.free_blocks(),
                             available_blocks=cache.available_blocks(),
                             block_size=cache.block_size,
                             prefix_peek=prefix_peek)

    def _fit_to_blocks(self, chosen: list[_RequestState],
                       view: SchedulerView) -> list[_RequestState]:
        """Trim an admission list to the soft block budget.

        Keeps the longest prefix of the scheduler's choice whose
        estimated new-block demand (prompt blocks minus cached shared
        blocks) fits :meth:`PagedKVCache.available_blocks`.  When the
        engine is otherwise idle the head request is admitted regardless
        — the budget is soft, and degrading to one-at-a-time serving
        beats stalling.
        """
        if not chosen or view.available_blocks is None:
            return list(chosen)
        kept: list[_RequestState] = []
        budget = view.available_blocks
        for entry in chosen:
            shared, _ = view.prefix_peek(entry.tokens)
            needed = max(0, -(-len(entry.tokens) // view.block_size)
                         - shared // view.block_size)
            if needed > budget and (kept or self.num_active > 0):
                break
            kept.append(entry)
            budget = max(0, budget - needed)
        return kept

    def _defer_wave_duplicates(self,
                               chosen: list[_RequestState]
                               ) -> list[_RequestState]:
        """Hold back same-wave requests that share an uncached prefix.

        Prompts adopt prefixes from the store, which only indexes a
        prefix *after* some wave prefilled it — so a cold shared prefix
        arriving sixteen-fold in one wave would prefill sixteen times.
        Keep one representative per uncached leading block; the deferred
        rest stay queued and the admit loop re-selects them immediately
        after the representative's wave captured the prefix, turning the
        cold burst into one full prefill plus suffix-only prefills within
        the same :meth:`step`.
        """
        if self._prefix is None:
            return chosen
        bs = self._cache.block_size
        kept: list[_RequestState] = []
        claimed: set[tuple[int, ...]] = set()
        # Rows still mid chunked prefill have claimed their leading block
        # too: their prefix is only captured once fully written, so
        # same-prefix arrivals must keep waiting for that capture instead
        # of redundantly prefilling alongside.
        for slot in self._slots:
            if slot is not None and slot.prefilling \
                    and len(slot.tokens) > bs:
                claimed.add(tuple(int(t) for t in slot.tokens[:bs]))
        for entry in chosen:
            tokens = entry.tokens
            if len(tokens) > bs:  # at least one shareable full block
                if self._prefix.peek(tokens).shared_len < bs:
                    key = tuple(int(t) for t in tokens[:bs])
                    if key in claimed:
                        continue  # adopts the representative's capture
                    claimed.add(key)
            kept.append(entry)
        return kept

    def _preempt_row(self, row: int) -> None:
        """Evict a running request to reclaim its slot and blocks.

        The request re-queues at the front with its generated progress
        and private RNG stream intact; only its exclusively-owned blocks
        return to the pool (the shared prefix survives in the store), so
        re-admission restores from the surviving prefix and re-prefills
        just the rest.
        """
        state = self._release_row(row)
        state.prefill_pos = None
        self._queue.appendleft(state)
        self.stats.preemptions += 1

    def _admit(self) -> list[TokenEvent]:
        """Admit waiting work as the scheduler directs.

        Each round asks the scheduler for an admission list, trims it to
        the block budget, claims slots for it, and lets the claimed rows
        spend the step's prefill budget; when nothing fits (no slots or
        no blocks) the scheduler may name victims to preempt, otherwise
        admission waits for retirements.  Running the prefill inside the
        round loop keeps the one-shot path's same-step pipelining: a
        wave that completes (and captures its prefix) lets deferred
        same-prefix requests re-select as suffix-only prefills within
        this very step.
        """
        events: list[TokenEvent] = []
        while self._queue:
            free = [row for row, slot in enumerate(self._slots)
                    if slot is None]
            view = self._scheduler_view()
            queue = list(self._queue)
            chosen = (self.scheduler.select(queue, len(free),
                                            view)[:len(free)]
                      if free else [])
            chosen = self._defer_wave_duplicates(chosen)
            chosen = self._fit_to_blocks(chosen, view)
            if not chosen:
                # Requests held back for a same-prefix capture wait for
                # that capture, not for memory: they must not drive
                # preemption (the victim would be re-admitted next round
                # and preempted again, forever).
                waiting = self._defer_wave_duplicates(queue)
                preempted = False
                for rid in self.scheduler.preempt(waiting, view):
                    victim_row = self._live.get(rid)
                    if victim_row is not None:
                        self._preempt_row(victim_row)
                        preempted = True
                if not preempted:
                    break
                continue
            self._claim_wave(chosen, free[:len(chosen)])
            events += self._prefill_step()
        return events

    def _claim_wave(self, entries: list[_RequestState],
                    rows: list[int]) -> None:
        """Move queued requests into slots, in the *prefilling* state.

        Claiming installs the slot, attaches whatever shared prefix the
        store holds (the adopted blocks are context the row never
        forwards), and books the admission's prompt accounting — but
        forwards nothing: chunk forwards happen in
        :meth:`_prefill_step`, under the step's token budget.
        """
        for entry in entries:
            self._queue.remove(entry)
        for entry, row in zip(entries, rows):
            shared = 0
            if self._prefix is not None:
                shared = self._prefix.attach(row, entry.tokens)
            entry.prefill_pos = shared
            self._slots[row] = entry
            self._lengths[row] = shared
            self._live[entry.request_id] = row
            # prompt_tokens counts context as it is *established* (the
            # adopted prefix now, each chunk as it forwards), so the
            # ``prompt == shared + prefill`` invariant holds at every
            # instant — including across mid-prefill cancels/preempts,
            # whose never-written remainders simply never count.
            self.stats.prompt_tokens += shared
            self.stats.shared_prompt_tokens += shared

    def _prefill_step(self) -> list[TokenEvent]:
        """Advance prefilling rows by one budgeted ragged chunk wave.

        The scheduler's ``prefill_order`` ranks the prefilling rows;
        each row in turn takes ``min(remaining prompt, remaining
        budget)`` tokens — rounded
        down to whole cache blocks unless the grant finishes the prompt
        — until the step's budget is spent.  The granted spans forward
        as one ragged wave — written via ``prefill_rows`` and attended
        block-resident over the chunk grid — and rows whose final prompt
        token lands this wave sample their first token, capture their
        prefix, and flip to decoding (the LM head is skipped for every
        other row via negative ``logits_positions``).
        """
        budget = self._prefill_budget
        prefilling = {slot.request_id: (row, slot)
                      for row, slot in enumerate(self._slots)
                      if slot is not None and slot.prefilling}
        if not prefilling or budget < 1:
            return []
        view = self._scheduler_view()
        infos = [info for info in view.running
                 if info.request_id in prefilling]
        order = [rid for rid in self.scheduler.prefill_order(infos, view)
                 if rid in prefilling]
        # Non-final grants round down to the cache's block granularity:
        # a chunk that stops mid-block would leave its freshest keys in
        # the FP32 write buffer where the one-shot span has already
        # quantized that block — the quantized backend would then read
        # different values chunked vs one-shot.  The effective per-step
        # budget is at least one block so the head of the order always
        # makes progress.
        grain = self._cache.block_size
        grants: list[tuple[int, _RequestState, int]] = []  # (row, slot, take)
        remaining_total = 0
        for rid in order:
            row, slot = prefilling[rid]
            remaining = len(slot.tokens) - slot.prefill_pos
            remaining_total += remaining
            take = min(remaining, max(budget, grain if not grants else 0))
            if take < remaining:
                take -= take % grain
            if take < 1:
                continue
            grants.append((row, slot, take))
            budget = max(0, budget - take)
        if not grants:
            return []
        granted = sum(take for _, _, take in grants)
        self._prefill_budget = budget
        self.stats.prefill_chunks += len(grants)
        self.stats.prefill_tokens_deferred += remaining_total - granted

        # One ragged wave over the granted spans: row j writes
        # ``take`` tokens after its ``prefill_pos`` established context
        # and attends everything up to each written position.
        rows_arr = np.array([row for row, _, _ in grants], dtype=np.int64)
        starts = np.array([slot.prefill_pos for _, slot, _ in grants],
                          dtype=np.int64)
        widths = np.array([take for _, _, take in grants], dtype=np.int64)
        finishing = np.array([slot.prefill_pos + take >= len(slot.tokens)
                              for _, slot, take in grants])
        n = len(grants)
        tokens, positions = _pad_spans(
            [slot.tokens[slot.prefill_pos:slot.prefill_pos + take]
             for _, slot, take in grants],
            starts, self.model.config.max_seq_len - 1)

        start_t = time.perf_counter()
        logits = self.model(tokens, cache=self._cache, positions=positions,
                            rows=rows_arr, span_lens=widths,
                            logits_positions=np.where(finishing,
                                                      widths - 1, -1))
        self.stats.prefill_seconds += time.perf_counter() - start_t
        self.stats.prefill_tokens += granted
        self.stats.prompt_tokens += granted
        self._account_step(rows=n, tokens=granted, prefill_tokens=granted)

        for row, slot, take in grants:
            slot.prefill_pos += take
            self._lengths[row] = slot.prefill_pos

        events: list[TokenEvent] = []
        finish_idx = np.flatnonzero(finishing)
        if len(finish_idx) == 0:
            return events
        done = [grants[i] for i in finish_idx]
        if self._prefix is not None:
            # Index the fully written prompts (before any same-step
            # retirement can release their blocks).  Only the original
            # prompt is captured — a restored request's regenerated
            # continuation is its own, not a reusable prefix.
            for row, slot, _ in done:
                self._prefix.capture(row, slot.request.prompt)
        first = _sample_tokens(logits.data[finish_idx, 0],
                               [slot.request.params for _, slot, _ in done],
                               [slot.rng for _, slot, _ in done])
        for j, (row, slot, _) in enumerate(done):
            token = int(first[j])
            slot.generated.append(token)
            slot.prefill_pos = None
            self._pending[row] = token
            reason = self._finish_reason(slot.request.params, token,
                                         len(slot.generated),
                                         int(self._lengths[row]))
            events.append(TokenEvent(slot.request_id, token, reason))
            if reason is not None:
                self._retire(row, reason)
        return events

    def _finish_reason(self, params: SamplingParams, token: int,
                       generated: int, context_len: int) -> str | None:
        """Terminal state a newly sampled ``token`` puts its request in,
        or None to continue: ``generated`` counts the request's tokens
        *including* this one and ``context_len`` is the committed
        context after it (for a speculative verify, the state it is
        about to commit)."""
        if self.eos_token is not None and token == self.eos_token:
            return "eos"
        if token in params.stop_tokens:
            return "stop"
        if generated >= params.max_new_tokens:
            return "length"
        if context_len >= self.model.config.max_seq_len:
            # The next decode would write at position ``context_len``,
            # past the RoPE table (valid positions are < max_seq_len).
            return "max_seq_len"
        return None

    def _retire(self, row: int, reason: str) -> None:
        """Complete the row's request and release its slot and blocks."""
        self._complete(self._release_row(row), reason)

    def _complete(self, state: _RequestState, reason: str) -> None:
        request = state.request
        self._finished.append(Completion(request_id=request.request_id,
                                         tokens=state.tokens.copy(),
                                         prompt_len=len(request.prompt),
                                         finish_reason=reason))

    def _release_row(self, row: int) -> _RequestState:
        """Vacate ``row`` (retire, cancel or preempt); returns the
        request that held it."""
        state = self._slots[row]
        self._slots[row] = None
        self._lengths[row] = 0
        self._live.pop(state.request_id, None)
        # The row's blocks return to the pool immediately so waiting
        # prompts can be admitted into the freed memory.  Trimming the
        # read width to the surviving rows keeps a persistent session from
        # forever reading (and masking) the longest-ever row's width.
        self._cache.free_rows(np.array([row]))
        self._cache.trim(int(self._lengths.max()))
        if self._spec is not None:
            self._spec.drop_rows(np.array([row]))
        return state
