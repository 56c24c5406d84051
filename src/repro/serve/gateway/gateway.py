"""Asyncio serving gateway: durable queue in front, engine loop behind.

:class:`ServingGateway` is the seam between network handlers and the
synchronous :class:`~repro.serve.engine.GenerationEngine`:

* **Admission** — :meth:`submit` journals the request into a
  :class:`~repro.serve.gateway.queue.RequestQueue` *before* the engine
  sees it, resolving the sampling seed so the journaled record can
  regenerate its exact stream after a restart.  A bounded queue depth
  (``max_queue_depth``) makes overload a fast, retriable
  :class:`QueueFullError` instead of an unbounded backlog.
* **The engine loop** — one background task repeatedly runs
  :meth:`pump`: dispatch journaled jobs into the engine (at most
  ``max_inflight`` at a time, and only when the paged pool's
  ``available_blocks`` can take the prompt — the ``max_pool_blocks``
  budget backpressures admission instead of forcing preemptions),
  advance ``engine.step()`` once, journal the step's tokens (one sqlite
  transaction per step), and fan events out to per-connection
  subscriber queues.  ``pump`` is deliberately synchronous and public:
  tests drive restart/recovery scenarios step by deterministic step
  without an event loop.
* **Streaming** — :meth:`stream` yields :class:`TokenUpdate`\\ s for one
  job: the journaled prefix first (replay — a reconnecting or
  post-restart client misses nothing), then live updates, deduplicated
  by token index so replay and live can never double-emit.  A consumer
  that disconnects mid-stream (the generator is closed early) cancels
  the job when it was the last subscriber, which propagates to
  ``engine.cancel()`` and frees the job's cache blocks immediately.
* **Degrading, not dying** — an exception out of one pump (a poison
  request whose forward raises) costs the jobs that were inside the
  engine for that step, marked ``failed`` with the error text; queued
  jobs and later submissions are served as if nothing happened.
* **Observability** — :meth:`metrics` snapshots
  ``EngineStats.to_dict()`` next to queue-depth gauges and
  first-token-latency percentiles, the payload ``GET /metrics`` serves.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.serve.engine import GenerationEngine
from repro.serve.gateway.queue import RequestQueue
from repro.serve.params import SamplingParams, validate_request

#: First-token latencies kept for the ``/metrics`` percentiles: the most
#: recent requests only, so neither the gateway's memory nor the cost of
#: a scrape grows with uptime.
FIRST_TOKEN_WINDOW = 4096

#: Engine-loop sleep when there is no work (seconds).
IDLE_SLEEP = 0.001


class QueueFullError(RuntimeError):
    """Admission refused: the durable queue is at ``max_queue_depth``.

    Retriable by construction — nothing was journaled and the engine was
    never touched; the HTTP layer maps it to ``429 Too Many Requests``.
    """


@dataclass(frozen=True)
class TokenUpdate:
    """One streamed update for a job.

    ``index`` is the token's position in the job's *generated* output
    (journal index), ``None`` for tokenless terminal notices (a
    cancellation).  ``finish_reason`` is ``None`` mid-stream and set on
    the final update.
    """

    job_id: int
    index: int | None
    token: int | None
    finish_reason: str | None = None


@dataclass
class _JobState:
    """What the gateway remembers about one live job — created at
    :meth:`ServingGateway.submit` (or at dispatch, for a job recovered
    from the journal) and dropped on every terminal edge."""

    arrived: float | None       # perf_counter at submit; None if recovered
    rid: int | None = None      # engine request id once dispatched
    emitted: int = 0            # tokens seen this dispatch
    journal: tuple[int, ...] = ()   # journaled tokens at dispatch


class ServingGateway:
    """Async front-end over one engine and one durable queue.

    Parameters
    ----------
    engine:
        The :class:`GenerationEngine` to serve.  The gateway owns its
        pump loop; nothing else should call ``engine.step()``.
    queue:
        The durable :class:`RequestQueue` (defaults to an in-memory
        one; pass a file-backed queue for restart survival).
    max_queue_depth:
        Live-job bound (queued + running) above which :meth:`submit`
        raises :class:`QueueFullError`.  ``None`` = unbounded.
    max_inflight:
        Jobs dispatched into the engine at once (its internal queue +
        slots).  Defaults to the engine's batch width — the durable
        queue, not the engine's in-memory deque, holds the backlog, so
        a crash can only lose work the journal already covers.
    rng:
        Seed source for requests that did not fix ``params.seed``.
    """

    def __init__(self, engine: GenerationEngine,
                 queue: RequestQueue | None = None, *,
                 max_queue_depth: int | None = None,
                 max_inflight: int | None = None,
                 rng: np.random.Generator | None = None):
        self.engine = engine
        self.queue = queue if queue is not None else RequestQueue()
        self.max_queue_depth = max_queue_depth
        self.max_inflight = max_inflight or engine.max_batch_size
        self.rng = rng or np.random.default_rng(0)
        self._jobs: dict[int, _JobState] = {}
        self._rid_job: dict[int, int] = {}    # engine request id -> job id
        self._subs: dict[int, list[asyncio.Queue]] = {}
        self._first_token_s: deque[float] = deque(maxlen=FIRST_TOKEN_WINDOW)
        self._first_token_count = 0
        self._task: asyncio.Task | None = None
        self._running = False
        self._loop_error: BaseException | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def recover(self) -> list[int]:
        """Requeue jobs a previous process left ``running``.

        Returns the requeued job ids; their journaled tokens stay put
        and re-dispatch regenerates the same stream past them — or fails
        the job at the first regenerated token that disagrees, not splices.
        """
        return self.queue.recover()

    async def start(self) -> list[int]:
        """Recover the journal and start the engine-loop task."""
        requeued = self.recover()
        self._running = True
        self._loop_error = None
        self._task = asyncio.get_running_loop().create_task(
            self._engine_loop())
        return requeued

    async def stop(self) -> None:
        """Stop the engine loop (jobs stay journaled for a later start)."""
        self._running = False
        if self._task is not None:
            await self._task
            self._task = None
        if self._loop_error is not None:
            raise self._loop_error

    async def drain(self) -> None:
        """Wait until every journaled job is terminal."""
        while self._running and self.queue.depth() > 0:
            await asyncio.sleep(0)
        # A dying loop clears ``_running`` as it records its error, so
        # the wait above ends on it: jobs are still journaled, say why.
        if self._loop_error is not None:
            raise self._loop_error

    async def _engine_loop(self) -> None:
        while self._running:
            try:
                progressed = self._pump_or_fail()
            except BaseException as exc:  # surface via stop()/drain()
                self._loop_error = exc
                self._running = False
                break
            await asyncio.sleep(0 if progressed else IDLE_SLEEP)

    def _pump_or_fail(self) -> bool:
        """:meth:`pump`, with an ``Exception`` out of it charged to the
        jobs inside the engine instead of ending service: each is
        cancelled there (its row and blocks come back), journaled
        ``failed`` with the error text and told so.  Which of them
        raised is unknown and the step they shared is half-applied, so
        the whole wave goes; queued jobs are untouched."""
        try:
            return self.pump()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            for rid in list(self._rid_job):
                self._fail(rid, error)
            return True

    def _fail(self, rid: int, error: str) -> None:
        """Cancel engine request ``rid``; journal and publish it failed."""
        job_id = self._rid_job.pop(rid)
        self.engine.cancel(rid)
        self.queue.fail(job_id, error)
        self._publish(job_id, TokenUpdate(job_id, None, None, "failed"))
        del self._jobs[job_id]

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    def submit(self, prompt: np.ndarray,
               params: SamplingParams | None = None, *,
               max_new_tokens: int | None = None,
               temperature: float | None = None) -> int:
        """Journal a request; returns its durable job id.

        Mirrors ``engine.submit``'s params-or-shorthand surface, but the
        request lands in the sqlite journal (status ``queued``) rather
        than the engine — the pump loop dispatches it under the inflight
        and block budgets.  Raises :class:`QueueFullError` when the
        queue is at ``max_queue_depth`` (nothing journaled, engine
        untouched) and ``ValueError`` for malformed requests, both
        *before* any durable write.
        """
        if (self.max_queue_depth is not None
                and self.queue.depth() >= self.max_queue_depth):
            raise QueueFullError(
                f"queue is at max_queue_depth={self.max_queue_depth}; "
                f"retry later")
        prompt, params = validate_request(
            prompt, params, max_new_tokens, temperature,
            self.engine.model.config.max_seq_len, self.rng)
        job_id = self.queue.submit(prompt, params)
        self._jobs[job_id] = _JobState(arrived=time.perf_counter())
        return job_id

    def cancel(self, job_id: int) -> bool:
        """Cancel a job wherever it is; False if unknown/terminal.

        A job inside the engine is cancelled there too — its slot and
        exclusively-owned cache blocks come back immediately, not at
        the next natural completion.
        """
        cancelled = self.queue.cancel(job_id)
        state = self._jobs.get(job_id)
        if state is not None:
            if state.rid is not None:
                self.engine.cancel(state.rid)   # the drain drops the state
            else:
                del self._jobs[job_id]
        return cancelled

    # ------------------------------------------------------------------ #
    # the pump: dispatch -> step -> journal -> fan out
    # ------------------------------------------------------------------ #
    def pump(self) -> bool:
        """One dispatch+step+journal iteration; True if work was done.

        The engine loop's body, exposed synchronously so tests (and the
        benchmark's saturation phase) can drive the gateway
        deterministically.
        """
        self._dispatch()
        if not self.engine.has_work():
            return False
        events = self.engine.step()
        self._journal_events(events)
        self._drain_completions()
        return True

    def _blocks_for(self, prompt_len: int) -> int:
        """Conservative new-block demand of admitting a prompt (its
        context plus the first generated token's write)."""
        return -(-(prompt_len + 1) // self.engine.block_size)

    def _block_budget(self) -> int | None:
        """Blocks the paged pool can still grant (None = unbounded).

        Before the first admit the cache does not exist yet, so the
        engine's configured ``max_pool_blocks`` soft budget stands in.
        """
        cache = self.engine.cache
        if cache is None:
            return self.engine.max_pool_blocks
        return cache.available_blocks()

    def _dispatch(self) -> None:
        budget = self._block_budget()
        while len(self._rid_job) < self.max_inflight:
            job = self.queue.next_queued()
            if job is None:
                break
            needed = self._blocks_for(len(job.prompt))
            # Pool-aware admission: dispatch only what the soft budget
            # can hold, but always let the head job through an idle
            # engine — serving one oversize job at a time beats
            # stalling (the engine's own trimming degrades gracefully).
            if budget is not None and needed > budget and self._rid_job:
                break
            try:
                rid = self.engine.submit_from_record(job)
            except ValueError as exc:
                # A journaled job the engine rejects (e.g. restored from
                # a journal written against a larger model) fails loudly
                # in the record instead of wedging the dispatch loop.
                self.queue.fail(job.job_id, str(exc))
                self._publish(job.job_id,
                              TokenUpdate(job.job_id, None, None, "failed"))
                self._jobs.pop(job.job_id, None)
                continue
            self.queue.mark_running(job.job_id)
            state = self._jobs.setdefault(job.job_id, _JobState(arrived=None))
            state.rid, state.emitted, state.journal = rid, 0, job.tokens
            self._rid_job[rid] = job.job_id
            if budget is not None:
                budget = max(0, budget - needed)

    def _journal_events(self, events) -> None:
        to_append: dict[int, list[tuple[int, int]]] = {}
        for event in events:
            job_id = self._rid_job.get(event.request_id)
            if job_id is None:
                continue
            if event.token is None:
                # Tokenless terminal (a cancellation): the completion
                # drain settles the journal; tell subscribers now.
                if event.finish_reason is not None:
                    self._publish(job_id, TokenUpdate(
                        job_id, None, None, event.finish_reason))
                continue
            state = self._jobs[job_id]
            idx = state.emitted
            state.emitted = idx + 1
            if idx < len(state.journal) and event.token != state.journal[idx]:
                self._fail(event.request_id, f"recovery diverged at token "
                           f"{idx}: journal {state.journal[idx]}, "
                           f"regenerated {event.token}")
                continue
            if idx == 0 and state.arrived is not None:
                self._first_token_s.append(
                    time.perf_counter() - state.arrived)
                self._first_token_count += 1
            if idx >= len(state.journal):
                to_append.setdefault(job_id, []).append(
                    (idx, int(event.token)))
            self._publish(job_id, TokenUpdate(job_id, idx,
                                              int(event.token),
                                              event.finish_reason))
        for job_id, pairs in to_append.items():
            self.queue.append_tokens(job_id, pairs)

    def _drain_completions(self) -> None:
        for completion in self.engine.take_completions():
            job_id = self._rid_job.pop(completion.request_id, None)
            if job_id is None:
                continue
            del self._jobs[job_id]
            self.queue.finish(job_id, completion.finish_reason)

    def _publish(self, job_id: int, update: TokenUpdate) -> None:
        for sub in self._subs.get(job_id, ()):
            sub.put_nowait(update)

    # ------------------------------------------------------------------ #
    # consumption
    # ------------------------------------------------------------------ #
    async def stream(self, job_id: int):
        """Async-iterate a job's :class:`TokenUpdate`\\ s to the end.

        Journal first, live after: the subscriber queue is attached
        *before* the journal is read, and live updates whose index the
        replay already covered are dropped, so the merged stream has no
        gap and no duplicate whatever the interleaving — including a
        subscriber attaching to a recovered job mid-regeneration.
        Closing the generator early (a disconnecting client) cancels
        the job if it was the last subscriber.
        """
        job = self.queue.get(job_id)
        if job is None:
            raise KeyError(f"unknown job id {job_id}")
        sub: asyncio.Queue = asyncio.Queue()
        self._subs.setdefault(job_id, []).append(sub)
        finished = False
        try:
            next_idx = 0
            for token in self.queue.tokens(job_id):
                yield TokenUpdate(job_id, next_idx, int(token), None)
                next_idx += 1
            job = self.queue.get(job_id)
            if job.terminal:
                finished = True
                yield TokenUpdate(job_id, None, None,
                                  job.finish_reason or job.status)
                return
            while True:
                update = await sub.get()
                if update.index is not None:
                    if update.index < next_idx:
                        continue  # replay already covered this token
                    next_idx = update.index + 1
                yield update
                if update.finish_reason is not None:
                    finished = True
                    return
        finally:
            subs = self._subs.get(job_id, [])
            if sub in subs:
                subs.remove(sub)
            if not subs:
                self._subs.pop(job_id, None)
            if not finished and not subs:
                self.cancel(job_id)

    async def result(self, job_id: int):
        """Wait for a job to finish; returns its final journal record."""
        async for _update in self.stream(job_id):
            pass
        return self.queue.get(job_id)

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def metrics(self) -> dict:
        """The ``/metrics`` payload: engine stats + gateway gauges.

        ``engine`` is ``EngineStats.to_dict()`` verbatim, so prefix/dequant
        hit rates, spec acceptance, preemptions, and the memory
        high-water marks are all one scrape away.  ``latency`` counts
        every first token served; its mean and percentiles cover the
        last ``FIRST_TOKEN_WINDOW`` of them.
        """
        counts = self.queue.counts()
        latencies = np.asarray(self._first_token_s, dtype=np.float64)
        return {
            "model": self.engine.model.config.name,
            "kv_cache": self.engine.kv_cache,
            "engine": self.engine.stats.to_dict(),
            "queue": {
                "depth": counts["queued"] + counts["running"],
                "inflight": len(self._rid_job),
                "max_queue_depth": self.max_queue_depth,
                "max_inflight": self.max_inflight,
                **{f"jobs_{status}": n for status, n in counts.items()},
            },
            "latency": {
                "first_token_count": self._first_token_count,
                "first_token_mean_s":
                    float(latencies.mean()) if latencies.size else 0.0,
                "first_token_p50_s":
                    float(np.percentile(latencies, 50))
                    if latencies.size else 0.0,
                "first_token_p99_s":
                    float(np.percentile(latencies, 99))
                    if latencies.size else 0.0,
            },
        }
