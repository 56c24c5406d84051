"""Pluggable request-admission policies for the serving engine.

The engine delegates *which* queued requests enter free slots — and
*whose* rows get sacrificed when memory runs out — to a
:class:`Scheduler`.  Three policies ship:

* ``"fifo"`` — arrival order, the PR 1-3 behaviour and the baseline.
* ``"prefix-affinity"`` — probes the prefix store for every waiting
  request and admits the largest group sharing a cached prefix first
  (ties: longer shared prefix, then arrival), so requests that can reuse
  the same cached blocks ride the same decode wave instead of straddling
  waves that each re-pay the gather width.
* ``"priority"`` — per-request ``SamplingParams.priority`` (higher wins;
  FIFO within a level).  When the block pool is exhausted (or all slots
  are busy) and a strictly higher-priority request is waiting, the
  lowest-priority running row is *preempted*: its slot and exclusive
  blocks are freed, the request re-queues with its progress, and on
  re-admission it restores from whatever shared prefix survived in the
  prefix store.

Schedulers are pure decision objects: they never mutate the engine.
``select`` proposes an ordered admission list, ``preempt`` names victims
to make admission room, ``victims_for_blocks`` names victims when
*decode* (not admission) needs blocks the budget cannot grant.  The
engine enacts (or trims) the proposals against the actual block budget.

With chunked prefill enabled the engine additionally asks the policy to
arbitrate the per-step prefill token budget: ``prefill_order`` ranks the
rows still writing their prompts, and the engine grants each row chunk
tokens in that order until the step budget runs out (the head row always
progresses).  FIFO and prefix-affinity hand the budget out in arrival
order; priority ranks by request priority first, so a high-priority
prompt drains ahead of lower ones.

Custom policies implement the same four methods and go straight into
``GenerationEngine(scheduler=MyScheduler())``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

#: Built-in scheduler names, in the order the docs present them.
SCHEDULERS = ("fifo", "prefix-affinity", "priority")


def admission_key(priority: int, seq: int) -> tuple[int, int]:
    """Canonical admission order: higher priority first, FIFO within.

    The one comparator behind every priority-ordered queue in the
    serving stack — :class:`PriorityScheduler`'s admission and prefill
    ranking here, and the durable gateway queue's sqlite claim order
    (``ORDER BY priority DESC, job_id ASC``) — so a request's priority
    set at HTTP submit time means the same thing in the journal, at
    dispatch, and inside the engine.
    """
    return (-priority, seq)


@dataclass(frozen=True)
class RunningInfo:
    """One active engine slot, as schedulers see it.

    ``prefill_remaining`` is the number of prompt tokens the row still
    has to write before it can decode — zero for decoding rows, positive
    for rows mid chunked prefill (``prefill_order`` arbitrates these).
    """

    request_id: int
    row: int
    priority: int
    tokens_generated: int
    context_len: int
    prefill_remaining: int = 0


@dataclass(frozen=True)
class SchedulerView:
    """Read-only engine state handed to every scheduler decision.

    ``prefix_peek`` probes the prefix store without touching LRU state
    and returns ``(shared_len, node_key)`` — the number of prompt tokens
    a request could adopt from cache and an opaque key identifying the
    deepest shared node (requests with equal keys would batch onto the
    same cached prefix).  With prefix sharing disabled it returns
    ``(0, None)`` and prefix-affinity degrades to FIFO.
    ``available_blocks`` is ``None`` when the block pool is unbounded.
    """

    free_slots: int
    running: tuple[RunningInfo, ...]
    free_blocks: int
    available_blocks: int | None
    block_size: int
    prefix_peek: Callable[[Sequence[int]], tuple[int, object]]


@runtime_checkable
class Scheduler(Protocol):
    """Admission policy protocol (duck-typed; see module docstring)."""

    name: str

    def select(self, queue: Sequence, free_slots: int,
               view: SchedulerView) -> list:
        """Ordered subset of ``queue`` to admit (at most ``free_slots``)."""
        ...

    def preempt(self, queue: Sequence, view: SchedulerView) -> list[int]:
        """Request ids of running rows to preempt so the head of the
        queue can be admitted; empty when the policy never preempts."""
        ...

    def victims_for_blocks(self, view: SchedulerView,
                           needed_blocks: int) -> list[int]:
        """Request ids to preempt when decode needs ``needed_blocks``
        beyond the budget; empty when the policy never preempts."""
        ...

    def prefill_order(self, prefilling: Sequence[RunningInfo],
                      view: SchedulerView) -> list[int]:
        """Request ids of mid-prefill rows, in budget-grant order."""
        ...


class FIFOScheduler:
    """Arrival order, no preemption — the PR 1-3 baseline."""

    name = "fifo"

    def select(self, queue: Sequence, free_slots: int,
               view: SchedulerView) -> list:
        return list(queue[:free_slots])

    def preempt(self, queue: Sequence, view: SchedulerView) -> list[int]:
        return []

    def victims_for_blocks(self, view: SchedulerView,
                           needed_blocks: int) -> list[int]:
        return []

    def prefill_order(self, prefilling: Sequence[RunningInfo],
                      view: SchedulerView) -> list[int]:
        """Request ids of mid-prefill rows, in budget-grant order.

        The engine walks this order handing each row up to its remaining
        prompt tokens from the step's ``prefill_chunk_tokens`` budget.
        Arrival order (request ids ascend with submission) keeps the
        earliest long prompt draining first instead of time-slicing every
        prompt a sliver per step (which would delay *all* first tokens).
        """
        return sorted(info.request_id for info in prefilling)


class PrefixAffinityScheduler(FIFOScheduler):
    """Batch requests that share cached prefixes into the same wave."""

    name = "prefix-affinity"

    def select(self, queue: Sequence, free_slots: int,
               view: SchedulerView) -> list:
        probes = [view.prefix_peek(entry.tokens) for entry in queue]
        group_size: dict[object, int] = {}
        for shared, key in probes:
            if key is not None:
                group_size[key] = group_size.get(key, 0) + 1
        order = sorted(
            range(len(queue)),
            key=lambda i: (-group_size.get(probes[i][1], 1) if probes[i][1]
                           is not None else -1,
                           -probes[i][0], i))
        return [queue[i] for i in order[:free_slots]]


class PriorityScheduler(FIFOScheduler):
    """Strict priority admission with preemptive memory reclamation."""

    name = "priority"

    def select(self, queue: Sequence, free_slots: int,
               view: SchedulerView) -> list:
        order = sorted(range(len(queue)),
                       key=lambda i: admission_key(queue[i].priority, i))
        return [queue[i] for i in order[:free_slots]]

    def preempt(self, queue: Sequence, view: SchedulerView) -> list[int]:
        if not queue or not view.running:
            return []
        best_waiting = max(entry.priority for entry in queue)
        candidates = [info for info in view.running
                      if info.priority < best_waiting]
        if not candidates:
            return []
        # Lowest priority first; among equals, the longest context frees
        # the most blocks per preemption.
        victim = min(candidates,
                     key=lambda info: (info.priority, -info.context_len))
        return [victim.request_id]

    def prefill_order(self, prefilling: Sequence[RunningInfo],
                      view: SchedulerView) -> list[int]:
        """Highest priority drains first; FIFO within a level."""
        return [info.request_id
                for info in sorted(prefilling,
                                   key=lambda info: admission_key(
                                       info.priority, info.request_id))]

    def victims_for_blocks(self, view: SchedulerView,
                           needed_blocks: int) -> list[int]:
        if not view.running:
            return []
        top = max(info.priority for info in view.running)
        candidates = sorted((info for info in view.running
                             if info.priority < top),
                            key=lambda info: (info.priority,
                                              -info.context_len))
        victims: list[int] = []
        reclaimed = 0
        for info in candidates:
            if reclaimed >= needed_blocks:
                break
            victims.append(info.request_id)
            # A preempted row frees at most its exclusive blocks; the
            # context length is the optimistic upper bound.
            reclaimed += -(-info.context_len // view.block_size)
        return victims


def get_scheduler(scheduler: "str | Scheduler") -> "Scheduler":
    """Resolve a scheduler name (or pass through a policy object)."""
    if isinstance(scheduler, str):
        try:
            cls = {"fifo": FIFOScheduler,
                   "prefix-affinity": PrefixAffinityScheduler,
                   "priority": PriorityScheduler}[scheduler]
        except KeyError:
            raise ValueError(f"scheduler must be one of {SCHEDULERS} "
                             f"or a Scheduler instance, "
                             f"got {scheduler!r}") from None
        return cls()
    if isinstance(scheduler, Scheduler):
        return scheduler
    raise TypeError(f"not a Scheduler: {scheduler!r}")
