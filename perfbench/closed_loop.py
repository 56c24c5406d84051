"""The step-driven closed loop and the latency metrics read off it.

One round serves a *plan* (see :mod:`perfbench.workloads`) on a fresh
engine: every client submits its first request, then the loop calls
``engine.step()`` until the engine runs dry, submitting a client's next
request inside the same loop the moment its previous one finishes.  No
thread, no sleep and no clock decides what the engine sees, so batch
composition and token streams repeat exactly for a seed.

All the tokens of one ``step()`` arrive together, stamped when the call
returns: that is when a streaming consumer could first read them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np
from repro.serve import SamplingParams

from perfbench.workloads import Req


class RequestLog:
    """Timeline of one request as the driver saw it."""

    __slots__ = ("client", "index", "req", "submitted", "times", "tokens",
                 "finish", "first_step", "last_step")

    def __init__(self, client: int, index: int, req: Req, submitted: float):
        self.client = client
        self.index = index
        self.req = req
        self.submitted = submitted
        self.times: list[float] = []
        self.tokens: list[int] = []
        self.finish: str | None = None
        self.first_step = -1
        self.last_step = -1


@dataclass
class Round:
    """One served plan: request timelines plus the engine's own counts."""

    logs: list[RequestLog]
    wall_s: float
    steps: int
    stats: dict
    step_trace: list = field(default_factory=list)
    span_range: tuple[int, int] | None = None
    evicted_blocks: int = 0          # of the prefix store, if there is one
    speed: float = 1.0               # machine slowness around the round

    @property
    def tokens(self) -> int:
        return sum(len(log.tokens) for log in self.logs)

    def digest(self) -> str:
        """SHA-256 over every stream in (client, index) order."""
        sha = hashlib.sha256()
        for log in sorted(self.logs, key=lambda l: (l.client, l.index)):
            sha.update(np.asarray(log.tokens, dtype=np.int64).tobytes())
            sha.update(b"|")
        return sha.hexdigest()


def serve_plan(engine, plan: list[list[Req]], tracer=None) -> Round:
    """Serve ``plan`` closed-loop on ``engine`` (fresh, idle)."""
    now = time.perf_counter
    pending = [list(reversed(reqs)) for reqs in plan]
    sent = [0] * len(plan)
    logs: dict[int, RequestLog] = {}
    span_lo = len(tracer.spans) if tracer is not None else 0

    def submit(client: int) -> None:
        req = pending[client].pop()
        params = SamplingParams(**req.params)
        submitted = now()
        rid = engine.submit(req.prompt, params=params)
        logs[rid] = RequestLog(client, sent[client], req, submitted)
        sent[client] += 1

    start = now()
    for client in range(len(plan)):
        submit(client)
    steps = 0
    while engine.has_work():
        events = engine.step()
        stamp = now()
        steps += 1
        for event in events:
            log = logs[event.request_id]
            if event.token is not None:
                if not log.times:
                    log.first_step = steps
                log.times.append(stamp)
                log.tokens.append(event.token)
            if event.finish_reason is not None:
                log.finish = event.finish_reason
                log.last_step = steps
                if pending[log.client]:
                    submit(log.client)
    wall = now() - start
    engine.take_completions()
    ordered = [logs[rid] for rid in sorted(logs)]
    if tracer is not None:
        # The tracer's step ids and the loop's step count advance
        # together, offset by the steps traced before this round.
        base = tracer.step_id - steps
        for rid, log in sorted(logs.items()):
            if log.times:
                tracer.note_request(
                    rid, int(log.submitted * 1e9), int(log.times[0] * 1e9),
                    int(log.times[-1] * 1e9), base + log.first_step,
                    base + log.last_step)
    return Round(logs=ordered, wall_s=wall, steps=steps,
                 stats=engine.stats.to_dict(),
                 step_trace=list(engine.trace),
                 span_range=((span_lo, len(tracer.spans))
                             if tracer is not None else None))


# ---------------------------------------------------------------------- #
# latency statistics
# ---------------------------------------------------------------------- #
def supported(samples: int, q: float) -> bool:
    """A percentile is reported only with ten samples beyond it."""
    return samples * (1.0 - q / 100.0) >= 10.0 and \
        samples * (q / 100.0) >= 10.0


def ttft_ms(logs: list[RequestLog]) -> np.ndarray:
    return np.asarray([1e3 * (log.times[0] - log.submitted)
                       for log in logs if log.times])


def tpot_ms(logs: list[RequestLog]) -> np.ndarray:
    return np.asarray([1e3 * (log.times[-1] - log.times[0])
                       / (len(log.times) - 1)
                       for log in logs if len(log.times) > 1])


def itl_ms(logs: list[RequestLog]) -> np.ndarray:
    gaps = [np.diff(log.times) for log in logs if len(log.times) > 1]
    return 1e3 * np.concatenate(gaps) if gaps else np.zeros(0)


def over_rounds(per_round: list[np.ndarray], q: float,
                speeds: list[float]) -> dict:
    """Each round's ``q``-th percentile at reference speed, median over
    rounds.

    Rounds are identical by construction, so the median over rounds
    drops a round disturbed by the machine without hiding a change that
    moves every round; dividing by the round's ``speed`` (see
    :mod:`perfbench.calibrate`) takes out a machine that is slow for
    the whole run.  ``samples`` is the pooled count the percentile
    rests on; ``supported`` says whether ten of them lie beyond it.
    """
    values = [float(np.percentile(samples, q)) / speed
              for samples, speed in zip(per_round, speeds) if len(samples)]
    pooled = int(sum(len(samples) for samples in per_round))
    return {"value": float(np.median(values)) if values else 0.0,
            "samples": pooled, "rounds": values,
            "supported": supported(pooled, q)}


def rate_over_rounds(counts: list[float], seconds: list[float],
                     speeds: list[float]) -> dict:
    """Median over rounds of ``count / seconds`` at reference speed."""
    values = [c * speed / s
              for c, s, speed in zip(counts, seconds, speeds) if s > 0]
    return {"value": float(np.median(values)) if values else 0.0,
            "samples": int(sum(counts)), "rounds": values,
            "supported": True}


def itl_p95_of_median_round(per_round: list[np.ndarray],
                            speeds: list[float]) -> dict:
    """95th percentile of the token gaps of the *median round*.

    A tail percentile taken round by round is the one number a busy
    machine ruins: a 4 ms time slice lost in a twentieth of the steps
    doubles a round's p95 (same-code runs spread 26-51% that way).  But
    rounds replay the same steps in the same order, so gap ``j`` of
    request ``i`` is the same work in every round: its median over
    rounds, each at reference speed, is what that step costs, and the
    p95 over those medians is the stall the program itself causes
    (a prefill chunk or a flush-quantize sharing the step).
    """
    entry = over_rounds(per_round, 95, speeds)
    if len({len(gaps) for gaps in per_round}) == 1 and len(per_round[0]):
        typical = np.median([gaps / speed for gaps, speed
                             in zip(per_round, speeds)], axis=0)
        entry["value"] = float(np.percentile(typical, 95))
    # else: streams differed between rounds, which ``check`` reports;
    # the per-round figure stands in.
    return entry


def latency_metrics(rounds: list[Round]) -> dict:
    """The five latency/throughput numbers every serving workload has."""
    speeds = [r.speed for r in rounds]
    return {
        "out_tok_s": rate_over_rounds([r.tokens for r in rounds],
                                      [r.wall_s for r in rounds], speeds),
        "ttft_ms_p50": over_rounds([ttft_ms(r.logs) for r in rounds], 50,
                                   speeds),
        "ttft_ms_p95": over_rounds([ttft_ms(r.logs) for r in rounds], 95,
                                   speeds),
        "tpot_ms_p50": over_rounds([tpot_ms(r.logs) for r in rounds], 50,
                                   speeds),
        "itl_ms_p95": itl_p95_of_median_round(
            [itl_ms(r.logs) for r in rounds], speeds),
    }


# ---------------------------------------------------------------------- #
# output checks (run outside the timed phase)
# ---------------------------------------------------------------------- #
def check_lengths(round_: Round) -> int:
    """Requests that did not end ``"length"`` with the requested count."""
    return sum(log.finish != "length"
               or len(log.tokens) != log.req.params["max_new_tokens"]
               for log in round_.logs)


def sample_indices(count: int, sample: int) -> list[int]:
    """``sample`` indices spread evenly over ``range(count)``."""
    if not sample:
        return []
    return sorted({int(i) for i in
                   np.linspace(0, count - 1, min(sample, count))})


def differs_from_generate(model, req: Req, tokens: list[int]) -> bool:
    """Whether a greedy stream differs from sequential
    ``TransformerLM.generate`` (the dense reference decoder)."""
    new = req.params["max_new_tokens"]
    reference = model.generate(req.prompt, new, temperature=0.0)
    return list(reference[len(req.prompt):]) != list(tokens)


def check_against_generate(model, round_: Round, sample: int) -> int:
    """Of ``sample`` requests spread over the round, how many differ
    from sequential ``generate`` token for token."""
    return sum(differs_from_generate(model, round_.logs[i].req,
                                     round_.logs[i].tokens)
               for i in sample_indices(len(round_.logs), sample))
