"""Serving-gateway overhead: the asserted acceptance numbers.

On the trained 7B stand-in at batch 16, one saturated wave of greedy
prompts through a bare engine (the ceiling) and through a
``ServingGateway`` driven by ``pump()`` — seed resolution, sqlite
journaling, dispatch and settlement on the clock, HTTP sockets off it
(open-loop arrivals are perfbench's ``gateway_open`` workload):

* gateway goodput (completed tokens per wall-clock second) stays within
  1.25x of the raw engine's — durability costs at most a quarter of
  throughput;
* every request completes on both paths (goodput counts only completed
  requests, so a dropped or wedged one fails the bound).
"""

import time
from typing import NamedTuple

import pytest

from repro.eval.tables import format_table
from repro.serve import (GenerationEngine, RequestQueue, ServingGateway,
                         bench_prompts)

BATCH = 16
NUM_REQUESTS = 32
MAX_NEW_TOKENS = 16
OVERHEAD_BOUND = 1.25

#: Wall-clock assertions on shared CI runners are noisy; a losing
#: measurement is re-taken up to this many times before failing.
MAX_ATTEMPTS = 3


class Wave(NamedTuple):
    completed: int          # requests that finished un-cancelled
    generated_tokens: int   # their tokens
    goodput_tokens_per_s: float


def engine_wave(model, prompts):
    engine = GenerationEngine(model, max_batch_size=BATCH)
    for prompt in prompts:
        engine.submit(prompt, MAX_NEW_TOKENS)
    start = time.perf_counter()
    completions = engine.run()
    seconds = time.perf_counter() - start
    done = [c for c in completions if c.finish_reason != "cancelled"]
    tokens = sum(len(c.new_tokens) for c in done)
    return Wave(len(done), tokens, tokens / seconds)


def gateway_wave(model, prompts):
    gateway = ServingGateway(GenerationEngine(model, max_batch_size=BATCH),
                             RequestQueue(":memory:"))
    start = time.perf_counter()
    for prompt in prompts:
        gateway.submit(prompt, max_new_tokens=MAX_NEW_TOKENS)
    while gateway.queue.depth() > 0:
        gateway.pump()
    seconds = time.perf_counter() - start
    completed = gateway.queue.job_ids("completed")
    tokens = sum(len(gateway.queue.tokens(job_id)) for job_id in completed)
    gateway.queue.close()
    return Wave(len(completed), tokens, tokens / seconds)


def measure(zoo):
    prompts = bench_prompts(zoo.model.config.vocab_size, NUM_REQUESTS, seed=0)
    return {"engine": engine_wave(zoo.model, prompts),
            "gateway": gateway_wave(zoo.model, prompts)}


def overhead_ratio(waves):
    """Raw-engine goodput over saturated-gateway goodput."""
    return (waves["engine"].goodput_tokens_per_s
            / waves["gateway"].goodput_tokens_per_s)


@pytest.fixture(scope="module")
def gateway_waves(zoo_7b):
    return measure(zoo_7b)


def test_report_gateway_table(gateway_waves):
    print("\n" + format_table(
        ["path", "completed", "goodput tok/s"],
        [[label, f"{wave.completed}/{NUM_REQUESTS}",
          f"{wave.goodput_tokens_per_s:,.0f}"]
         for label, wave in gateway_waves.items()],
        title=f"serving gateway (llama-sim-7b, {NUM_REQUESTS} requests x "
              f"{MAX_NEW_TOKENS} tokens, batch {BATCH})"))
    print(f"gateway overhead vs raw engine: "
          f"{overhead_ratio(gateway_waves):.2f}x")
    for wave in gateway_waves.values():
        assert wave.goodput_tokens_per_s > 0


def test_every_request_completes(gateway_waves):
    for label, wave in gateway_waves.items():
        assert wave.completed == NUM_REQUESTS, (
            f"{label}: only {wave.completed}/{NUM_REQUESTS} "
            f"requests completed")
        assert wave.generated_tokens == NUM_REQUESTS * MAX_NEW_TOKENS


def test_gateway_goodput_within_bound_of_engine(zoo_7b, gateway_waves):
    """Durable serving costs <= 25% throughput at batch 16."""
    waves, best = gateway_waves, float("inf")
    for _attempt in range(MAX_ATTEMPTS):
        best = min(best, overhead_ratio(waves))
        if best <= OVERHEAD_BOUND:
            break
        waves = measure(zoo_7b)  # timing noise: measure again
    print(f"\ngateway overhead best of attempts: {best:.2f}x "
          f"(bound {OVERHEAD_BOUND}x)")
    assert best <= OVERHEAD_BOUND, (
        f"gateway goodput {best:.2f}x worse than raw engine after "
        f"{MAX_ATTEMPTS} attempts (bound {OVERHEAD_BOUND}x)")
