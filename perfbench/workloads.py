"""Workload shapes and seed-driven input generation.

Everything the program under test receives is made here from the
workload seed: prompts, per-request sampling parameters (their sampling
seeds included) and, for the open loop, arrival times.  The program is
never told the seed or the workload's name.

A *plan* is a list of clients; a client is the list of requests it
sends one after another (closed loop: the next goes out when the
previous one finishes).  Sizes are fixed per workload so that rounds
repeat exactly; ``QUICK`` holds the scaled-down shapes the smoke test
runs on untrained models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 0

#: Open-loop arrival rates (requests/s) of ``gateway_open``: about
#: 0.25 / 0.5 / 0.75 of the saturated request rate of the gateway on its
#: ``:memory:`` journal measured when the benchmark landed (150 req/s).
#: Fixed numbers, not re-derived per run, so that a slower gateway shows
#: as latency.
OPEN_RATES_RPS = (40.0, 75.0, 110.0)

#: Latency limits of the ``open.slo_rate_rps`` layer metric.
SLO_TTFT_P95_MS = 250.0
SLO_TPOT_P50_MS = 25.0

#: 128-token windows behind ``ppl_ratio_kv``, keyed by ``quick``.
KV_PPL_WINDOWS = {False: 4, True: 1}


@dataclass(frozen=True)
class Req:
    """One request: token prompt plus ``SamplingParams`` keyword values."""

    prompt: np.ndarray
    params: dict


FULL = {
    "chat": dict(clients=16, per_client=2, prompt_len=(4, 12), new=64),
    "longctx": dict(clients=8, per_client=1, prompt_len=384, new=64),
    "mixed": dict(chat_clients=14, chat_per_client=3, system_len=64,
                  unique_len=8, chat_new=24, doc_clients=2,
                  doc_per_client=2, doc_len=384, doc_new=8),
    # 3 requests x 96 tokens keeps the steps that carry a neighbour's
    # prefill near 2% of all token gaps: at the issue's 4 x 48 they were
    # 5%, so itl_ms_p95 sat on the cliff between two kinds of step and
    # jumped 18 <-> 46 ms from seed to seed.
    "spec": dict(clients=4, per_client=3, prompt_len=128, new=96),
    "gateway": dict(sat_requests=48, new=16, prompt_len=(4, 12), batch=16,
                    file_rounds=2, recover_jobs=16, http_probes=6),
    "offline": dict(eval_tokens=20_000, seq_len=128, chunk_windows=20,
                    tail_clients=8, tail_per_client=2, tail_prompt_len=32,
                    tail_new=32),
}

QUICK = {
    "chat": dict(clients=4, per_client=2, prompt_len=(4, 12), new=20),
    "longctx": dict(clients=2, per_client=1, prompt_len=96, new=20),
    "mixed": dict(chat_clients=3, chat_per_client=2, system_len=32,
                  unique_len=8, chat_new=8, doc_clients=1,
                  doc_per_client=1, doc_len=160, doc_new=4),
    "spec": dict(clients=2, per_client=1, prompt_len=32, new=12),
    "gateway": dict(sat_requests=12, new=6, prompt_len=(4, 12), batch=4,
                    file_rounds=1, recover_jobs=4, http_probes=2),
    "offline": dict(eval_tokens=1_200, seq_len=64, chunk_windows=6,
                    tail_clients=2, tail_per_client=1, tail_prompt_len=16,
                    tail_new=18),
}


def _random_prompt(rng: np.random.Generator, vocab: int, length: int
                   ) -> np.ndarray:
    return rng.integers(0, vocab, size=length).astype(np.int64)


def _greedy(new: int, seed: int) -> dict:
    # Greedy requests draw nothing, but the gateway journals only
    # requests whose seed is resolved, so every request carries one.
    return {"max_new_tokens": new, "seed": seed}


def chat_plan(seed: int, vocab: int, clients: int, per_client: int,
              prompt_len: tuple[int, int], new: int) -> list[list[Req]]:
    """Short chats: prompt lengths cycle through ``prompt_len`` so the
    batch is ragged but the token totals do not depend on the seed."""
    rng = np.random.default_rng([seed, 1])
    low, high = prompt_len
    plan = []
    for client in range(clients):
        reqs = []
        for i in range(per_client):
            length = low + (client * per_client + i) % (high - low + 1)
            reqs.append(Req(_random_prompt(rng, vocab, length),
                            _greedy(new, int(rng.integers(2 ** 31)))))
        plan.append(reqs)
    return plan


def longctx_plan(seed: int, vocab: int, clients: int, per_client: int,
                 prompt_len: int, new: int) -> list[list[Req]]:
    rng = np.random.default_rng([seed, 2])
    return [[Req(_random_prompt(rng, vocab, prompt_len),
                 _greedy(new, int(rng.integers(2 ** 31))))
             for _ in range(per_client)] for _ in range(clients)]


def mixed_plan(seed: int, vocab: int, chat_clients: int,
               chat_per_client: int, system_len: int, unique_len: int,
               chat_new: int, doc_clients: int, doc_per_client: int,
               doc_len: int, doc_new: int) -> list[list[Req]]:
    """Sampled chats behind one shared system prompt, beside a few long
    unshared documents whose prefill is chunked across steps."""
    rng = np.random.default_rng([seed, 3])
    system = _random_prompt(rng, vocab, system_len)
    plan = []
    for _ in range(chat_clients):
        plan.append([
            Req(np.concatenate([system,
                                _random_prompt(rng, vocab, unique_len)]),
                {"max_new_tokens": chat_new, "temperature": 0.8,
                 "top_k": 40, "top_p": 0.95,
                 "seed": int(rng.integers(2 ** 31))})
            for _ in range(chat_per_client)])
    for _ in range(doc_clients):
        plan.append([Req(_random_prompt(rng, vocab, doc_len),
                         _greedy(doc_new, int(rng.integers(2 ** 31))))
                     for _ in range(doc_per_client)])
    return plan


def corpus_plan(seed: int, tokenizer, clients: int, per_client: int,
                prompt_len: int, new: int) -> list[list[Req]]:
    """In-distribution prompts: windows of held-out corpus text, which
    is what makes a draft model agree with its target."""
    from repro.data.corpus import generate_corpus

    total = clients * per_client
    rng = np.random.default_rng([seed, 4])
    sentences = generate_corpus(
        "wikitext-sim", max(64, total * prompt_len // 8),
        seed=200_000 + seed)
    stream = np.asarray(tokenizer.encode(sentences), dtype=np.int64)
    starts = rng.integers(0, stream.size - prompt_len, size=total)
    prompts = [stream[s:s + prompt_len].copy() for s in starts]
    return [[Req(prompts[c * per_client + i],
                 _greedy(new, int(rng.integers(2 ** 31))))
             for i in range(per_client)] for c in range(clients)]


def flat_requests(seed: int, vocab: int, count: int,
                  prompt_len: tuple[int, int], new: int,
                  stream: int = 5) -> list[Req]:
    """``count`` independent short requests (gateway phases)."""
    rng = np.random.default_rng([seed, stream])
    low, high = prompt_len
    return [Req(_random_prompt(rng, vocab, low + i % (high - low + 1)),
                _greedy(new, int(rng.integers(2 ** 31))))
            for i in range(count)]


def poisson_arrivals(seed: int, rate_rps: float, duration_s: float,
                     stream: int) -> np.ndarray:
    """Due times (seconds from phase start) of a Poisson process: those
    inside ``duration_s``, and never fewer than eight."""
    rng = np.random.default_rng([seed, 6, stream])
    count = max(8, int(rate_rps * duration_s * 1.5) + 8)
    due = np.cumsum(rng.exponential(1.0 / rate_rps, size=count))
    return due[:max(8, int(np.searchsorted(due, duration_s)))]


def warmup_plan(plan: list[list[Req]], clients: int = 4,
                new_cap: int = 20) -> list[list[Req]]:
    """The untimed warm-up: the plan's own first requests, cut short."""
    out = []
    for reqs in plan[:clients] + plan[-1:]:
        first = reqs[0]
        params = dict(first.params)
        params["max_new_tokens"] = min(new_cap, params["max_new_tokens"])
        out.append([Req(first.prompt, params)])
    return out
