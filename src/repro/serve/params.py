"""Request-side value types: what a caller submits and what comes back.

Plain dataclasses and one validator, importing nothing of the engine or
the model — the durable queue and the HTTP layer journal and parse
:class:`SamplingParams` without loading ``repro.nn``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

#: Every terminal state a request can reach.
FINISH_REASONS = ("length", "eos", "stop", "max_seq_len", "cancelled")


@dataclass(frozen=True)
class SamplingParams:
    """Frozen per-request generation knobs.

    ``seed`` drives a private ``np.random.Generator`` for the request, so
    its *draws* are a function of (prompt, params) alone — no neighbour
    consumes them.  The *logits* they are applied to are another matter:
    the same call sequence on a fresh engine replays the same bytes
    (asserted, both backends), ``"paged"`` streams have equalled the
    request served alone in every test so far (empirical), and
    ``"fineq"`` streams can differ with their neighbours (pinned in
    ``tests/serve/test_engine_state_machine.py``; ROADMAP item 1 (ii)
    decides whether to make or specify).  ``seed=None`` asks the engine to
    draw one from its own stream at submit time (reproducible per engine
    seed + submission order).  ``top_k``/``top_p`` of ``None`` disable
    the respective filter; ``top_k=1`` is exact greedy.  ``stop_tokens``
    terminate the request the step they are generated (the stop token is
    kept, mirroring ``eos`` handling).  ``priority`` (higher wins) only
    matters under the ``"priority"`` scheduler, which admits high
    priorities first and may preempt lower-priority running requests when
    the block pool runs out.
    """

    max_new_tokens: int = 16
    temperature: float = 0.0
    top_k: int | None = None
    top_p: float | None = None
    seed: int | None = None
    stop_tokens: tuple[int, ...] = ()
    priority: int = 0

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.temperature < 0.0:
            raise ValueError("temperature must be >= 0")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1 (or None to disable)")
        if self.top_p is not None and not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must be in (0, 1] (or None to disable)")
        object.__setattr__(self, "stop_tokens",
                           tuple(int(t) for t in self.stop_tokens))

    @property
    def greedy(self) -> bool:
        """True when sampling degenerates to argmax (token-identical)."""
        return self.temperature <= 0.0 or self.top_k == 1

    def to_dict(self) -> dict:
        """JSON-ready stored fields (the durable queue's journal shape)."""
        out = asdict(self)
        out["stop_tokens"] = list(self.stop_tokens)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "SamplingParams":
        """Rebuild params from :meth:`to_dict` output (journal replay)."""
        return cls(**payload)


@dataclass(frozen=True)
class Request:
    """One queued generation request."""

    request_id: int
    prompt: np.ndarray
    params: SamplingParams


@dataclass(frozen=True)
class TokenEvent:
    """One streamed token (or terminal notice) for a request.

    ``token`` is ``None`` only for events that produce no token (a
    cancellation).  ``finish_reason`` is ``None`` while the request is
    still running and one of :data:`FINISH_REASONS` on its final event.
    """

    request_id: int
    token: int | None
    finish_reason: str | None = None


@dataclass
class Completion:
    """A finished request: prompt plus generated continuation."""

    request_id: int
    tokens: np.ndarray
    prompt_len: int
    finish_reason: str  # one of FINISH_REASONS

    @property
    def new_tokens(self) -> np.ndarray:
        return self.tokens[self.prompt_len:]



def validate_request(prompt, params: SamplingParams | None,
                     max_new_tokens: int | None, temperature: float | None,
                     max_seq_len: int, rng: np.random.Generator
                     ) -> tuple[np.ndarray, SamplingParams]:
    """The one admission check ``GenerationEngine.submit`` and
    ``ServingGateway.submit`` share; returns ``(prompt, params)`` ready
    to queue.

    The prompt flattens to int64 and must hold between one and
    ``max_seq_len`` tokens; the caller passes either ``params`` or the
    ``max_new_tokens``/``temperature`` shorthand, not both; and a
    missing ``params.seed`` is drawn from ``rng``, so every accepted
    request carries the seed that reproduces its stream.  Raises
    ``ValueError`` before anything is queued or journaled.
    """
    prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
    if prompt.size == 0:
        raise ValueError("prompt must contain at least one token")
    if prompt.size > max_seq_len:
        raise ValueError(f"prompt of {prompt.size} tokens exceeds "
                         f"max_seq_len={max_seq_len}")
    if params is None:
        if max_new_tokens is None:
            raise ValueError("pass max_new_tokens or params")
        params = SamplingParams(max_new_tokens=max_new_tokens,
                                temperature=temperature or 0.0)
    elif max_new_tokens is not None or temperature is not None:
        raise ValueError("pass either params or the max_new_tokens/"
                         "temperature shorthand, not both")
    if params.seed is None:
        params = replace(params, seed=int(rng.integers(2 ** 32)))
    return prompt, params
