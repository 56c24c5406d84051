"""Request-centric serving engine: persistent continuous-batching sessions.

The FineQ co-design story (like MixPE and FGMP) only pays off if the
software decode loop is not the bottleneck.  This package provides the
persistent :class:`GenerationEngine` session the rest of the repo serves
through — submit/stream/cancel with per-request :class:`SamplingParams`
— the durable gateway in front of it, and the prompt generators the
serving tests and benchmarks share.  Performance is measured by
``perfbench/`` and asserted in ``benchmarks/`` on :class:`EngineStats`.
"""

from repro.serve.engine import KV_CACHE_MODES, GenerationEngine
from repro.serve.gateway import (JOB_STATUSES, TERMINAL_STATUSES,
                                 GatewayHTTPServer, QueueFullError, QueuedJob,
                                 RequestQueue, ServingGateway, TokenUpdate)
from repro.serve.params import (FINISH_REASONS, Completion, Request,
                                SamplingParams, TokenEvent)
from repro.serve.prefix import PrefixMatch, PrefixStore, PrefixStoreStats
from repro.serve.prompts import bench_prompts, corpus_prompts, prefix_prompts
from repro.serve.sampling import apply_top_k_top_p
from repro.serve.scheduler import (SCHEDULERS, FIFOScheduler,
                                   PrefixAffinityScheduler,
                                   PriorityScheduler, RunningInfo, Scheduler,
                                   SchedulerView, admission_key,
                                   get_scheduler)
from repro.serve.spec import SpeculativeConfig, SpeculativeDecoder
from repro.serve.stats import EngineStats, StepTrace

__all__ = [
    "Completion", "EngineStats", "FINISH_REASONS", "GenerationEngine",
    "KV_CACHE_MODES", "Request", "SamplingParams", "StepTrace", "TokenEvent",
    "apply_top_k_top_p",
    "JOB_STATUSES", "TERMINAL_STATUSES", "GatewayHTTPServer",
    "QueueFullError", "QueuedJob", "RequestQueue", "ServingGateway",
    "TokenUpdate",
    "PrefixMatch", "PrefixStore", "PrefixStoreStats",
    "bench_prompts", "corpus_prompts", "prefix_prompts",
    "SCHEDULERS", "FIFOScheduler", "PrefixAffinityScheduler",
    "PriorityScheduler", "RunningInfo", "Scheduler", "SchedulerView",
    "admission_key", "get_scheduler",
    "SpeculativeConfig", "SpeculativeDecoder",
]
