"""Request-centric serving engine: persistent continuous-batching sessions.

The FineQ co-design story (like MixPE and FGMP) only pays off if the
software decode loop is not the bottleneck.  This package provides the
persistent :class:`GenerationEngine` session the rest of the repo serves
through — submit/stream/cancel with per-request :class:`SamplingParams`
— plus the throughput, memory, and streaming-latency benchmarking
utilities that keep its speedups tracked numbers.
"""

from repro.serve.engine import (FINISH_REASONS, KV_CACHE_MODES, Completion,
                                EngineStats, GenerationEngine, Request,
                                SamplingParams, StepTrace, TokenEvent,
                                apply_top_k_top_p, dataclass_to_dict)
from repro.serve.gateway import (JOB_STATUSES, TERMINAL_STATUSES,
                                 GatewayHTTPServer, GatewayPoint,
                                 GatewayReport, QueueFullError, QueuedJob,
                                 RequestQueue, ServingGateway, TokenUpdate,
                                 gateway_sweep, serve_forever)
from repro.serve.prefix import PrefixMatch, PrefixStore, PrefixStoreStats
from repro.serve.scheduler import (SCHEDULERS, FIFOScheduler,
                                   PrefixAffinityScheduler,
                                   PriorityScheduler, RunningInfo, Scheduler,
                                   SchedulerView, admission_key,
                                   get_scheduler)
from repro.serve.spec import (SPEC_POLICIES, SpeculativeConfig,
                              SpeculativeDecoder)
from repro.serve.bench import (MemoryPoint, MemoryReport, MixedLatencyPoint,
                               MixedLatencyReport, PrefixPoint, PrefixReport,
                               SpecPoint, SpecReport, StreamLatencyPoint,
                               StreamLatencyReport, ThroughputPoint,
                               ThroughputReport, bench_prompts,
                               corpus_prompts, engine_throughput, export_report,
                               latency_sweep, memory_point, memory_sweep,
                               mixed_latency_sweep, mixed_traffic_session,
                               prefix_prompts, prefix_sweep,
                               sequential_throughput, serve_session,
                               spec_point, spec_sweep, stream_latency,
                               throughput_sweep)

__all__ = [
    "Completion", "EngineStats", "FINISH_REASONS", "GenerationEngine",
    "KV_CACHE_MODES", "Request", "SamplingParams", "StepTrace", "TokenEvent",
    "apply_top_k_top_p", "dataclass_to_dict",
    "JOB_STATUSES", "TERMINAL_STATUSES", "GatewayHTTPServer",
    "GatewayPoint", "GatewayReport", "QueueFullError", "QueuedJob",
    "RequestQueue", "ServingGateway", "TokenUpdate", "gateway_sweep",
    "serve_forever",
    "PrefixMatch", "PrefixStore", "PrefixStoreStats",
    "SCHEDULERS", "FIFOScheduler", "PrefixAffinityScheduler",
    "PriorityScheduler", "RunningInfo", "Scheduler", "SchedulerView",
    "admission_key", "get_scheduler",
    "SPEC_POLICIES", "SpeculativeConfig", "SpeculativeDecoder",
    "MemoryPoint", "MemoryReport", "MixedLatencyPoint", "MixedLatencyReport", "PrefixPoint",
    "PrefixReport", "SpecPoint", "SpecReport", "StreamLatencyPoint",
    "StreamLatencyReport", "ThroughputPoint", "ThroughputReport",
    "bench_prompts", "corpus_prompts", "engine_throughput", "export_report", "latency_sweep", "memory_point",
    "memory_sweep", "mixed_latency_sweep", "mixed_traffic_session",
    "prefix_prompts", "prefix_sweep", "sequential_throughput",
    "serve_session", "spec_point", "spec_sweep", "stream_latency",
    "throughput_sweep",
]
