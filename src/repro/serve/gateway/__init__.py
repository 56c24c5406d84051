"""Async serving gateway: durable request queue, engine loop, HTTP/SSE.

The front door of the serving stack (see ``gateway.py`` for the
architecture): a sqlite-journaled :class:`RequestQueue` that survives
restarts, a :class:`ServingGateway` pumping one
:class:`~repro.serve.engine.GenerationEngine` behind asyncio token
streams, and a dependency-free :class:`GatewayHTTPServer` exposing
generate/status/cancel/metrics over HTTP with server-sent-event
streaming.
"""

from repro.serve.gateway.gateway import (QueueFullError, ServingGateway,
                                         TokenUpdate)
from repro.serve.gateway.http import GatewayHTTPServer
from repro.serve.gateway.queue import (JOB_STATUSES, TERMINAL_STATUSES,
                                       QueuedJob, RequestQueue)

__all__ = [
    "JOB_STATUSES",
    "TERMINAL_STATUSES",
    "GatewayHTTPServer",
    "QueueFullError",
    "QueuedJob",
    "RequestQueue",
    "ServingGateway",
    "TokenUpdate",
]
