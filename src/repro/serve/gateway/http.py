"""Dependency-free HTTP/SSE front door for the serving gateway.

A minimal HTTP/1.1 server over :func:`asyncio.start_server` — no
framework, no third-party packages — exposing the gateway as four
routes:

* ``POST /v1/generate`` — submit a request.  Body:
  ``{"prompt": [ints], "max_new_tokens": n, "temperature": t,
  "top_k": k, "top_p": p, "seed": s, "stop_tokens": [...],
  "priority": p, "stream": bool}``.  With ``"stream": true`` the
  response is ``text/event-stream``: one ``data:`` event per token
  (``{"job_id", "index", "token"}``) and a closing ``event: done``
  carrying the finish reason.  Without it the server collects the whole
  generation and returns one JSON body.  When the durable queue is at
  capacity the route answers ``429`` with
  ``{"error": "queue_full", "retriable": true}`` and a ``Retry-After``
  header — the engine was never touched, so clients can simply retry.
* ``GET /v1/requests/{id}`` — the journaled record: status, params,
  tokens so far, finish reason.  Works across restarts (it reads the
  sqlite journal, not process memory).
* ``DELETE /v1/requests/{id}`` — cancel; ``409`` if already terminal,
  ``404`` if unknown.
* ``GET /metrics`` — :meth:`ServingGateway.metrics` as JSON (engine
  stats, queue depth gauges, first-token latency percentiles).

Streaming responses use chunked transfer encoding; a client that
disconnects mid-stream closes the gateway's token generator, which
cancels the job and frees its cache blocks immediately; one that sends
a request slowly or too big gets ``408`` or ``413``
(:data:`REQUEST_DEADLINE_S`, :data:`MAX_BODY_BYTES`), and one whose
head is too long gets ``431`` (:data:`MAX_HEADER_LINES`).
"""

from __future__ import annotations

import asyncio
import json

import numpy as np

from repro.serve.params import SamplingParams
from repro.serve.gateway.gateway import QueueFullError, ServingGateway

#: Fields of the POST /v1/generate body that map onto SamplingParams.
_PARAM_FIELDS = ("max_new_tokens", "temperature", "top_k", "top_p",
                 "seed", "stop_tokens", "priority")

#: Seconds a client has to send its whole request — request line,
#: headers and body — before it is answered ``408`` and dropped.
REQUEST_DEADLINE_S = 30.0

#: Largest body a request may declare, in bytes.
MAX_BODY_BYTES = 1 << 20

#: Most header lines a request may send.  A longer line than the stream
#: reader's 64 KiB limit, request line included, is refused as well.
MAX_HEADER_LINES = 100

#: A client that hung up, mid-request or mid-reply: nothing to answer.
_HUNG_UP = (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError)


class HttpError(Exception):
    """A request error with an HTTP status and a JSON-able payload."""

    def __init__(self, status: int, payload: dict,
                 headers: dict | None = None):
        super().__init__(payload.get("error", status))
        self.status = status
        self.payload = payload
        self.headers = headers or {}


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            409: "Conflict", 413: "Content Too Large",
            429: "Too Many Requests",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error"}


def _params_from_body(body: dict) -> SamplingParams:
    fields = {}
    for key in _PARAM_FIELDS:
        if body.get(key) is not None:
            fields[key] = body[key]
    if "max_new_tokens" not in fields:
        raise HttpError(400, {"error": "max_new_tokens is required"})
    try:
        if "stop_tokens" in fields:
            fields["stop_tokens"] = tuple(int(t)
                                          for t in fields["stop_tokens"])
        return SamplingParams(**fields)
    except (TypeError, ValueError) as exc:
        raise HttpError(400, {"error": str(exc)}) from None


def _record_payload(job) -> dict:
    return {
        "job_id": job.job_id,
        "status": job.status,
        "prompt_len": int(job.prompt.size),
        "params": job.params.to_dict(),
        "tokens": list(job.tokens),
        "finish_reason": job.finish_reason,
        "error": job.error,
    }


class GatewayHTTPServer:
    """Bind a :class:`ServingGateway` to a TCP port (see module docs).

    ``port=0`` (the default) lets the OS pick a free port — read
    :attr:`port` after :meth:`start`.  The server owns neither the
    gateway's engine loop nor its queue: start/stop the gateway
    separately.
    """

    def __init__(self, gateway: ServingGateway, *,
                 host: str = "127.0.0.1", port: int = 0):
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # connection handling
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), REQUEST_DEADLINE_S)
                except asyncio.TimeoutError:
                    raise HttpError(408, {"error": "request not received "
                                                   "in time"}) from None
                if request is None:
                    return
                await self._route(*request, writer)
            except HttpError as exc:
                await self._send_json(writer, exc.status, exc.payload,
                                      extra_headers=exc.headers)
            except _HUNG_UP:
                raise
            except Exception as exc:  # surface, don't kill the server
                await self._send_json(writer, 500, {"error": str(exc)})
        except _HUNG_UP:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _read_line(reader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # longer than the reader's limit
            raise HttpError(431, {"error": "request line or header line "
                                           "too long"}) from None

    async def _read_request(self, reader):
        request_line = await self._read_line(reader)
        if not request_line:
            return None
        try:
            method, path, _version = request_line.decode().split()
        except ValueError:  # not UTF-8, or not three fields
            raise HttpError(400, {"error": "malformed request line"}) \
                from None
        content_length = 0
        for count in range(MAX_HEADER_LINES + 1):
            line = await self._read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            if count == MAX_HEADER_LINES:
                raise HttpError(431, {"error": f"more than {MAX_HEADER_LINES}"
                                               " header lines"})
            try:
                name, _, value = line.decode().partition(":")
            except UnicodeDecodeError:
                raise HttpError(400, {"error": "header is not UTF-8"}) \
                    from None
            if name.strip().lower() == "content-length":
                if not value.strip().isdigit():
                    raise HttpError(400, {"error": "Content-Length is not "
                                                   "a byte count"})
                content_length = int(value)
        if content_length > MAX_BODY_BYTES:
            raise HttpError(413, {"error": f"body exceeds {MAX_BODY_BYTES} "
                                           "bytes"})
        body = {}
        if content_length:
            raw = await reader.readexactly(content_length)
            try:
                body = json.loads(raw)
            except ValueError:
                raise HttpError(400, {"error": "body is not valid JSON"})
            if not isinstance(body, dict):
                raise HttpError(400, {"error": "body is not a JSON object"})
        return method.upper(), path, body

    async def _route(self, method: str, path: str, body: dict,
                     writer: asyncio.StreamWriter) -> None:
        if path == "/v1/generate" and method == "POST":
            await self._generate(body, writer)
        elif path == "/metrics" and method == "GET":
            await self._send_json(writer, 200, self.gateway.metrics())
        elif path.startswith("/v1/requests/"):
            job_id = self._job_id_from(path)
            if method == "GET":
                await self._get_request(job_id, writer)
            elif method == "DELETE":
                await self._cancel_request(job_id, writer)
            else:
                raise HttpError(405, {"error": f"{method} not allowed"})
        else:
            raise HttpError(404, {"error": f"no route for {method} {path}"})

    @staticmethod
    def _job_id_from(path: str) -> int:
        tail = path.rsplit("/", 1)[1]
        try:
            return int(tail)
        except ValueError:
            raise HttpError(404, {"error": f"bad job id {tail!r}"}) from None

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    async def _generate(self, body: dict,
                        writer: asyncio.StreamWriter) -> None:
        prompt = body.get("prompt")
        if not isinstance(prompt, list) or not prompt:
            raise HttpError(400,
                            {"error": "prompt must be a non-empty list "
                                      "of token ids"})
        params = _params_from_body(body)
        try:
            job_id = self.gateway.submit(
                np.asarray(prompt, dtype=np.int64), params)
        except QueueFullError as exc:
            raise HttpError(429, {"error": "queue_full", "retriable": True,
                                  "detail": str(exc)},
                            headers={"Retry-After": "1"}) from None
        except ValueError as exc:
            raise HttpError(400, {"error": str(exc)}) from None
        if body.get("stream"):
            await self._stream_sse(job_id, writer)
        else:
            record = await self.gateway.result(job_id)
            await self._send_json(writer, 200, _record_payload(record))

    async def _stream_sse(self, job_id: int,
                          writer: asyncio.StreamWriter) -> None:
        await self._send_headers(writer, 200, "text/event-stream",
                                 chunked=True)
        stream = self.gateway.stream(job_id)
        try:
            async for update in stream:
                if update.finish_reason is not None and update.token is None:
                    payload = {"job_id": job_id,
                               "finish_reason": update.finish_reason}
                    await self._send_chunk(
                        writer, f"event: done\ndata: "
                                f"{json.dumps(payload)}\n\n")
                    continue
                payload = {"job_id": job_id, "index": update.index,
                           "token": update.token}
                if update.finish_reason is not None:
                    payload["finish_reason"] = update.finish_reason
                    await self._send_chunk(
                        writer, f"data: {json.dumps(payload)}\n\n")
                    done = {"job_id": job_id,
                            "finish_reason": update.finish_reason}
                    await self._send_chunk(
                        writer, f"event: done\ndata: "
                                f"{json.dumps(done)}\n\n")
                    continue
                await self._send_chunk(
                    writer, f"data: {json.dumps(payload)}\n\n")
            await self._send_chunk(writer, "")  # terminal chunk
        finally:
            # Client gone (or stream done): closing the generator fires
            # the gateway's cancel-on-disconnect path when unfinished.
            await stream.aclose()

    async def _get_request(self, job_id: int,
                           writer: asyncio.StreamWriter) -> None:
        job = self.gateway.queue.get(job_id)
        if job is None:
            raise HttpError(404, {"error": f"unknown job {job_id}"})
        await self._send_json(writer, 200, _record_payload(job))

    async def _cancel_request(self, job_id: int,
                              writer: asyncio.StreamWriter) -> None:
        job = self.gateway.queue.get(job_id)
        if job is None:
            raise HttpError(404, {"error": f"unknown job {job_id}"})
        if job.terminal:
            raise HttpError(409, {"error": f"job {job_id} already "
                                           f"{job.status}"})
        self.gateway.cancel(job_id)
        await self._send_json(writer, 200,
                              _record_payload(self.gateway.queue.get(job_id)))

    # ------------------------------------------------------------------ #
    # wire helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    async def _send_headers(writer, status: int, content_type: str, *,
                            chunked: bool = False,
                            content_length: int | None = None,
                            extra_headers: dict | None = None) -> None:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                 f"Content-Type: {content_type}",
                 "Connection: close"]
        if chunked:
            lines.append("Transfer-Encoding: chunked")
            lines.append("Cache-Control: no-store")
        if content_length is not None:
            lines.append(f"Content-Length: {content_length}")
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode())
        await writer.drain()

    async def _send_json(self, writer, status: int, payload: dict, *,
                         extra_headers: dict | None = None) -> None:
        raw = json.dumps(payload).encode()
        await self._send_headers(writer, status, "application/json",
                                 content_length=len(raw),
                                 extra_headers=extra_headers)
        writer.write(raw)
        await writer.drain()

    @staticmethod
    async def _send_chunk(writer, text: str) -> None:
        raw = text.encode()
        writer.write(f"{len(raw):x}\r\n".encode() + raw + b"\r\n")
        await writer.drain()

