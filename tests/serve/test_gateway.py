"""Durable gateway tests: queue lifecycle, restart recovery, streaming.

The recovery tests are the subsystem's reason to exist: a gateway
killed mid-stream (no graceful stop — the objects are simply abandoned,
as a crash would leave them) must, on reopening the same sqlite
journal, finish every journaled request with a token stream
byte-identical to an uninterrupted run.  Streaming tests drive the real
asyncio path (and the real HTTP/SSE socket) and assert parity with the
bare engine's ``stream()`` on every cache backend.
"""

import asyncio
import json
import sqlite3

import numpy as np
import pytest

from repro.models.configs import tiny_config
from repro.nn import TransformerLM
from repro.serve import (GatewayHTTPServer, GenerationEngine, QueueFullError,
                         RequestQueue, SamplingParams, ServingGateway)
from repro.serve.gateway import http as http_module


@pytest.fixture(scope="module")
def model():
    return TransformerLM(tiny_config(vocab_size=256, seed=0))


def make_gateway(model, queue=None, **kwargs):
    engine_kwargs = {k: kwargs.pop(k) for k in
                     ("kv_cache", "max_batch_size", "prefix_sharing")
                     if k in kwargs}
    engine = GenerationEngine(model, **{"max_batch_size": 4,
                                        **engine_kwargs})
    return ServingGateway(engine, queue, **kwargs)


def pump_until_done(gateway, max_steps=10_000):
    steps = 0
    while gateway.queue.depth() > 0:
        gateway.pump()
        steps += 1
        assert steps < max_steps, "gateway failed to drain"


def reference_tokens(model, prompts, max_new_tokens, kv_cache="paged"):
    """What an uninterrupted bare engine generates (greedy)."""
    engine = GenerationEngine(model, max_batch_size=len(prompts),
                              kv_cache=kv_cache)
    for prompt in prompts:
        engine.submit(prompt, max_new_tokens)
    done = {c.request_id: [int(t) for t in c.new_tokens]
            for c in engine.run()}
    return [done[rid] for rid in sorted(done)]


# --------------------------------------------------------------------- #
# the durable queue
# --------------------------------------------------------------------- #
class TestRequestQueue:
    def test_lifecycle(self):
        queue = RequestQueue()
        params = SamplingParams(max_new_tokens=4, seed=7)
        job_id = queue.submit(np.array([1, 2, 3]), params)
        job = queue.get(job_id)
        assert job.status == "queued" and not job.terminal
        assert job.params == params
        np.testing.assert_array_equal(job.prompt, [1, 2, 3])

        queue.mark_running(job_id)
        assert queue.get(job_id).status == "running"
        queue.append_tokens(job_id, [(0, 10), (1, 11)])
        queue.finish(job_id, "length")
        job = queue.get(job_id)
        assert job.terminal and job.status == "completed"
        assert job.finish_reason == "length"
        assert job.tokens == (10, 11)
        assert queue.depth() == 0
        assert queue.counts()["completed"] == 1

    def test_seed_required(self):
        queue = RequestQueue()
        with pytest.raises(ValueError, match="seed"):
            queue.submit(np.array([1]), SamplingParams(max_new_tokens=2))

    def test_append_tokens_idempotent(self):
        queue = RequestQueue()
        job_id = queue.submit(np.array([1]),
                              SamplingParams(max_new_tokens=4, seed=0))
        queue.append_tokens(job_id, [(0, 5), (1, 6)])
        # A recovered dispatch re-journals the replayed prefix: no dupes.
        queue.append_tokens(job_id, [(0, 5), (1, 6), (2, 7)])
        assert queue.tokens(job_id) == [5, 6, 7]

    def test_priority_claim_order(self):
        queue = RequestQueue()
        low = queue.submit(np.array([1]),
                           SamplingParams(max_new_tokens=2, seed=0))
        high = queue.submit(np.array([2]),
                            SamplingParams(max_new_tokens=2, seed=0,
                                           priority=5))
        assert queue.next_queued().job_id == high
        queue.mark_running(high)
        assert queue.next_queued().job_id == low

    def test_terminal_is_sticky(self):
        queue = RequestQueue()
        job_id = queue.submit(np.array([1]),
                              SamplingParams(max_new_tokens=2, seed=0))
        assert queue.cancel(job_id) is True
        assert queue.cancel(job_id) is False
        queue.finish(job_id, "length")  # late completion: no-op
        assert queue.get(job_id).status == "cancelled"
        assert queue.cancel(999) is False

    def test_persistence_across_reopen(self, tmp_path):
        path = tmp_path / "journal.sqlite"
        queue = RequestQueue(path)
        job_id = queue.submit(np.array([3, 4]),
                              SamplingParams(max_new_tokens=4, seed=1))
        queue.mark_running(job_id)
        queue.append_tokens(job_id, [(0, 9)])
        queue.close()

        reopened = RequestQueue(path)
        assert reopened.get(job_id).status == "running"
        assert reopened.recover() == [job_id]
        job = reopened.get(job_id)
        assert job.status == "queued" and job.tokens == (9,)


# --------------------------------------------------------------------- #
# gateway pump loop: parity with the bare engine
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_pump_matches_bare_engine(model, kv_cache):
    prompts = [np.array([1, 2, 3]), np.array([7, 8]),
               np.array([4, 5, 6, 9])]
    want = reference_tokens(model, prompts, 8, kv_cache)
    gateway = make_gateway(model, kv_cache=kv_cache)
    job_ids = [gateway.submit(p, max_new_tokens=8) for p in prompts]
    pump_until_done(gateway)
    for job_id, expected in zip(job_ids, want):
        job = gateway.queue.get(job_id)
        assert job.status == "completed"
        assert list(job.tokens) == expected


def test_priority_dispatch_order(model):
    gateway = make_gateway(model, max_batch_size=1, max_inflight=1)
    low = gateway.submit(np.array([1, 2]),
                         SamplingParams(max_new_tokens=2, seed=0))
    high = gateway.submit(np.array([3, 4]),
                          SamplingParams(max_new_tokens=2, seed=0,
                                         priority=3))
    gateway.pump()
    assert gateway.queue.get(high).status in ("running", "completed")
    assert gateway.queue.get(low).status == "queued"


# --------------------------------------------------------------------- #
# restart recovery
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_restart_mid_stream_is_byte_identical(model, tmp_path, kv_cache):
    """Kill the gateway mid-generation; the reopened journal finishes
    every request with exactly the uninterrupted run's tokens."""
    path = tmp_path / "journal.sqlite"
    prompts = [np.array([1, 2, 3]), np.array([9, 8, 7, 6]),
               np.array([5, 4])]
    max_new = 12
    want = reference_tokens(model, prompts, max_new, kv_cache)

    first = make_gateway(model, RequestQueue(path), kv_cache=kv_cache)
    job_ids = [first.submit(p, max_new_tokens=max_new) for p in prompts]
    for _ in range(4):  # part-way through generation, then "crash"
        first.pump()
    journaled = {j: first.queue.tokens(j) for j in job_ids}
    assert any(tokens for tokens in journaled.values()), \
        "crash point too early to exercise replay"
    assert all(len(t) < max_new for t in journaled.values()), \
        "crash point too late to exercise recovery"
    first.queue.close()  # abandon without any graceful shutdown

    second = make_gateway(model, RequestQueue(path), kv_cache=kv_cache)
    requeued = second.recover()
    assert set(requeued) | set(second.queue.job_ids("queued")) \
        == set(job_ids)
    pump_until_done(second)
    for job_id, expected in zip(job_ids, want):
        job = second.queue.get(job_id)
        assert job.status == "completed"
        # Byte-identical to the uninterrupted run: the journaled prefix
        # plus the regenerated remainder, no gap, no duplicate.
        assert list(job.tokens) == expected
        assert job.tokens[:len(journaled[job_id])] \
            == tuple(journaled[job_id])


def test_recovered_stream_replays_without_gaps(model, tmp_path):
    """A client attaching after restart sees index 0..n-1 exactly once."""
    path = tmp_path / "journal.sqlite"
    first = make_gateway(model, RequestQueue(path))
    job_id = first.submit(np.array([2, 3, 4]), max_new_tokens=10)
    for _ in range(3):
        first.pump()
    assert first.queue.tokens(job_id), "need journaled tokens pre-crash"
    first.queue.close()

    second = make_gateway(model, RequestQueue(path))

    async def consume():
        await second.start()
        updates = [u async for u in second.stream(job_id)]
        await second.stop()
        return updates

    updates = asyncio.run(consume())
    indices = [u.index for u in updates if u.index is not None]
    assert indices == list(range(10))
    assert updates[-1].finish_reason == "length"
    tokens = [u.token for u in updates if u.index is not None]
    assert tokens == list(second.queue.get(job_id).tokens)


def test_recovery_that_leaves_its_journal_fails_the_job(model, tmp_path):
    """A regenerated token that disagrees with the journaled one at its
    index fails the job, naming both — the client never receives the
    journal's prefix glued to a tail no run produced after it.  One
    journaled token is edited to force the disagreement (a ``"fineq"``
    job whose neighbours change across a restart can produce it for
    real); the neighbour recovered beside it finishes as if uninterrupted
    and every block comes back."""
    path = tmp_path / "journal.sqlite"
    prompts = [np.array([2, 3, 4]), np.array([5, 6])]
    want = reference_tokens(model, prompts, 10)
    first = make_gateway(model, RequestQueue(path))
    job_id, neighbour = (first.submit(p, max_new_tokens=10) for p in prompts)
    for _ in range(4):
        first.pump()
    journal = first.queue.tokens(job_id)
    assert len(journal) >= 2, "need a journaled token past the first"
    first.queue.close()
    edited = (journal[1] + 1) % model.config.vocab_size
    conn = sqlite3.connect(path)
    conn.execute("UPDATE tokens SET token = ? WHERE job_id = ? AND idx = 1",
                 (edited, job_id))
    conn.commit()
    conn.close()
    journal[1] = edited

    second = make_gateway(model, RequestQueue(path))

    async def consume():
        await second.start()
        updates = [u async for u in second.stream(job_id)]
        await second.drain()
        await second.stop()
        return updates

    updates = asyncio.run(consume())
    job = second.queue.get(job_id)
    assert job.status == "failed"
    assert job.error == (f"recovery diverged at token 1: journal {edited}, "
                         f"regenerated {want[0][1]}")
    assert list(job.tokens) == journal
    assert [u.token for u in updates if u.index is not None] == journal
    assert updates[-1].finish_reason == "failed"
    assert list(second.queue.get(neighbour).tokens) == want[1]
    cache = second.engine.cache
    assert cache.cached_tokens == 0 and cache.blocks_in_use() == 0
    assert not second._jobs and not second._rid_job


# --------------------------------------------------------------------- #
# async streaming and the HTTP/SSE front door
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kv_cache", ["paged", "fineq"])
def test_sse_stream_matches_bare_engine(model, kv_cache):
    """Tokens streamed over a real HTTP socket == engine.stream()'s."""
    prompt = [1, 2, 3, 4]
    want = reference_tokens(model, [np.array(prompt)], 8, kv_cache)[0]

    async def run():
        gateway = make_gateway(model, kv_cache=kv_cache)
        server = GatewayHTTPServer(gateway)
        await gateway.start()
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            body = json.dumps({"prompt": prompt, "max_new_tokens": 8,
                               "stream": True}).encode()
            writer.write(
                b"POST /v1/generate HTTP/1.1\r\n"
                b"Host: t\r\nContent-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
            await writer.drain()
            raw = await reader.read()
            writer.close()
        finally:
            await server.stop()
            await gateway.stop()
        return raw.decode()

    raw = asyncio.run(run())
    assert "200 OK" in raw and "text/event-stream" in raw
    tokens, done = [], None
    for block in raw.split("\n\n"):
        lines = [line for line in block.splitlines()
                 if line.startswith(("data:", "event:"))]
        if not lines:
            continue
        payload = json.loads([line for line in lines
                              if line.startswith("data:")][0][5:])
        if any(line == "event: done" for line in lines):
            done = payload
        else:
            tokens.append(payload["token"])
    assert tokens == want
    assert done == {"job_id": 1, "finish_reason": "length"}


def test_http_collect_status_cancel_metrics(model):
    async def request(host, port, method, path, body=None):
        reader, writer = await asyncio.open_connection(host, port)
        payload = json.dumps(body).encode() if body is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n").encode()
        writer.write(head + payload)
        await writer.drain()
        raw = await reader.read()
        writer.close()
        status = int(raw.split(b" ", 2)[1])
        return status, json.loads(raw.split(b"\r\n\r\n", 1)[1])

    async def run():
        gateway = make_gateway(model)
        server = GatewayHTTPServer(gateway)
        await gateway.start()
        await server.start()
        try:
            host, port = server.host, server.port
            status, record = await request(
                host, port, "POST", "/v1/generate",
                {"prompt": [1, 2, 3], "max_new_tokens": 5})
            assert status == 200
            assert record["status"] == "completed"
            assert record["finish_reason"] == "length"
            assert len(record["tokens"]) == 5

            status, got = await request(
                host, port, "GET", f"/v1/requests/{record['job_id']}")
            assert status == 200 and got == record

            status, _ = await request(host, port, "GET",
                                      "/v1/requests/777")
            assert status == 404
            status, err = await request(
                host, port, "DELETE", f"/v1/requests/{record['job_id']}")
            assert status == 409 and "completed" in err["error"]
            status, _ = await request(host, port, "POST", "/v1/generate",
                                      {"prompt": [], "max_new_tokens": 2})
            assert status == 400

            status, metrics = await request(host, port, "GET", "/metrics")
            assert status == 200
            assert metrics["queue"]["jobs_completed"] == 1
            assert metrics["engine"]["decode_tokens"] > 0
            assert metrics["latency"]["first_token_count"] == 1
        finally:
            await server.stop()
            await gateway.stop()

    asyncio.run(run())


def _generate_request(body: bytes, length=None) -> bytes:
    """Raw ``POST /v1/generate`` bytes; ``length`` overrides the
    Content-Length header's value."""
    length = len(body) if length is None else length
    return (f"POST /v1/generate HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {length}\r\n\r\n").encode() + body


#: Malformed ``POST /v1/generate`` requests, as raw bytes on the socket.
MALFORMED = {
    "body-not-json": _generate_request(b"{not json"),
    "length-not-a-number": _generate_request(b"{}", length="abc"),
    "negative-budget": _generate_request(
        b'{"prompt": [1], "max_new_tokens": -3}'),
    "stop-tokens-not-a-list": _generate_request(
        b'{"prompt": [1], "max_new_tokens": 2, "stop_tokens": 5}'),
    "body-not-an-object": _generate_request(b"[1, 2]"),
}


async def _exchange(server, raw: bytes, close: bool = False):
    """Send ``raw`` on a fresh connection (then, with ``close``, end the
    client's side) and read to EOF: ``(status, JSON body)``, or ``None``
    when the server closes without a reply."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(raw)
    if close:
        writer.write_eof()
    await writer.drain()
    reply = await reader.read()
    writer.close()
    await writer.wait_closed()
    if not reply:
        return None
    return int(reply.split(b" ", 2)[1]), \
        json.loads(reply.split(b"\r\n\r\n", 1)[1])


def _bad_then_good(model, raw: bytes, close: bool = False):
    """Exchange ``raw``, then a valid generate, with one server; each
    exchange is bounded, so a server that never answers fails the test
    instead of hanging it.  Returns both replies."""
    async def run():
        gateway = make_gateway(model)
        server = GatewayHTTPServer(gateway)
        await gateway.start()
        await server.start()
        try:
            bad = await asyncio.wait_for(_exchange(server, raw, close), 20)
            good = await asyncio.wait_for(_exchange(
                server, _generate_request(json.dumps(
                    {"prompt": [1, 2], "max_new_tokens": 2}).encode())), 20)
        finally:
            await server.stop()
            await gateway.stop()
        return bad, good

    bad, (good_status, record) = asyncio.run(run())
    assert good_status == 200 and len(record["tokens"]) == 2
    return bad


@pytest.mark.parametrize("name", MALFORMED)
def test_http_malformed_request_is_400(model, name):
    """A malformed request is answered 400 with a JSON ``error`` — never
    a 500 or a dropped connection — and the server keeps serving."""
    status, payload = _bad_then_good(model, MALFORMED[name])
    assert status == 400 and isinstance(payload["error"], str)


_BODY = b'{"prompt": [1], "max_new_tokens": 2}'

#: Requests the client never finishes sending (and never closes).
UNFINISHED = {
    "short-body": _generate_request(_BODY, length=len(_BODY) + 1),
    "unterminated-headers": b"POST /v1/generate HTTP/1.1\r\nHost: t\r\n",
}


@pytest.mark.parametrize("name", UNFINISHED)
def test_http_unfinished_request_is_408(model, name, monkeypatch):
    """A request that does not arrive whole within the deadline is
    answered 408 with a JSON ``error``, and the server keeps serving."""
    monkeypatch.setattr(http_module, "REQUEST_DEADLINE_S", 0.2)
    status, payload = _bad_then_good(model, UNFINISHED[name])
    assert status == 408 and isinstance(payload["error"], str)


def test_http_client_closing_mid_body_gets_no_500(model):
    """A client that ends its side one byte short of its Content-Length
    gets the connection closed, not a 500."""
    assert _bad_then_good(model, UNFINISHED["short-body"], close=True) \
        is None


def test_http_oversized_body_is_413_before_it_is_read(model):
    """A Content-Length above the cap is refused with 413 at once — no
    body byte is sent, so reading one would hang — and the server keeps
    serving."""
    status, payload = _bad_then_good(model, _generate_request(
        b"", length=http_module.MAX_BODY_BYTES + 1))
    assert status == 413 and isinstance(payload["error"], str)


#: Request heads past the server's limits, as raw bytes on the socket,
#: and the status each gets: a line longer than the stream reader's
#: 64 KiB limit, a header or request line that is not UTF-8, a request
#: line that is not three fields, more header lines than
#: ``MAX_HEADER_LINES``.
BAD_HEADS = {
    "long-header-line": (b"GET /metrics HTTP/1.1\r\nX-Long: "
                         + b"a" * 70_000 + b"\r\n\r\n", 431),
    "long-request-line": (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                          431),
    "undecodable-header": (b"GET /metrics HTTP/1.1\r\nX-Bad: \xff\r\n\r\n",
                           400),
    "undecodable-request-line": (b"GET /metr\xffics HTTP/1.1\r\n\r\n", 400),
    "garbage-request-line": (b"GARBAGE\r\n\r\n", 400),
    "too-many-header-lines": (b"GET /metrics HTTP/1.1\r\n"
                              + b"X-Many: 1\r\n" * 5_000 + b"\r\n", 431),
}


@pytest.mark.parametrize("name", BAD_HEADS)
def test_http_bad_request_head_is_a_client_error(model, name):
    """An over-long, undecodable or malformed request head is answered
    431 or 400 with a JSON ``error`` — not a 500, not served and not a
    silently closed connection — and the server keeps serving."""
    raw, want = BAD_HEADS[name]
    status, payload = _bad_then_good(model, raw)
    assert status == want and isinstance(payload["error"], str)


def test_http_queue_full_is_429(model):
    async def run():
        gateway = make_gateway(model, max_queue_depth=1)
        server = GatewayHTTPServer(gateway)
        # Engine loop deliberately NOT started: the first job stays
        # queued, so the second submit must bounce.
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            body = json.dumps({"prompt": [1], "max_new_tokens": 2,
                               "stream": True}).encode()
            head = (f"POST /v1/generate HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n").encode()
            writer.write(head + body)
            await writer.drain()
            await reader.readline()  # streaming headers en route
            r2, w2 = await asyncio.open_connection(server.host, server.port)
            w2.write(head + body)
            await w2.drain()
            raw = await r2.read()
            w2.close()
            writer.close()
        finally:
            await server.stop()
        return raw

    raw = asyncio.run(run())
    assert b"429" in raw.split(b"\r\n", 1)[0]
    assert b"Retry-After" in raw
    payload = json.loads(raw.split(b"\r\n\r\n", 1)[1])
    assert payload == {"error": "queue_full", "retriable": True,
                       "detail": payload["detail"]}


# --------------------------------------------------------------------- #
# backpressure and cancellation
# --------------------------------------------------------------------- #
def test_queue_full_never_touches_engine(model):
    gateway = make_gateway(model, max_queue_depth=2)
    gateway.submit(np.array([1]), max_new_tokens=2)
    gateway.submit(np.array([2]), max_new_tokens=2)
    with pytest.raises(QueueFullError):
        gateway.submit(np.array([3]), max_new_tokens=2)
    # Retriable means nothing happened: no journal row, no engine state.
    assert gateway.queue.depth() == 2
    assert gateway.engine.cache is None
    # Depth recedes -> admission reopens.
    pump_until_done(gateway)
    assert gateway.submit(np.array([3]), max_new_tokens=2) == 3


def test_block_budget_backpressures_admission(model):
    """With a tight block pool, dispatch holds jobs in the durable queue
    instead of overcommitting the engine."""
    engine = GenerationEngine(model, max_batch_size=4, kv_cache="paged",
                              block_size=16, max_pool_blocks=4)
    gateway = ServingGateway(engine)
    job_ids = [gateway.submit(np.arange(1, 30), max_new_tokens=4)
               for _ in range(4)]
    gateway.pump()
    statuses = [gateway.queue.get(j).status for j in job_ids]
    assert statuses.count("queued") >= 1, \
        "block budget should defer at least one dispatch"
    pump_until_done(gateway)
    assert all(gateway.queue.get(j).status == "completed"
               for j in job_ids)


def test_cancel_frees_blocks_immediately(model):
    gateway = make_gateway(model, kv_cache="paged", prefix_sharing=False)
    keep = gateway.submit(np.array([1, 2, 3]), max_new_tokens=6)
    drop = gateway.submit(np.array([4, 5, 6]), max_new_tokens=64)
    gateway.pump()
    cache = gateway.engine.cache
    assert cache.cached_tokens > 0
    assert gateway.cancel(drop) is True
    pump_until_done(gateway)
    assert gateway.queue.get(drop).status == "cancelled"
    assert gateway.queue.get(keep).status == "completed"
    # Pool accounting back to baseline: every block came home.
    assert cache.cached_tokens == 0
    assert cache.blocks_in_use() == 0


def test_disconnect_cancels_and_reclaims(model):
    """Closing the last subscriber's stream cancels the job and returns
    its blocks to the pool."""

    async def run():
        gateway = make_gateway(model, kv_cache="paged",
                               prefix_sharing=False)
        await gateway.start()
        job_id = gateway.submit(np.array([1, 2, 3]), max_new_tokens=500)
        stream = gateway.stream(job_id)
        got = []
        async for update in stream:
            got.append(update)
            if len(got) == 3:
                break
        await stream.aclose()  # client disconnect
        await gateway.drain()
        await gateway.stop()
        return gateway, job_id, got

    gateway, job_id, got = asyncio.run(run())
    job = gateway.queue.get(job_id)
    assert job.status == "cancelled"
    assert job.finish_reason == "cancelled"
    # The journal keeps what was streamed before the disconnect.
    assert len(job.tokens) >= len([u for u in got if u.index is not None])
    cache = gateway.engine.cache
    assert cache.cached_tokens == 0
    assert cache.blocks_in_use() == 0


def test_second_subscriber_keeps_job_alive(model):
    """Disconnect only cancels when the *last* subscriber leaves."""

    async def run():
        gateway = make_gateway(model)
        await gateway.start()
        job_id = gateway.submit(np.array([1, 2]), max_new_tokens=8)
        first = gateway.stream(job_id)
        second = gateway.stream(job_id)
        await first.__anext__()
        await second.__anext__()
        await first.aclose()  # one of two: keep going
        tail = [u async for u in second]
        await gateway.stop()
        return gateway.queue.get(job_id), tail

    job, tail = asyncio.run(run())
    assert job.status == "completed"
    assert tail[-1].finish_reason == "length"


def test_metrics_shape(model):
    gateway = make_gateway(model)
    gateway.submit(np.array([1, 2]), max_new_tokens=3)
    pump_until_done(gateway)
    metrics = gateway.metrics()
    assert metrics["engine"] == gateway.engine.stats.to_dict()
    assert metrics["queue"]["depth"] == 0
    assert metrics["queue"]["jobs_completed"] == 1
    assert metrics["latency"]["first_token_p99_s"] >= \
        metrics["latency"]["first_token_p50_s"] >= 0.0
    json.dumps(metrics)  # scrape-able as-is


def test_first_token_latencies_are_a_bounded_window(model, monkeypatch):
    """Percentiles read a fixed window; the count is still the total."""
    monkeypatch.setattr("repro.serve.gateway.gateway.FIRST_TOKEN_WINDOW", 3)
    gateway = make_gateway(model)
    for seed in range(8):
        gateway.submit(np.array([1, 2, seed]), max_new_tokens=2)
    pump_until_done(gateway)
    latency = gateway.metrics()["latency"]
    assert len(gateway._first_token_s) == gateway._first_token_s.maxlen == 3
    assert latency["first_token_count"] == 8
    assert latency["first_token_p99_s"] >= latency["first_token_p50_s"] > 0


# --------------------------------------------------------------------- #
# state that must not grow, faults that must not spread
# --------------------------------------------------------------------- #
def test_per_job_state_is_dropped_on_every_terminal_edge(model, monkeypatch):
    """Finish, cancel while running, cancel while still queued (x100)
    and a dispatch-time rejection: once the pump has drained, the
    gateway remembers none of them."""
    gateway = make_gateway(model, max_batch_size=2)
    done = gateway.submit(np.array([1, 2, 3]), max_new_tokens=4)
    running = gateway.submit(np.array([4, 5, 6]), max_new_tokens=200)
    gateway.pump()
    refused = gateway.submit(np.array([7, 8]), max_new_tokens=4)
    submit = gateway.engine.submit_from_record

    def picky(record):
        if record.job_id == refused:
            raise ValueError("journal written against a larger model")
        return submit(record)

    monkeypatch.setattr(gateway.engine, "submit_from_record", picky)
    for i in range(100):
        job = gateway.submit(np.array([1, 2, i]), max_new_tokens=4)
        assert gateway.cancel(job)
    assert gateway.cancel(running)
    pump_until_done(gateway)
    assert gateway.queue.get(done).status == "completed"
    assert gateway.queue.get(running).status == "cancelled"
    assert gateway.queue.get(refused).status == "failed"
    assert gateway.queue.counts()["cancelled"] == 101
    containers = {name: value for name, value in vars(gateway).items()
                  if isinstance(value, dict)}
    assert containers and not any(containers.values()), containers


def test_poison_request_fails_its_wave_not_the_service(model):
    """A forward that raises costs the jobs inside the engine for that
    step — journaled ``failed`` with the error, rows and blocks freed —
    and nothing else: the loop keeps serving, and the next job's tokens
    are a fresh engine's."""
    poison = 99

    class PoisonedLM(TransformerLM):
        def forward(self, tokens, *args, **kwargs):
            if (np.asarray(tokens) == poison).any():
                raise RuntimeError("poison token in the batch")
            return super().forward(tokens, *args, **kwargs)

    prompt = np.array([5, 6, 7, 8])

    async def run():
        engine = GenerationEngine(PoisonedLM(model.config), max_batch_size=4)
        gateway = ServingGateway(engine)
        await gateway.start()
        wave = [gateway.submit(np.array([1, 2, 3]), max_new_tokens=6),
                gateway.submit(np.array([4, poison, 5]), max_new_tokens=6)]
        failed = [await asyncio.wait_for(gateway.result(job), 30)
                  for job in wave]
        later = gateway.submit(prompt, max_new_tokens=6)
        served = await asyncio.wait_for(gateway.result(later), 30)
        await gateway.drain()
        await gateway.stop()        # nothing to surface: the loop lived
        return gateway, failed, served

    gateway, failed, served = asyncio.run(run())
    for job in failed:
        assert job.status == "failed" and job.tokens == ()
        assert "RuntimeError: poison token" in job.error
    assert served.status == "completed"
    assert [list(served.tokens)] == reference_tokens(model, [prompt], 6)
    cache = gateway.engine.cache
    assert cache.cached_tokens == 0 and cache.blocks_in_use() == 0
    assert cache.free_blocks() == cache._total_blocks
    assert not gateway._jobs and not gateway._rid_job


def test_drain_raises_when_the_engine_loop_has_died(model, monkeypatch):
    """A full disk under the journal: the step's ``append_tokens`` raises,
    and so does the ``fail`` that would have charged it to the wave, so
    the engine loop dies with the job still journaled.  ``drain`` must
    say so — the loop clears ``_running`` as it records its error, and a
    ``drain`` that merely stops waiting reads as "every job finished"."""
    def full(*args, **kwargs):
        raise OSError("database or disk is full")

    async def run():
        gateway = make_gateway(model)
        monkeypatch.setattr(gateway.queue, "append_tokens", full)
        monkeypatch.setattr(gateway.queue, "fail", full)
        await gateway.start()
        gateway.submit(np.array([1, 2, 3]), max_new_tokens=4)
        with pytest.raises(OSError, match="disk is full"):
            await asyncio.wait_for(gateway.drain(), 30)
        assert gateway.queue.depth() == 1
        with pytest.raises(OSError, match="disk is full"):
            await gateway.stop()

    asyncio.run(run())
