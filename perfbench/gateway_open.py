"""``gateway_open``: the serving gateway, saturated and under open load.

Everything runs in this process on one thread: the gateway's own engine
loop is an asyncio task, the load generator and the stream consumers
are others.  No sockets carry load (the HTTP server closes every
connection, so it cannot carry an open loop); the ``http_probe`` phase
times single requests over a real loopback connection instead.

Two journal configurations are measured, each feeding its own metrics
whether or not the run is traced:

``:memory:``  every end-to-end metric and every layer metric not named
              below.  The whole gateway path (seed resolution, dispatch,
              sqlite statements, fan-out, asyncio) without the fsyncs.
file          a real file in a fresh directory under ``perfbench/out/``:
              the only durable configuration, where one sqlite commit
              per job per step dominates.  Feeds ``file_out_tok_s``,
              the ``serve.gateway.file.*`` layer metrics and the
              ``recover`` phase.  Its timings follow the disk, which on
              the reference box shifts by 30% between one minute and the
              next (see the README), so no bound the driver allows can
              hold them; ``compare`` still reports them.

Phases:

``sat``     closed: every request submitted at once, streamed until the
            last one ends.  On ``:memory:`` this is the workload's
            *round*, where every end-to-end metric comes from; on file
            it runs a fixed number of times after the rounds.
``open``    traced run, ``:memory:``; Poisson arrivals from the seed at
            three fixed rates; each request is timed from the moment it
            was *due*, so a stalled generator or queue counts against
            the requests behind it.  Layer metrics only: at half load a
            7% slower step becomes a 35-50% longer latency, and two
            same-code sets of ten runs differed by that much.
``recover`` traced run, file; abandon a gateway with jobs in flight,
            reopen the journal, ``recover()``, drain; streams must equal
            the uninterrupted ones.
``http_probe``  traced run; one connection at a time: collect-mode
            generate, record read, metrics scrape.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
from repro.hw.energy import energy_efficiency
from repro.serve import (GatewayHTTPServer, GenerationEngine, QueueFullError,
                         RequestQueue, SamplingParams, ServingGateway)

from perfbench import calibrate, closed_loop, metrics, suite, workloads
from perfbench.closed_loop import RequestLog
from perfbench.trace import COMMITTING, Tracer, per_round


@dataclass
class Phase:
    """Requests served through one gateway: a saturated round (all due
    at once) or an open-loop phase (due at Poisson times)."""

    wall_s: float                     # first due time to last completion
    logs: list[RequestLog]            # ``submitted`` holds the due time
    lag_ms: np.ndarray                # how late the generator submitted
    refused: int
    journal_mismatches: int
    finished: list[float]
    stats: dict                       # ``EngineStats.to_dict()`` at the end
    rate_rps: float = 0.0             # offered rate (open loop only)
    span_range: tuple[int, int] | None = None
    speed: float = 1.0                # machine slowness around the phase
    dispatch_ns: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def tokens(self) -> int:
        return sum(len(log.tokens) for log in self.logs)

    @property
    def streams(self) -> list[list[int]]:
        return [log.tokens for log in self.logs]


def queue_layers(tables: list) -> dict:
    """``serve.gateway.queue.*`` span metrics per traced round."""
    out = {}
    for op in ("submit", "append_tokens", "finish", "claim", "read"):
        out.update(per_round(tables, f"serve.gateway.queue.{op}",
                             "calls", "busy_s"))
    out["serve.gateway.queue.commits"] = sum(
        t.calls(name) for t in tables for name in COMMITTING
    ) / max(1, len(tables))
    return out


class GatewayOpen(suite.Workload):
    name = "gateway_open"
    why = ("ServingGateway and its sqlite journal under a saturated burst "
           "(file-backed journal timed beside it as file_out_tok_s; open-loop "
           "Poisson rates in the traced run): a path no other workload "
           "enters")
    round_share = 0.6

    def setup(self) -> None:
        self.model = suite.load("llama-sim-7b", self.quick, seed=1)
        sizes = self.sizes["gateway"]
        self.batch = sizes["batch"]
        self.sat_requests = self._requests(sizes["sat_requests"], stream=5)
        self.rates = (workloads.OPEN_RATES_RPS if not self.quick
                      else (40.0, 80.0, 120.0))
        metrics.OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.journal_dir = tempfile.mkdtemp(prefix="journal-",
                                            dir=metrics.OUT_DIR)
        self.journals = 0
        self.file_rounds: list[Phase] = []
        self.file_traced: Phase | None = None
        self.open: dict[str, Phase] = {}
        self.recover_result: dict = {}
        self.http: dict = {}
        self._saturate(self.sat_requests[:self.batch], None)

    # ------------------------------------------------------------------ #
    def _requests(self, count: int, stream: int) -> list[workloads.Req]:
        sizes = self.sizes["gateway"]
        return workloads.flat_requests(
            self.seed, self.model.config.vocab_size, count,
            sizes["prompt_len"], sizes["new"], stream=stream)

    def _gateway(self, path: str = ":memory:"):
        """A fresh engine + gateway journaling to ``path``."""
        engine = GenerationEngine(self.model, max_batch_size=self.batch,
                                  kv_cache="paged")
        # Every request of a phase must be admitted: refusals would make
        # the phases incomparable, so the depth bound stays out of reach.
        return ServingGateway(engine, RequestQueue(path),
                              max_queue_depth=100_000)

    @staticmethod
    def _params(req: workloads.Req) -> SamplingParams:
        return SamplingParams(**req.params)

    def _journal_file(self) -> str:
        self.journals += 1
        return f"{self.journal_dir}/journal-{self.journals}.sqlite"

    async def _serve(self, due: np.ndarray, requests: list[workloads.Req],
                     tracer: Tracer | None, path: str = ":memory:") -> Phase:
        """Submit ``requests[i]`` at ``due[i]`` seconds from now on a
        fresh gateway and stream every one of them to its end."""
        gateway = self._gateway(path)
        lo = len(tracer.spans) if tracer is not None else 0
        now = time.perf_counter
        logs: list[RequestLog] = []
        lags: list[float] = []
        finished: list[float] = []
        jobs: list[int] = []
        refused = 0
        consumers: list[asyncio.Task] = []

        async def consume(job: int, log: RequestLog) -> None:
            async for update in gateway.stream(job):
                if update.token is not None:
                    log.times.append(now())
                    log.tokens.append(update.token)
                if update.finish_reason is not None:
                    log.finish = update.finish_reason
            finished.append(now())

        await gateway.start()
        start = now()
        try:
            for i, offset in enumerate(due):
                wait = start + offset - now()
                if wait > 0:
                    await asyncio.sleep(wait)
                lags.append(1e3 * (now() - (start + offset)))
                try:
                    job = gateway.submit(requests[i].prompt,
                                         self._params(requests[i]))
                except QueueFullError:
                    refused += 1
                    continue
                log = RequestLog(0, i, requests[i], start + offset)
                logs.append(log)
                jobs.append(job)
                consumers.append(asyncio.ensure_future(consume(job, log)))
            await asyncio.gather(*consumers)
            # The durable record must hold exactly what was streamed.
            mismatches = sum(
                list(gateway.queue.get(job).tokens) != log.tokens
                for job, log in zip(jobs, logs))
        finally:
            await gateway.stop()
            gateway.queue.close()
        hi = len(tracer.spans) if tracer is not None else 0
        phase = Phase(wall_s=max(finished) - start, logs=logs,
                      lag_ms=np.asarray(lags), refused=refused,
                      journal_mismatches=mismatches, finished=finished,
                      stats=gateway.engine.stats.to_dict(),
                      span_range=(lo, hi) if tracer is not None else None)
        if tracer is not None:
            # Jobs dispatch in arrival order, so the i-th engine submit
            # of the phase is the i-th arrival's.
            phase.dispatch_ns = tracer.table(lo, hi).starts_ns(
                "serve.engine.submit")
        return phase

    def _saturate(self, requests: list[workloads.Req],
                  tracer: Tracer | None, path: str = ":memory:") -> Phase:
        return asyncio.run(self._serve(np.zeros(len(requests)), requests,
                                       tracer, path))

    def round(self, tracer: Tracer | None = None) -> Phase:
        return self._saturate(self.sat_requests, tracer)

    def _open_phase(self, rate: float, duration: float, stream: int,
                    tracer: Tracer) -> Phase:
        due = workloads.poisson_arrivals(self.seed, rate, duration, stream)
        phase = asyncio.run(self._serve(
            due, self._requests(len(due), stream=10 + stream), tracer))
        phase.rate_rps = rate
        return phase

    def _recover_phase(self) -> dict:
        """Kill-and-reopen: streams must equal the uninterrupted ones."""
        count = self.sizes["gateway"]["recover_jobs"]
        requests = self.sat_requests[:count]
        path = self._journal_file()
        gateway = self._gateway(path)
        jobs = [gateway.submit(req.prompt, self._params(req))
                for req in requests]
        half = sum(req.params["max_new_tokens"] for req in requests) // 2
        while sum(len(gateway.queue.tokens(job)) for job in jobs) < half:
            gateway.pump()
        # Abandon: no stop, no drain; only the journal survives.
        gateway.queue.close()
        reopened = self._gateway(path)
        start = time.perf_counter()
        reopened.recover()
        while reopened.pump():
            pass
        drain = time.perf_counter() - start
        streams = [list(reopened.queue.get(job).tokens) for job in jobs]
        reopened.queue.close()
        return {"drain_s": drain, "streams": streams, "jobs": count}

    async def _http_probe(self) -> dict:
        probes = self.sizes["gateway"]["http_probes"]
        requests = self.sat_requests[:probes]
        gateway = self._gateway()
        server = GatewayHTTPServer(gateway)
        await gateway.start()
        timings = {"generate": [], "direct": [], "get": [], "metrics": []}
        failed = 0
        try:
            await server.start()

            async def call(method: str, path: str, body: dict | None):
                raw = json.dumps(body).encode() if body is not None else b""
                head = (f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
                        f"Content-Length: {len(raw)}\r\n\r\n").encode()
                begin = time.perf_counter()
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(head + raw)
                await writer.drain()
                reply = await reader.read()
                writer.close()
                await writer.wait_closed()
                elapsed = 1e3 * (time.perf_counter() - begin)
                status = int(reply.split(b" ", 2)[1])
                payload = json.loads(reply.split(b"\r\n\r\n", 1)[1])
                return elapsed, status, payload

            for req in requests:
                body = {"prompt": [int(t) for t in req.prompt], **req.params}
                ms, status, record = await call("POST", "/v1/generate", body)
                timings["generate"].append(ms)
                begin = time.perf_counter()
                direct = await gateway.result(
                    gateway.submit(req.prompt, self._params(req)))
                timings["direct"].append(
                    1e3 * (time.perf_counter() - begin))
                failed += (status != 200
                           or record["tokens"] != list(direct.tokens))
                ms, status, fetched = await call(
                    "GET", f"/v1/requests/{record['job_id']}", None)
                timings["get"].append(ms)
                failed += status != 200 or \
                    fetched["tokens"] != record["tokens"]
                ms, status, _ = await call("GET", "/metrics", None)
                timings["metrics"].append(ms)
                failed += status != 200
        finally:
            await server.stop()
            await gateway.stop()
            gateway.queue.close()
        return {"timings": timings, "failed": failed,
                "attempted": 3 * len(requests)}

    def tail(self, seconds: float, tracer: Tracer | None) -> None:
        # The durable configuration: the round again, on a file.
        meter = calibrate.Speedometer()
        self.file_rounds = [
            meter.around(lambda: self._saturate(self.sat_requests, None,
                                                self._journal_file()))
            for _ in range(self.sizes["gateway"]["file_rounds"])]
        if tracer is None:
            return
        # Traced run only, layer metrics only: the three rates share the
        # seconds, spans on, so that queue waits can be read off the
        # engine-submit spans.
        tracer.install()
        try:
            self.file_traced = self._saturate(self.sat_requests, tracer,
                                              self._journal_file())
            for stream, (key, rate) in enumerate(
                    zip(("r1", "r2", "r3"), self.rates), start=1):
                self.open[key] = self._open_phase(rate, seconds / 3.0,
                                                  stream, tracer)
        finally:
            tracer.restore()
        self.recover_result = self._recover_phase()
        try:
            self.http = asyncio.run(self._http_probe())
        except OSError as exc:
            # No loopback in this sandbox: the probe is skipped, loudly.
            print(f"perfbench: http_probe skipped ({exc})", flush=True)
            self.http = {}

    # ------------------------------------------------------------------ #
    def check(self, rounds: list[Phase]) -> tuple[int, int]:
        attempted = failed = 0
        new = self.sizes["gateway"]["new"]
        file_rounds = self.file_rounds + (
            [self.file_traced] if self.file_traced else [])
        for phase in rounds + file_rounds + list(self.open.values()):
            attempted += len(phase.logs) + phase.refused
            if phase.rate_rps == 0 and phase.streams != rounds[0].streams:
                failed += len(phase.logs)      # rounds repeat exactly
                continue
            failed += phase.refused + phase.journal_mismatches
            failed += sum(log.finish != "length" or len(log.tokens) != new
                          for log in phase.logs)
        for i in closed_loop.sample_indices(len(self.sat_requests),
                                            suite.GENERATE_SAMPLE):
            attempted += 1
            failed += closed_loop.differs_from_generate(
                self.model, self.sat_requests[i], rounds[0].streams[i])
        if self.recover_result:
            jobs = self.recover_result["jobs"]
            attempted += jobs
            failed += sum(a != b for a, b in zip(
                self.recover_result["streams"], rounds[0].streams[:jobs]))
        if self.http:
            attempted += self.http["attempted"]
            failed += self.http["failed"]
        return attempted, failed

    def close(self) -> None:
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)

    def end_to_end(self, rounds: list[Phase]) -> dict:
        out = closed_loop.latency_metrics(rounds)
        out["file_out_tok_s"] = closed_loop.rate_over_rounds(
            [r.tokens for r in self.file_rounds],
            [r.wall_s for r in self.file_rounds],
            [r.speed for r in self.file_rounds])
        out["kv_bytes_per_token"] = suite.kv_bytes_per_token(
            [r.stats for r in rounds])
        out["ppl_ratio_w"] = suite.exact(1.0)
        out["ppl_ratio_kv"] = suite.exact(1.0)
        out["bits_per_weight"] = suite.exact(suite.weight_bits(self.model))
        out["accel_energy_eff_x"] = suite.exact(
            energy_efficiency(self.model.config, 8))
        return out

    def layers(self, rounds: list[Phase], traced: list[Phase],
               tracer: Tracer, end_to_end: dict) -> dict:
        n = max(1, len(traced))
        tables = [tracer.table(*r.span_range) for r in traced]
        out = queue_layers(tables)
        for name in ("serve.engine.step", "nn.model.forward"):
            out.update(per_round(tables, name, "calls", "busy_s", "self_s"))
        out.update(per_round(tables, "serve.engine.submit", "busy_s"))
        out.update(per_round(tables, "autograd.tensor.matmul",
                             "calls", "busy_s"))
        out.update(per_round(tables, "serve.gateway.gateway.pump",
                             "calls", "self_s"))
        out["serve.engine.decode_tokens"] = sum(
            r.stats["decode_tokens"] for r in traced) / n
        out["serve.engine.prefill_tokens"] = sum(
            r.stats["prefill_tokens"] for r in traced) / n
        out["serve.gateway.file.out_tok_s"] = \
            end_to_end["file_out_tok_s"]["value"]
        out["serve.gateway.file.append_tokens.busy_s"] = tracer.table(
            *self.file_traced.span_range).busy_s(
                "serve.gateway.queue.append_tokens")

        sat_rps = float(np.median(
            [len(r.streams) / r.wall_s for r in rounds]))
        slo_rate = 0.0
        for key, phase in self.open.items():
            ttft = closed_loop.ttft_ms(phase.logs)
            tpot = closed_loop.tpot_ms(phase.logs)
            prefix = f"serve.gateway.gateway.open.{key}"
            p50 = float(np.percentile(ttft, 50)) if len(ttft) else 0.0
            p95 = float(np.percentile(ttft, 95)) if len(ttft) else 0.0
            if key in ("r1", "r3"):
                out[f"{prefix}.ttft_ms_p50"] = p50
            if key in ("r2", "r3"):
                out[f"{prefix}.ttft_ms_p95"] = p95
            third = max(1, len(ttft) // 3)
            growing = len(ttft) >= 6 and (
                np.median(ttft[-third:]) - np.median(ttft[:third]) > 100.0)
            meets = (len(ttft) > 0 and p95 <= workloads.SLO_TTFT_P95_MS
                     and float(np.percentile(tpot, 50))
                     <= workloads.SLO_TPOT_P50_MS
                     and not growing and phase.refused == 0)
            if meets:
                slo_rate = max(slo_rate, phase.rate_rps)
        out["serve.gateway.gateway.open.slo_rate_rps"] = slo_rate
        r2 = self.open["r2"]
        waits = 1e3 * (r2.dispatch_ns[:len(r2.logs)] / 1e9 - np.asarray(
            [log.submitted for log in r2.logs[:len(r2.dispatch_ns)]]))
        out["serve.gateway.gateway.queue_wait_ms_p50"] = float(
            np.percentile(waits, 50)) if len(waits) else 0.0
        out["serve.gateway.gateway.queue_wait_ms_p95"] = float(
            np.percentile(waits, 95)) if len(waits) else 0.0
        # Little's law: time spent inside the engine over the phase wall.
        out["serve.gateway.gateway.inflight_mean"] = (
            sum(r2.finished) - r2.dispatch_ns.sum() / 1e9) / r2.wall_s
        out["serve.gateway.gateway.refused"] = float(
            sum(phase.refused for phase in self.open.values()))
        out["serve.gateway.gateway.open.gen_lag_ms_p95"] = float(
            np.percentile(np.concatenate(
                [phase.lag_ms for phase in self.open.values()]), 95))
        out["serve.gateway.gateway.open.load_at_r2"] = (
            r2.rate_rps / sat_rps if sat_rps else 0.0)
        if self.recover_result:
            out["serve.gateway.gateway.recover.drain_s"] = \
                self.recover_result["drain_s"]
        if self.http:
            timings = {key: float(np.percentile(values, 50))
                       for key, values in self.http["timings"].items()}
            out["serve.gateway.http.generate_ms_p50"] = timings["generate"]
            out["serve.gateway.http.overhead_ms_p50"] = (
                timings["generate"] - timings["direct"])
            out["serve.gateway.http.get_ms_p50"] = timings["get"]
            out["serve.gateway.http.metrics_ms_p50"] = timings["metrics"]
        return out
