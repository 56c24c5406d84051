"""Durable, restart-surviving request queue over a sqlite journal.

Every generation request the gateway accepts becomes a *job* row in a
sqlite database before the engine ever sees it, and every token the
engine emits for that job is journaled as it lands — so a crashed (or
deliberately killed) serving process loses nothing: reopening the same
journal path requeues every ``running`` job and replays its journaled
tokens, and because the engine's sampling is a pure function of
(prompt, params-with-seed), a re-dispatched job regenerates the exact
stream its journal holds (or the gateway fails it).  Clients reconnecting
after a restart see the journaled prefix first and the live continuation
after it, with no gaps and no duplicates.

The design is the classic lab-automation job queue — an in-memory
priority queue image over a sqlite-backed job lifecycle — specialised
to token streaming:

* ``jobs`` — one row per request: prompt and params as JSON, a
  ``priority`` column mirrored out of the params so claim order is a
  SQL ``ORDER BY`` (``priority DESC, job_id ASC``, the same order
  :func:`repro.serve.scheduler.admission_key` defines for the in-engine
  priority scheduler), and a status walking
  ``queued -> running -> completed | failed | cancelled``.
* ``tokens`` — ``(job_id, idx, token)`` rows, appended one batch per
  job per engine step; the journal both feeds client replay and defines
  "how far" a recovered job already got.

The queue is a plain synchronous object (sqlite is); the asyncio
gateway calls it from its single engine-loop task, so no additional
locking is needed beyond sqlite's own.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.serve.params import SamplingParams

#: Every state a job can be in.  ``queued`` and ``running`` are live;
#: the other three are terminal.
JOB_STATUSES = ("queued", "running", "completed", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATUSES = ("completed", "failed", "cancelled")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    prompt        TEXT NOT NULL,
    params        TEXT NOT NULL,
    priority      INTEGER NOT NULL DEFAULT 0,
    status        TEXT NOT NULL DEFAULT 'queued',
    finish_reason TEXT,
    error         TEXT,
    submitted_at  REAL NOT NULL,
    started_at    REAL,
    finished_at   REAL
);
CREATE INDEX IF NOT EXISTS jobs_claim_order
    ON jobs (status, priority DESC, job_id ASC);
CREATE TABLE IF NOT EXISTS tokens (
    job_id INTEGER NOT NULL,
    idx    INTEGER NOT NULL,
    token  INTEGER NOT NULL,
    PRIMARY KEY (job_id, idx)
);
"""


@dataclass(frozen=True)
class QueuedJob:
    """One journaled request, as read back from the database.

    ``tokens`` is the generated-token journal so far (never the
    prompt); for a terminal job it is the complete output.  The
    ``prompt``/``params`` pair is exactly what
    :meth:`repro.serve.engine.GenerationEngine.submit_from_record`
    consumes.
    """

    job_id: int
    prompt: np.ndarray
    params: SamplingParams
    status: str
    priority: int
    finish_reason: str | None
    error: str | None
    tokens: tuple[int, ...]

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES


class RequestQueue:
    """The sqlite-journaled job store (see module docstring).

    ``path`` may be ``":memory:"`` (tests, benchmarks that only need
    the lifecycle) or a filesystem path, which is what makes the queue
    durable: two ``RequestQueue`` instances opened on the same path —
    sequentially, as across a crash/restart — see the same jobs.
    """

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    # ------------------------------------------------------------------ #
    # intake and recovery
    # ------------------------------------------------------------------ #
    def submit(self, prompt: np.ndarray, params: SamplingParams) -> int:
        """Journal a new job as ``queued``; returns its id.

        ``params.seed`` must be resolved (not ``None``): the journal is
        only a durability story if replaying the record regenerates the
        same tokens, which requires the sampling stream to be pinned at
        submit time rather than drawn from engine state at dispatch.
        """
        if params.seed is None:
            raise ValueError("resolve params.seed before journaling — a "
                             "durable job must regenerate its exact "
                             "stream on re-dispatch")
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        if prompt.size == 0:
            raise ValueError("prompt must contain at least one token")
        cur = self._conn.execute(
            "INSERT INTO jobs (prompt, params, priority, status, "
            "submitted_at) VALUES (?, ?, ?, 'queued', ?)",
            (json.dumps([int(t) for t in prompt]),
             json.dumps(params.to_dict()), params.priority, time.time()))
        self._conn.commit()
        return int(cur.lastrowid)

    def recover(self) -> list[int]:
        """Requeue every job a dead process left ``running``.

        Called once when a gateway opens the journal: jobs mid-flight at
        the crash go back to ``queued`` with their token journal intact,
        so the next dispatch regenerates the stream and clients replay
        the journaled prefix seamlessly.  Returns the requeued ids.
        """
        rows = self._conn.execute(
            "SELECT job_id FROM jobs WHERE status = 'running' "
            "ORDER BY priority DESC, job_id ASC").fetchall()
        self._conn.execute(
            "UPDATE jobs SET status = 'queued', started_at = NULL "
            "WHERE status = 'running'")
        self._conn.commit()
        return [int(r[0]) for r in rows]

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def next_queued(self) -> QueuedJob | None:
        """The job the gateway should dispatch next (not yet claimed).

        Claim order is ``priority DESC, job_id ASC`` — byte-for-byte the
        order :func:`repro.serve.scheduler.admission_key` gives the
        in-engine priority scheduler.
        """
        row = self._conn.execute(
            "SELECT job_id FROM jobs WHERE status = 'queued' "
            "ORDER BY priority DESC, job_id ASC LIMIT 1").fetchone()
        return self.get(int(row[0])) if row is not None else None

    def mark_running(self, job_id: int) -> None:
        """Claim a queued job for the engine (``queued -> running``)."""
        cur = self._conn.execute(
            "UPDATE jobs SET status = 'running', started_at = ? "
            "WHERE job_id = ? AND status = 'queued'",
            (time.time(), job_id))
        self._conn.commit()
        if cur.rowcount != 1:
            raise ValueError(f"job {job_id} is not queued")

    # ------------------------------------------------------------------ #
    # the token journal
    # ------------------------------------------------------------------ #
    def append_tokens(self, job_id: int,
                      indexed_tokens: list[tuple[int, int]]) -> None:
        """Journal ``(idx, token)`` pairs for a running job.

        One commit per call, which the gateway makes once per *job* per
        engine step — not per token, not yet per step (ROADMAP item 2).
        Idempotent per index: re-journaling a replayed index is a no-op
        rather than a duplicate, which keeps crash windows between
        "token journaled" and "job finished" harmless.
        """
        if not indexed_tokens:
            return
        self._conn.executemany(
            "INSERT OR IGNORE INTO tokens (job_id, idx, token) "
            "VALUES (?, ?, ?)",
            [(job_id, int(i), int(t)) for i, t in indexed_tokens])
        self._conn.commit()

    def tokens(self, job_id: int) -> list[int]:
        """The job's journaled generated tokens, in emission order."""
        rows = self._conn.execute(
            "SELECT token FROM tokens WHERE job_id = ? ORDER BY idx ASC",
            (job_id,)).fetchall()
        return [int(r[0]) for r in rows]

    # ------------------------------------------------------------------ #
    # terminal transitions
    # ------------------------------------------------------------------ #
    def finish(self, job_id: int, finish_reason: str) -> None:
        """Mark a live job terminal with the engine's finish reason.

        ``"cancelled"`` lands as status ``cancelled``, every other
        reason (``length``/``stop``/``max_seq_len``) as
        ``completed``.  A job already terminal (e.g. cancelled through
        the API in the same step it finished) is left untouched.
        """
        status = "cancelled" if finish_reason == "cancelled" else "completed"
        self._conn.execute(
            "UPDATE jobs SET status = ?, finish_reason = ?, "
            "finished_at = ? WHERE job_id = ? AND status IN "
            "('queued', 'running')",
            (status, finish_reason, time.time(), job_id))
        self._conn.commit()

    def fail(self, job_id: int, error: str) -> None:
        """Mark a live job ``failed`` with a diagnostic message."""
        self._conn.execute(
            "UPDATE jobs SET status = 'failed', error = ?, finished_at = ? "
            "WHERE job_id = ? AND status IN ('queued', 'running')",
            (str(error), time.time(), job_id))
        self._conn.commit()

    def cancel(self, job_id: int) -> bool:
        """Cancel a live job; False when unknown or already terminal."""
        cur = self._conn.execute(
            "UPDATE jobs SET status = 'cancelled', "
            "finish_reason = 'cancelled', finished_at = ? "
            "WHERE job_id = ? AND status IN ('queued', 'running')",
            (time.time(), job_id))
        self._conn.commit()
        return cur.rowcount == 1

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def get(self, job_id: int) -> QueuedJob | None:
        row = self._conn.execute(
            "SELECT job_id, prompt, params, priority, status, "
            "finish_reason, error FROM jobs WHERE job_id = ?",
            (job_id,)).fetchone()
        if row is None:
            return None
        return QueuedJob(
            job_id=int(row[0]),
            prompt=np.asarray(json.loads(row[1]), dtype=np.int64),
            params=SamplingParams.from_dict(json.loads(row[2])),
            priority=int(row[3]), status=row[4], finish_reason=row[5],
            error=row[6], tokens=tuple(self.tokens(int(row[0]))))

    def counts(self) -> dict[str, int]:
        """Jobs per status (zero-filled over :data:`JOB_STATUSES`)."""
        out = {status: 0 for status in JOB_STATUSES}
        for status, n in self._conn.execute(
                "SELECT status, COUNT(*) FROM jobs GROUP BY status"):
            out[status] = int(n)
        return out

    def depth(self) -> int:
        """Live jobs (queued + running) — the backpressure gauge."""
        row = self._conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE status IN "
            "('queued', 'running')").fetchone()
        return int(row[0])

    def job_ids(self, status: str | None = None) -> list[int]:
        """All job ids, optionally filtered by status, in id order."""
        if status is None:
            rows = self._conn.execute(
                "SELECT job_id FROM jobs ORDER BY job_id ASC").fetchall()
        else:
            if status not in JOB_STATUSES:
                raise ValueError(f"status must be one of {JOB_STATUSES}, "
                                 f"got {status!r}")
            rows = self._conn.execute(
                "SELECT job_id FROM jobs WHERE status = ? "
                "ORDER BY job_id ASC", (status,)).fetchall()
        return [int(r[0]) for r in rows]
