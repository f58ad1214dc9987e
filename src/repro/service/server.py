"""Fault-tolerant leakcheck job server (stdlib-only asyncio HTTP).

``LeakcheckService`` is the long-running layer over the campaign
engine: it accepts the jobs :func:`~repro.service.job_kinds` lists as
JSON over HTTP, journals every accepted job in the campaign sqlite DB
*before* acknowledging it, dedups against the campaign result cache
with the engine's own cache-hit rule
(:func:`~repro.campaign.cached_record`), and executes admitted jobs
through per-job :class:`~repro.campaign.CampaignEngine` instances on a
thread executor.  Admission, the journal and every job share the
service's one :class:`~repro.campaign.CampaignDB` connection.

Robustness properties, in order of importance:

* **No accepted job is ever lost.**  The journal write commits before
  the 202 response leaves the socket; on startup any job still
  ``queued``/``running`` is re-queued (counted in
  ``repro_service_resumed_total``), so a ``kill -9`` mid-run only costs
  the partial work, never the job.
* **Bounded admission.**  The queue never exceeds ``capacity``; excess
  submissions are shed with ``429 Too Many Requests`` plus a
  ``Retry-After`` estimate derived from the observed job rate —
  overload degrades to back-pressure, not to unbounded memory.
* **Graceful drain.**  SIGTERM/SIGINT (wired by ``repro serve``) stops
  admission (``/readyz`` flips to 503), checkpoints still-queued jobs
  back to the journal, lets running jobs finish within a grace period
  (after which their engines get a cooperative
  :meth:`~repro.campaign.CampaignEngine.request_stop`), and exits 0.
* **Per-job budgets.**  Timeouts, bounded retries, and full-jitter
  backoff all reuse the campaign engine's machinery, so a hung victim
  degrades to a structured ``timeout`` job, not a wedged worker.

The HTTP layer is a deliberately small hand-rolled HTTP/1.1
implementation over ``asyncio`` streams (one request per connection,
``Connection: close``) — the repo ships no web framework and does not
need one for a JSON job API.
"""

from __future__ import annotations

import asyncio
import json
import time
import uuid
from functools import partial
from typing import Any, Callable

from repro import obs
from repro.campaign.db import CampaignDB
from repro.campaign.engine import CampaignEngine, cached_record
from repro.campaign.worker import check_seconds
from repro.obs import fleet_prometheus_text, summarize
from repro.perf.metrics import prometheus_text
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TIMEOUT,
    Job,
    build_job_tasks,
    summarize_records,
)
from repro.trace.counters import CounterRegistry
from repro.utils.provenance import git_rev as _git_rev

#: Largest accepted request body; a job spec is a few hundred bytes.
_MAX_BODY = 1 << 20

#: Per-connection read budget: a stalled client cannot pin a handler.
_IO_TIMEOUT_S = 30.0

#: Terminal jobs kept in memory for fast status reads; older ones are
#: evicted (their journal rows remain authoritative).
_MEMORY_JOBS = 4096

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

def _as_float(read: Callable[[], Any]) -> float:
    """A gauge reading: ``read()`` as a float."""
    return float(read())


class LeakcheckService:
    """Asyncio HTTP job server over the campaign engine (see module doc)."""

    def __init__(
        self,
        db_path: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        capacity: int = 64,
        concurrency: int = 2,
        job_timeout: float | None = None,
        retries: int = 0,
        backoff: float = 0.5,
        engine_jobs: int = 1,
        drain_grace: float = 30.0,
        git_rev: str | None = None,
        spans: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be a positive queue bound")
        if concurrency < 1:
            raise ValueError("concurrency must be a positive worker count")
        if engine_jobs < 1:
            raise ValueError("engine_jobs must be a positive shard count")
        if drain_grace <= 0:
            raise ValueError("drain_grace must be positive seconds")
        if job_timeout is not None:
            check_seconds("job_timeout", job_timeout)
        if retries < 0:
            raise ValueError("retries must be non-negative")
        check_seconds("backoff", backoff, positive=False)
        self.db_path = str(db_path)
        self.host = host
        self.port = port
        self.capacity = capacity
        self.concurrency = concurrency
        self.job_timeout = job_timeout
        self.retries = retries
        self.backoff = backoff
        self.engine_jobs = engine_jobs
        self.drain_grace = drain_grace
        self.git_rev = git_rev if git_rev is not None else _git_rev()
        self.spans = spans
        #: True when start() installed the process-global span recorder
        #: (close() then tears it down; a caller-provided recorder stays).
        self._obs_owner = False
        #: Structured summary of the last graceful drain (operators grep
        #: the ``drain:`` line the CLI renders from this).
        self.drain_report: dict[str, Any] | None = None

        self.registry = CounterRegistry()
        self._c_requests = self.registry.counter("requests")
        self._c_admitted = self.registry.counter("admitted")
        self._c_shed = self.registry.counter("shed")
        self._c_rejected = self.registry.counter("rejected")
        self._c_dedup = self.registry.counter("dedup_hits")
        self._c_resumed = self.registry.counter("resumed")
        self._c_drained = self.registry.counter("drained")
        self._c_done = self.registry.counter("done")
        self._c_failed = self.registry.counter("failed")
        self._c_timeout = self.registry.counter("timeout")
        self._c_cancelled = self.registry.counter("cancelled")

        self.db: CampaignDB | None = None
        self._jobs: dict[str, Job] = {}
        self._running: dict[str, CampaignEngine] = {}
        #: Executor futures of job runs that have not returned yet.  A
        #: forced drain cancels a worker loop, not its job thread, so
        #: close() waits on these before it closes the DB they use.
        self._executions: set[asyncio.Future] = set()
        self._queue: asyncio.Queue[Job] = asyncio.Queue()
        self._workers: list[asyncio.Task] = []
        #: Workers waiting in ``queue.get()``, the ones a drain cancels.
        self._idle: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        #: Set once by begin_drain(); never cleared.
        self._draining = asyncio.Event()
        self._drain_task: asyncio.Task | None = None
        self._stopped: asyncio.Event | None = None
        self._avg_job_s = 1.0  # EMA of job wall time, for Retry-After
        # Each gauge reads the state it reports, not the service: a
        # closure over ``self`` would make a cycle that keeps a closed
        # service, its jobs and their results alive until a full
        # collection.
        self.registry.gauge("queue_depth", partial(_as_float, self._queue.qsize))
        self.registry.gauge("running", partial(_as_float, self._running.__len__))
        self.registry.gauge("draining", partial(_as_float, self._draining.is_set))

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Open the journal, resume pending jobs, start workers + listener."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        if self.spans and obs.active() is None:
            obs.enable()
            self._obs_owner = True
        self.db = CampaignDB(self.db_path)
        self._resume_journal()
        self._workers = [
            asyncio.ensure_future(self._worker_loop())
            for _ in range(self.concurrency)
        ]
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def wait_closed(self) -> None:
        """Block until a drain has fully completed."""
        assert self._stopped is not None, "service not started"
        await self._stopped.wait()

    async def close(self) -> None:
        """Graceful shutdown: drain, wait for every job run to return,
        then close the campaign DB.

        A job the drain stopped waiting for still records its campaign
        run through the shared connection, so a restart serves it from
        the cache instead of executing it again.
        """
        self.begin_drain()
        await self.wait_closed()
        if self._executions:
            await asyncio.wait(self._executions)
        if self.db is not None:
            self.db.close()
        if self._obs_owner:
            obs.disable()
            self._obs_owner = False

    def begin_drain(self) -> None:
        """Enter drain mode; idempotent, safe to call from a signal handler."""
        if self._draining.is_set():
            return
        self._draining.set()
        self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        # Checkpoint still-queued jobs: their journal rows stay 'queued'
        # so the next start re-queues them; only the in-memory queue is
        # emptied.  No await between get_nowait calls, so no worker can
        # interleave and steal one mid-checkpoint.
        checkpointed: list[str] = []
        while not self._queue.empty():
            job = self._queue.get_nowait()
            if job.state == QUEUED:
                self._c_drained.incr()
                checkpointed.append(job.id)
                # Each checkpointed job gets a final span so the drain is
                # visible in its trace, not just in the journal.
                self._emit_job_span(job, "checkpointed",
                                    kind="job.checkpoint",
                                    reason="graceful drain")
        # Stop the workers waiting for a job; a busy one returns once its
        # job ends.  Nothing goes on the queue, so it only holds jobs.
        for worker in self._idle:
            worker.cancel()
        done, still_running = await asyncio.wait(
            self._workers, timeout=self.drain_grace
        )
        if still_running:
            # Grace expired: ask in-flight engines to stop scheduling and
            # finish cooperatively, then give them one more grace period.
            for engine in list(self._running.values()):
                engine.request_stop()
            done, still_running = await asyncio.wait(
                still_running, timeout=self.drain_grace
            )
        for task in still_running:
            task.cancel()
        # A cancelled worker keeps its CancelledError, whose traceback
        # holds the worker's frame and so this service: keeping the
        # tasks would make a cycle.
        self._workers = []
        self.drain_report = {
            "event": "drain",
            "checkpointed": len(checkpointed),
            "checkpointed_jobs": checkpointed,
            "forced_stop": len(still_running),
            "grace_s": self.drain_grace,
        }
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            # The server's protocol factory holds the bound
            # _handle_connection, so keeping the server would make a
            # cycle through this service.
            self._server = None
        self._stopped.set()

    def drain_summary_line(self) -> str:
        """Structured one-line drain summary (grep ``drain:`` in logs)."""
        report = self.drain_report or {
            "event": "drain", "checkpointed": 0, "checkpointed_jobs": [],
            "forced_stop": 0, "grace_s": self.drain_grace,
        }
        return "drain: " + json.dumps(report, sort_keys=True)

    def _resume_journal(self) -> None:
        """Re-queue every journalled job that never reached a terminal state."""
        assert self.db is not None
        for row in self.db.journal_pending():
            job = Job.from_row(row)
            job.state = QUEUED
            job.updated = time.time()
            job.resumed = True
            # A resumed job keeps the trace id minted at its original
            # admission; pre-v3 rows (no trace) mint one now.
            job.trace_id = job.trace_id or obs.new_trace_id()
            self.db.journal_update(job.id, state=QUEUED, resumed=1,
                                   trace=job.trace_id)
            self._remember(job)
            self._queue.put_nowait(job)
            self._c_resumed.incr()

    # -- job execution -----------------------------------------------------

    def _queue_depth(self) -> int:
        return self._queue.qsize()

    async def _worker_loop(self) -> None:
        while not self._draining.is_set():
            self._idle.add(asyncio.current_task())
            try:
                job = await self._queue.get()
            finally:
                self._idle.discard(asyncio.current_task())
            if job.state == CANCELLED:
                continue
            if job.cancel_requested:
                job.advance(CANCELLED)
                self._journal_terminal(job)
                self._emit_job_span(job, "cancelled")
                continue
            job.advance(RUNNING)
            job.attempts += 1
            self.db.journal_update(
                job.id, state=RUNNING, attempts=job.attempts
            )
            # Root span of the job's trace: covers admission (queue-wait
            # becomes an explicit child phase) through the terminal state.
            job_span: Any = obs.NULL_SPAN
            recorder = obs.active()
            if recorder is not None and job.trace_id:
                job_span = recorder.start_span(
                    "service.job", kind="service.job",
                    trace_id=job.trace_id, start_at=job.submitted,
                    attrs={"job": job.id, "kind": job.kind,
                           "resumed": job.resumed, "attempt": job.attempts},
                )
                recorder.start_span(
                    "job.queue", kind="job.queue", parent=job_span,
                    start_at=job.submitted, attrs={"job": job.id},
                ).end("ok")
            span_parent = (
                job_span.context if job_span is not obs.NULL_SPAN else None
            )
            started = self._loop.time()
            execution = self._loop.run_in_executor(
                None, self._execute_job, job, span_parent
            )
            self._executions.add(execution)
            execution.add_done_callback(self._executions.discard)
            try:
                state, summary, error = await asyncio.shield(execution)
            except Exception as exc:  # noqa: BLE001 - job isolation
                state, summary, error = (
                    FAILED, None, f"{type(exc).__name__}: {exc}"
                )
            finally:
                self._running.pop(job.id, None)
            elapsed = self._loop.time() - started
            self._avg_job_s = 0.8 * self._avg_job_s + 0.2 * max(0.01, elapsed)
            job.error = error
            job.result = summary
            job.advance(state)
            self._journal_terminal(job)
            job_span.set_many({"state": job.state, "cached": job.cached})
            if job.error:
                job_span.set("error", job.error[:200])
            job_span.end("ok" if job.state == DONE else job.state)
            self._persist_spans(job.trace_id)

    def _execute_job(
        self, job: Job, span_parent: "obs.SpanContext | None"
    ) -> tuple[str, dict[str, Any] | None, str]:
        """Run one job through a fresh campaign engine (executor thread).

        The engine looks up and records runs through the service's own
        campaign DB, and each ``ok`` record carries the payload text the
        DB stored or served, so summarising the job encodes nothing
        again.  The DB stays open until this returns, even after a forced
        drain has given up on the job (see :meth:`close`).

        ``span_parent`` is passed explicitly because ``run_in_executor``
        does not propagate the event loop's context vars into executor
        threads — the job span would otherwise be lost here.
        """
        _, tasks = build_job_tasks(job.kind, job.spec)
        run_span: Any = obs.NULL_SPAN
        if span_parent is not None:
            run_span = obs.start_span(
                "job.run", kind="job.run", parent=span_parent,
                attrs={"job": job.id, "kind": job.kind,
                       "tasks": len(tasks)},
            )
        engine = CampaignEngine(
            jobs=self.engine_jobs,
            timeout=self.job_timeout,
            retries=self.retries,
            backoff=self.backoff,
            reseed_base=job.spec.get("seed"),
            db=self.db,
            use_cache=True,
            git_rev=self.git_rev,
            span_parent=(
                run_span.context if run_span is not obs.NULL_SPAN else None
            ),
        )
        self._running[job.id] = engine
        if job.cancel_requested:
            engine.request_stop()
        try:
            report = engine.run(tasks)
        except BaseException:
            run_span.end("failed")
            raise
        outcome = summarize_records(report.records)
        run_span.end("ok" if outcome[0] == DONE else outcome[0])
        return outcome

    def _persist_spans(self, trace_id: str) -> None:
        """Move a trace's finished spans from the recorder into the DB."""
        recorder = obs.active()
        if recorder is None or self.db is None or not trace_id:
            return
        spans = recorder.drain(trace_id=trace_id)
        if spans:
            self.db.span_put_many(spans)

    def _emit_job_span(self, job: Job, outcome: str, *,
                       kind: str = "service.job", **attrs: Any) -> None:
        """Synthesize + persist a job-level span for jobs that never ran
        (dedup hits, queue cancels, drain checkpoints)."""
        recorder = obs.active()
        if recorder is None or not job.trace_id:
            return
        span = recorder.start_span(
            kind, kind=kind, trace_id=job.trace_id, start_at=job.submitted,
            attrs={"job": job.id, "kind": job.kind, **attrs},
        )
        span.end(outcome)
        self._persist_spans(job.trace_id)

    def _journal_terminal(self, job: Job) -> None:
        result_text = (
            json.dumps(job.result, sort_keys=True)
            if job.result is not None else None
        )
        self.db.journal_update(
            job.id, state=job.state, error=job.error, result=result_text,
        )
        counter = {
            DONE: self._c_done, FAILED: self._c_failed,
            TIMEOUT: self._c_timeout, CANCELLED: self._c_cancelled,
        }.get(job.state)
        if counter is not None:
            counter.incr()

    # -- admission ---------------------------------------------------------

    def _retry_after_s(self) -> int:
        backlog = self._queue_depth() + len(self._running)
        estimate = backlog * self._avg_job_s / max(1, self.concurrency)
        return max(1, min(120, int(estimate) + 1))

    def _remember(self, job: Job) -> None:
        self._jobs[job.id] = job
        if len(self._jobs) <= _MEMORY_JOBS:
            return
        for job_id, old in list(self._jobs.items()):
            if old.terminal:
                del self._jobs[job_id]
                if len(self._jobs) <= _MEMORY_JOBS:
                    break

    def _submit(self, body: bytes) -> tuple[int, Any, dict[str, str]]:
        if self._draining.is_set():
            return 503, {"error": "service is draining; not admitting jobs"}, {
                "Retry-After": "30"
            }
        try:
            data = json.loads(body.decode("utf-8") or "{}")
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._c_rejected.incr()
            return 400, {"error": "request body must be a JSON object"}, {}
        if not isinstance(data, dict):
            self._c_rejected.incr()
            return 400, {"error": "request body must be a JSON object"}, {}
        kind = data.get("kind")
        spec = data.get("spec", {})
        try:
            normalized, tasks = build_job_tasks(kind, spec)
        except ValueError as error:
            self._c_rejected.incr()
            return 400, {"error": str(error)}, {}
        if self._queue_depth() >= self.capacity:
            self._c_shed.incr()
            retry_after = self._retry_after_s()
            return 429, {
                "error": "job queue is full",
                "queue_depth": self._queue_depth(),
                "capacity": self.capacity,
                "retry_after_s": retry_after,
            }, {"Retry-After": str(retry_after)}

        # The trace id is minted here, at admission — the outermost entry
        # point of the job's life — and journalled with it, so every
        # later attempt (including after a kill -9 resume) shares it.
        job = Job(id=uuid.uuid4().hex[:12], kind=kind, spec=normalized,
                  trace_id=obs.new_trace_id())
        # Admission-time dedup: only a complete hit counts.  If any task
        # misses, the job is queued and the engine looks each task up
        # again by the same rule.
        served = []
        for task in tasks:
            record = cached_record(self.db, task, self.git_rev)
            if record is None:
                break
            served.append(record)
        else:
            # Dedup hit: journal the job already-terminal and reply 200
            # without ever queueing work.
            _, job.result, _ = summarize_records(served)
            self.db.journal_put(
                job_id=job.id, kind=job.kind,
                spec=json.dumps(normalized, sort_keys=True),
                state=DONE, result=json.dumps(job.result, sort_keys=True),
                trace=job.trace_id,
            )
            job.advance(DONE)
            self._remember(job)
            self._c_admitted.incr()
            self._c_dedup.incr()
            self._c_done.incr()
            self._emit_job_span(job, "ok", cache="hit", dedup=True)
            return 200, job.to_dict(), {}
        # Write-ahead: the journal row commits before the client hears
        # "accepted", so a crash after this line can only re-run the job,
        # never forget it.
        self.db.journal_put(
            job_id=job.id, kind=job.kind,
            spec=json.dumps(normalized, sort_keys=True), state=QUEUED,
            trace=job.trace_id,
        )
        self._remember(job)
        self._queue.put_nowait(job)
        self._c_admitted.incr()
        return 202, job.to_dict(), {}

    def _find_job(self, job_id: str) -> Job | None:
        """A job by id: the one in memory, else its journal row's."""
        job = self._jobs.get(job_id)
        if job is None:
            row = self.db.journal_get(job_id)
            if row is not None:
                job = Job.from_row(row)
        return job

    def _cancel(self, job_id: str) -> tuple[int, Any, dict[str, str]]:
        job = self._find_job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        if job.terminal:
            return 409, {
                "error": f"job already terminal ({job.state})",
                "job": job.to_dict(brief=True),
            }, {}
        job.cancel_requested = True
        if job.state == QUEUED:
            job.advance(CANCELLED)
            self._journal_terminal(job)
            self._emit_job_span(job, "cancelled")
            return 200, job.to_dict(), {}
        engine = self._running.get(job_id)
        if engine is not None:
            engine.request_stop()
        return 202, job.to_dict(), {}

    def _job_status(self, job_id: str) -> tuple[int, Any, dict[str, str]]:
        job = self._find_job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        return 200, job.to_dict(), {}

    def _job_list(self) -> tuple[int, Any, dict[str, str]]:
        jobs = [job.to_dict(brief=True) for job in self._jobs.values()]
        by_state: dict[str, int] = {}
        for job in jobs:
            by_state[job["state"]] = by_state.get(job["state"], 0) + 1
        return 200, {
            "jobs": jobs,
            "by_state": by_state,
            "queue_depth": self._queue_depth(),
            "capacity": self.capacity,
            "draining": self._draining.is_set(),
        }, {}

    # -- HTTP plumbing -----------------------------------------------------

    def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, Any, dict[str, str], str]:
        """Dispatch one request; returns (status, payload, headers, ctype)."""
        path = path.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "GET only"}, {}, "application/json"
            return 200, {"status": "ok"}, {}, "application/json"
        if path == "/readyz":
            if method != "GET":
                return 405, {"error": "GET only"}, {}, "application/json"
            if self._draining.is_set():
                return 503, {"status": "draining"}, {}, "application/json"
            return 200, {
                "status": "ready",
                "queue_depth": self._queue_depth(),
                "capacity": self.capacity,
            }, {}, "application/json"
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "GET only"}, {}, "application/json"
            text = prometheus_text(self.registry, namespace="repro_service")
            recorder = obs.active()
            if recorder is not None:
                # Fleet telemetry over the recent span window rides along
                # under its own repro_obs_* namespace.
                text += fleet_prometheus_text(summarize(recorder.recent()))
            return 200, text, {}, "text/plain; version=0.0.4"
        if path == "/debug/spans":
            if method != "GET":
                return 405, {"error": "GET only"}, {}, "application/json"
            recorder = obs.active()
            if recorder is None:
                return 200, {
                    "enabled": False, "active": 0, "recorded": 0,
                    "dropped": 0, "recent": [],
                }, {}, "application/json"
            return 200, {
                "enabled": True,
                "active": recorder.active,
                "recorded": recorder.recorded,
                "dropped": recorder.dropped,
                "recent": recorder.recent(200),
            }, {}, "application/json"
        if path == "/jobs":
            if method == "POST":
                status, payload, headers = self._submit(body)
                return status, payload, headers, "application/json"
            if method == "GET":
                status, payload, headers = self._job_list()
                return status, payload, headers, "application/json"
            return 405, {"error": "GET or POST"}, {}, "application/json"
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            if method == "GET":
                status, payload, headers = self._job_status(job_id)
                return status, payload, headers, "application/json"
            if method == "DELETE":
                status, payload, headers = self._cancel(job_id)
                return status, payload, headers, "application/json"
            return 405, {"error": "GET or DELETE"}, {}, "application/json"
        return 404, {"error": f"no route for {path!r}"}, {}, "application/json"

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._c_requests.incr()
        status, payload, headers, ctype = (
            400, {"error": "malformed request"}, {}, "application/json"
        )
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=_IO_TIMEOUT_S
            )
            parts = request_line.decode("latin-1").split()
            if len(parts) >= 2:
                method, path = parts[0].upper(), parts[1]
                req_headers: dict[str, str] = {}
                for _ in range(100):
                    line = await asyncio.wait_for(
                        reader.readline(), timeout=_IO_TIMEOUT_S
                    )
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    req_headers[name.strip().lower()] = value.strip()
                try:
                    length = int(req_headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if length < 0 or length > _MAX_BODY:
                    status, payload = 413, {"error": "body too large"}
                else:
                    body = b""
                    if length:
                        body = await asyncio.wait_for(
                            reader.readexactly(length), timeout=_IO_TIMEOUT_S
                        )
                    try:
                        status, payload, headers, ctype = self._route(
                            method, path, body
                        )
                    except Exception as exc:  # noqa: BLE001 - keep serving
                        status, payload = 500, {
                            "error": f"{type(exc).__name__}: {exc}"
                        }
        except (
            asyncio.TimeoutError, asyncio.IncompleteReadError,
            ConnectionError, UnicodeDecodeError,
        ):
            pass
        try:
            if isinstance(payload, str):
                raw = payload.encode("utf-8")
            else:
                raw = (json.dumps(payload, sort_keys=True) + "\n").encode()
            reason = _REASONS.get(status, "Unknown")
            head_lines = [
                f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {ctype}",
                f"Content-Length: {len(raw)}",
                "Connection: close",
            ]
            head_lines += [f"{k}: {v}" for k, v in headers.items()]
            writer.write(
                ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1") + raw
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- reporting ---------------------------------------------------------

    def summary_line(self) -> str:
        """One-line service tally for CLI output (and CI grepping)."""
        snap = self.registry.snapshot()
        parts = [
            f"service: {int(snap['admitted'])} admitted, "
            f"{int(snap['done'])} done, {int(snap['failed'])} failed, "
            f"{int(snap['timeout'])} timeout, "
            f"{int(snap['cancelled'])} cancelled"
        ]
        if snap["dedup_hits"]:
            parts.append(f"{int(snap['dedup_hits'])} dedup-served")
        if snap["resumed"]:
            parts.append(f"{int(snap['resumed'])} resumed from journal")
        if snap["shed"]:
            parts.append(f"{int(snap['shed'])} shed (queue full)")
        if snap["drained"]:
            parts.append(f"{int(snap['drained'])} checkpointed at drain")
        return "; ".join(parts)

