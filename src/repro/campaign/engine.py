"""Crash-isolated sharded campaign engine.

The coordinator runs a batch of :class:`CampaignTask` specs through one
scheduling loop and aggregates the outcomes into
:class:`~repro.campaign.records.TaskRecord` /
:class:`~repro.campaign.records.BatchReport`.  Every attempt is placed
by one rule: it runs in the coordinator process only when ``jobs == 1``
and the engine has no timeout (there is nothing to isolate, so nothing is
forked), or when the task cannot be pickled.  Every other attempt goes
to a worker process (:mod:`repro.campaign.worker`), so a timeout always
means SIGALRM inside a worker, backed by the watchdog's kill.

Guarantees:

* **Determinism** — task identity (name, function, kwargs) fully
  determines the work; nothing about placement, shard assignment or
  completion order feeds back into a task, so a ``--jobs 1`` run and an
  ``--jobs N`` run produce identical result payloads.  Retry ``k`` of a
  task that accepts ``seed=`` runs with ``seed = reseed_base + k``.
* **Crash isolation** — a worker that exits (segfault, OOM kill,
  ``os._exit``), raises, or stops heartbeating is reaped by the
  coordinator's watchdog pass; its task is retried with full-jitter
  exponential backoff (and a fresh seed, when the task accepts one) on a
  fresh worker.  Exhausted retries degrade to a structured ``failed`` /
  ``timeout`` record — a batch is never lost wholesale.
* **Result caching** — with a :class:`~repro.campaign.db.CampaignDB`
  attached, a task whose config hash and git revision match a stored
  successful run whose payload decodes is served from the DB without
  executing anything (:func:`cached_record`, the one cache-hit rule), and
  every executed task's terminal outcome is recorded as it lands, so an
  interrupted batch re-run against the same DB executes only what never
  finished ``ok``.

Worker/cache/retry activity is tallied in a standard
:class:`~repro.trace.counters.CounterRegistry` (``cache.hits``,
``workers.crashed``, ...) so the existing Prometheus/JSON exporters
work on campaigns unchanged.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import random
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable

from repro import obs
from repro.campaign.db import CampaignDB, config_hash
from repro.campaign.payload import PayloadError, decode_payload, encode_payload
from repro.campaign.records import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    STATUS_TIMEOUT,
    BatchReport,
    TaskRecord,
)
from repro.campaign.worker import (
    _accepts_seed,
    check_seconds,
    run_attempt,
    worker_main,
)
from repro.trace.counters import CounterRegistry
from repro.utils.provenance import git_rev as _git_rev

#: Coordinator poll tick (seconds): watchdog + scheduler cadence.
_TICK = 0.05

#: Grace multiplier for the watchdog's hard deadline over the task
#: timeout: the worker's own SIGALRM should fire first; the watchdog
#: kill is the backstop for workers stuck where the alarm cannot reach.
_DEADLINE_SLACK = 1.5
_DEADLINE_GRACE = 5.0


@dataclass(frozen=True)
class CampaignTask:
    """One unit of campaign work: a picklable callable plus arguments.

    ``fn`` must be an importable module-level callable for the task to
    ship to a worker process; anything else (lambdas, closures) still
    runs, but in the coordinator as a graceful degradation.
    """

    name: str
    fn: Callable[..., Any]
    kwargs: dict[str, Any] = field(default_factory=dict)

    @functools.cached_property
    def config_hash(self) -> str:
        # Computed once: the cache lookup, the task span and the DB
        # record all key on it.
        return config_hash(self.name, self.fn, self.kwargs)


def _fn_resolvable(fn: Callable[..., Any]) -> bool:
    """Is ``fn`` importable as a stable module-level name?

    Cache identity hashes the function's ``module:qualname``; closures
    and lambdas defined in different places can share a qualname, so a
    function that does not resolve back to the same object is excluded
    from the campaign DB entirely (it still runs — it just never serves
    from or stores to the cache).
    """
    mod_name = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if not mod_name or not qualname or "<" in qualname:
        return False
    obj: Any = sys.modules.get(mod_name)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is fn


def cached_record(
    db: CampaignDB, task: CampaignTask, git_rev: str
) -> TaskRecord | None:
    """The record ``db`` serves for ``task`` at ``git_rev``, if any.

    ``None`` when the task's function does not resolve, no successful
    run with this config hash and revision is stored, or the stored
    payload does not decode: a corrupt or stale row is a miss, never a
    bad result.
    """
    if not _fn_resolvable(task.fn):
        return None
    row = db.lookup(task.config_hash, git_rev)
    if row is None:
        return None
    try:
        result = decode_payload(row.payload)
    except PayloadError:
        return None
    return TaskRecord(
        name=task.name,
        status=STATUS_OK,
        attempts=row.attempts,
        elapsed=row.elapsed,
        seed=row.seed,
        cached=True,
        result=result,
        payload=row.payload,
    )


class _TaskState:
    """Coordinator-side bookkeeping for one in-flight task."""

    __slots__ = (
        "task", "attempts", "eligible_at", "started", "last_status",
        "last_error", "last_detail", "seed", "span", "queued_wall",
        "started_wall",
    )

    def __init__(self, task: CampaignTask) -> None:
        self.task = task
        self.attempts = 0
        self.eligible_at = 0.0
        self.started: float | None = None
        self.last_status = STATUS_FAILED
        self.last_error = ""
        self.last_detail = ""
        self.seed: int | None = None
        # Fleet tracing + queue-wait bookkeeping (wall clock, not the
        # monotonic clock `started` uses for elapsed).
        self.span: Any = obs.NULL_SPAN
        self.queued_wall = time.time()
        self.started_wall: float | None = None

    def attempt_kwargs(self, reseed_base: int | None) -> dict[str, Any]:
        kwargs = dict(self.task.kwargs)
        if (
            self.attempts > 0
            and reseed_base is not None
            and _accepts_seed(self.task.fn)
        ):
            # Retry under fresh, placement-independent randomness.
            self.seed = (reseed_base or 0) + self.attempts
            kwargs.setdefault("seed", self.seed)
        return kwargs


class _Worker:
    """One worker process plus its pipe and heartbeat cell."""

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.beat = ctx.Value("d", time.time(), lock=False)
        self.proc = ctx.Process(
            target=worker_main, args=(child_conn, self.beat), daemon=True,
            name="campaign-worker",
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        self.state: _TaskState | None = None
        self.deadline: float | None = None
        self.assigned_wall: float | None = None

    @property
    def busy(self) -> bool:
        return self.state is not None

    def kill(self) -> None:
        try:
            self.proc.kill()
        except (OSError, ValueError):
            pass
        self.proc.join(timeout=2.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Orderly shutdown; falls back to kill if the worker lingers."""
        try:
            self.conn.send(None)
        except (OSError, ValueError, BrokenPipeError):
            pass
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


class CampaignEngine:
    """Run a batch of :class:`CampaignTask` in process or across workers."""

    def __init__(
        self,
        *,
        jobs: int = 1,
        timeout: float | None = None,
        retries: int = 0,
        backoff: float = 1.0,
        reseed_base: int | None = None,
        db: CampaignDB | str | os.PathLike[str] | None = None,
        use_cache: bool = True,
        fail_fast: bool = False,
        heartbeat_timeout: float = 30.0,
        git_rev: str | None = None,
        span_parent: "obs.SpanContext | None" = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be a positive worker count")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        check_seconds("backoff", backoff, positive=False)
        if timeout is not None:
            check_seconds("timeout", timeout)
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be positive")
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.reseed_base = reseed_base
        self.db = CampaignDB(db) if isinstance(db, (str, os.PathLike)) else db
        self.use_cache = use_cache
        self.fail_fast = fail_fast
        self.heartbeat_timeout = heartbeat_timeout
        self.git_rev = git_rev if git_rev is not None else _git_rev()
        # Explicit parent span context for the campaign.run span: the
        # service runs engines on executor threads where the caller's
        # contextvar does not propagate, so it hands the job span here.
        self.span_parent = span_parent
        self._queue_waits: list[float] = []
        # Cooperative shutdown: request_stop() (drain: in-flight tasks
        # finish, pending tasks become cancelled records) and the
        # coordinator's own SIGINT/SIGTERM handler (interrupt: in-flight
        # work is abandoned too).  Both are sticky for the engine's
        # lifetime; an engine runs one campaign.
        self._stop_requested = False
        self._interrupted = False
        # Per-run state: landed records, the streaming callback, the
        # fail-fast latch, and whether the coordinator is inside an
        # attempt of its own (the signal handler must interrupt that).
        self._results: dict[str, TaskRecord] = {}
        self._on_record: Callable[[TaskRecord], None] | None = None
        self._abort = False
        self._in_process = False
        # Retry backoff uses full jitter (uniform in [0, cap]) so many
        # shards failing at once do not retry in lockstep; seeding from
        # reseed_base keeps test campaigns reproducible.
        self._backoff_rng = random.Random(reseed_base)

        self.registry = CounterRegistry()
        self._c_tasks = self.registry.counter("tasks")
        self._c_executed = self.registry.counter("executed")
        self._c_ok = self.registry.counter("ok")
        self._c_failed = self.registry.counter("failed")
        self._c_timeout = self.registry.counter("timeout")
        self._c_skipped = self.registry.counter("skipped")
        self._c_retries = self.registry.counter("retries")
        self._c_cancelled = self.registry.counter("cancelled")
        self._c_inline = self.registry.counter("inline_fallbacks")
        cache_reg = CounterRegistry()
        self.registry.mount("cache", cache_reg)
        self._c_cache_hits = cache_reg.counter("hits")
        self._c_cache_misses = cache_reg.counter("misses")
        self._c_cache_stores = cache_reg.counter("stores")
        self._c_uncacheable = cache_reg.counter("uncacheable")
        worker_reg = CounterRegistry()
        self.registry.mount("workers", worker_reg)
        self._c_spawned = worker_reg.counter("spawned")
        self._c_crashed = worker_reg.counter("crashed")
        self._c_hung = worker_reg.counter("hung")

    # -- public API --------------------------------------------------------

    def run(
        self,
        tasks: list[CampaignTask],
        *,
        on_record: Callable[[TaskRecord], None] | None = None,
    ) -> BatchReport:
        """Run every task; ``on_record`` streams outcomes as they land."""
        names = [task.name for task in tasks]
        if len(set(names)) != len(names):
            raise ValueError("task names must be unique within a campaign")
        self._c_tasks.incr(len(tasks))
        self._results = {}
        self._on_record = on_record
        run_span = obs.start_span(
            "campaign.run", kind="campaign.run", parent=self.span_parent,
            attrs={"jobs": self.jobs, "tasks": len(tasks)},
        )
        with run_span:
            to_run: list[CampaignTask] = []
            tracing = obs.active() is not None
            for task in tasks:
                cached = self._cache_lookup(task)
                if cached is None:
                    to_run.append(task)
                    continue
                self._land(cached, task)
                if tracing:
                    obs.start_span(
                        "campaign.task", kind="campaign.task",
                        attrs={"task": task.name, "cache": "hit"},
                    ).end(STATUS_OK)
            if to_run:
                self._execute(to_run)

            report = BatchReport()
            report.records = [self._results[name] for name in names]
            run_span.set_many({
                "executed": int(self._c_executed.value),
                "cached": int(self._c_cache_hits.value),
                "failed": int(self._c_failed.value + self._c_timeout.value),
                "retries": int(self._c_retries.value),
            })
            return report

    def summary_line(self) -> str:
        """One-line campaign tally for CLI output (and CI grepping)."""
        total = int(self._c_tasks.value)
        cached = int(self._c_cache_hits.value)
        executed = int(self._c_executed.value)
        failed = int(self._c_failed.value + self._c_timeout.value)
        parts = [
            f"campaign: {total} task(s) — {executed} executed, "
            f"{cached} cached, {failed} failed/timeout, "
            f"{int(self._c_retries.value)} retried (jobs={self.jobs})"
        ]
        crashes = int(self._c_crashed.value + self._c_hung.value)
        if crashes:
            parts.append(f"{crashes} worker crash(es) reaped")
        if self._queue_waits:
            avg = sum(self._queue_waits) / len(self._queue_waits)
            parts.append(
                f"queue-wait avg {avg:.2f}s max {max(self._queue_waits):.2f}s"
            )
        if total and executed == 0 and failed == 0 and cached == total:
            parts.append(f"all {total} task(s) served from campaign cache")
        return "; ".join(parts)

    def request_stop(self) -> None:
        """Ask a running campaign to drain: finish in-flight tasks, turn
        every still-pending task into a ``cancelled`` record, and return
        normally.  Safe to call from any thread (the leakcheck service
        calls it from its event loop during graceful shutdown)."""
        self._stop_requested = True

    # -- shared plumbing ---------------------------------------------------

    def _retry_delay(self, attempts: int) -> float:
        """Full-jitter exponential backoff delay before retry ``attempts``.

        Uniform in ``[0, backoff * 2**(attempts-1)]``: the cap preserves
        the exponential envelope while the jitter decorrelates retries,
        so a wave of shards failing together (worker host hiccup, shared
        resource exhaustion) does not re-execute in lockstep.
        """
        if self.backoff <= 0:
            return 0.0
        cap = self.backoff * (2 ** max(0, attempts - 1))
        return self._backoff_rng.uniform(0.0, cap)

    def _cache_lookup(self, task: CampaignTask) -> TaskRecord | None:
        if self.db is None or not self.use_cache:
            return None
        record = cached_record(self.db, task, self.git_rev)
        if record is not None:
            self._c_cache_hits.incr()
        elif _fn_resolvable(task.fn):
            self._c_cache_misses.incr()
        else:
            self._c_uncacheable.incr()
        return record

    def _land(self, record: TaskRecord, task: CampaignTask) -> None:
        """Finalize one record: counters, campaign DB, fail-fast, callback."""
        self._results[record.name] = record
        if record.queued_at and record.started_at:
            self._queue_waits.append(record.queue_wait)
        if record.status == STATUS_SKIPPED:
            self._c_skipped.incr()
        elif not record.cached:
            self._c_executed.incr()
            self._c_retries.incr(max(0, record.attempts - 1))
            if record.status == STATUS_OK:
                self._c_ok.incr()
            elif record.status == STATUS_TIMEOUT:
                self._c_timeout.incr()
            else:
                self._c_failed.incr()
            self._persist(record, task)
            if self.fail_fast and record.status != STATUS_OK:
                self._abort = True
        if self._on_record is not None:
            self._on_record(record)

    def _persist(self, record: TaskRecord, task: CampaignTask) -> None:
        """Record an executed task's outcome in the campaign DB."""
        if self.db is None or not _fn_resolvable(task.fn):
            return
        if record.status == STATUS_OK:
            try:
                record.payload = encode_payload(record.result)
            except PayloadError as error:
                note = f"payload not cacheable: {error}"
                record.detail = (record.detail + "\n" + note).strip()
        self.db.record_run(
            config_hash=task.config_hash,
            git_rev=self.git_rev,
            name=record.name,
            seed=record.seed,
            status=record.status,
            attempts=record.attempts,
            elapsed=record.elapsed,
            error=record.error,
            detail=record.detail,
            payload=record.payload,
        )
        if record.payload is not None:
            self._c_cache_stores.incr()

    def _drop(self, state: _TaskState, error: str, outcome: str) -> None:
        """Land a task that will not run (again) as a skipped record."""
        if outcome == "cancelled":
            self._c_cancelled.incr()
        self._land(
            TaskRecord(name=state.task.name, status=STATUS_SKIPPED,
                       error=error),
            state.task,
        )
        state.span.end(outcome)

    # -- the scheduling loop -----------------------------------------------

    @staticmethod
    def _mp_context():
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def _execute(self, tasks: list[CampaignTask]) -> None:
        tracing = obs.active() is not None
        pending: list[_TaskState] = []
        for task in tasks:
            state = _TaskState(task)
            if tracing:
                state.span = obs.start_span(
                    "campaign.task", kind="campaign.task",
                    attrs={"task": task.name,
                           "config_hash": task.config_hash[:12]},
                )
            pending.append(state)
        workers: list[_Worker] = []
        self._abort = False
        # Ctrl-C / SIGTERM must reap workers and land records instead of
        # dying mid-batch and leaking orphans.  The handler only flips
        # flags and the loop below cleans up, unless the coordinator is
        # inside an attempt of its own: then it raises at once, so the
        # interrupt never waits for the task.  KeyboardInterrupt is
        # re-raised at the end so callers see the usual interrupt exit.
        # Handlers can only be installed on the main thread; engines
        # running inside service executor threads rely on request_stop().
        installed: list[tuple[int, Any]] = []
        if threading.current_thread() is threading.main_thread():
            def _on_signal(signum: int, frame: Any) -> None:  # noqa: ARG001
                self._interrupted = True
                self._stop_requested = True
                if self._in_process:
                    raise KeyboardInterrupt

            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    installed.append((signum, signal.signal(signum, _on_signal)))
                except (ValueError, OSError):  # pragma: no cover
                    pass
        try:
            while pending or any(w.busy for w in workers):
                now = time.monotonic()
                self._watchdog_pass(workers, pending, now)
                if self._stop_requested:
                    why = ("interrupted" if self._interrupted
                           else "drain requested")
                    for state in pending:
                        self._drop(state, f"cancelled ({why})", "cancelled")
                    pending.clear()
                    if self._interrupted:
                        # Interrupt also abandons in-flight work: kill
                        # the workers and land cancelled records so the
                        # DB reflects exactly what completed.
                        for worker in workers:
                            if worker.state is not None:
                                self._drop(worker.state, f"cancelled ({why})",
                                           "cancelled")
                            worker.kill()
                        workers.clear()
                        break
                if self._abort and pending:
                    # Fail-fast: nothing new is scheduled; in-flight
                    # tasks finish, the rest become skipped records.
                    for state in pending:
                        self._drop(state, "skipped (fail-fast)",
                                   STATUS_SKIPPED)
                    pending.clear()
                self._assign(workers, pending, now)
                busy_conns = [w.conn for w in workers if w.busy]
                if busy_conns:
                    try:
                        ready = mp_connection.wait(busy_conns, timeout=_TICK)
                    except OSError:
                        ready = []
                    for conn in ready:
                        worker = next(
                            (w for w in workers if w.conn is conn), None
                        )
                        if worker is not None:
                            self._collect(worker, pending)
                elif pending:
                    # Nothing in flight: wait out the earliest retry
                    # backoff, a tick at a time so a drain is seen.
                    delay = (min(s.eligible_at for s in pending)
                             - time.monotonic())
                    if delay > 0:
                        time.sleep(min(delay, _TICK))
        finally:
            for worker in workers:
                if worker.busy or worker.proc.is_alive():
                    worker.stop()
            for signum, previous in installed:
                try:
                    signal.signal(signum, previous)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        if self._interrupted:
            # Workers reaped, records landed — now surface the
            # interrupt the way callers expect.
            raise KeyboardInterrupt

    def _watchdog_pass(
        self, workers: list[_Worker], pending: list[_TaskState], now: float
    ) -> None:
        """Reap dead or hung workers; requeue or finalize their tasks."""
        for worker in list(workers):
            if not worker.busy:
                if not worker.proc.is_alive():
                    workers.remove(worker)
                continue
            dead = not worker.proc.is_alive()
            hung = (time.time() - worker.beat.value) > self.heartbeat_timeout
            over_deadline = (
                worker.deadline is not None and now > worker.deadline
            )
            if not (dead or hung or over_deadline):
                continue
            state = worker.state
            worker.state = None
            if dead:
                code = worker.proc.exitcode
                self._c_crashed.incr()
                state.last_status = STATUS_FAILED
                state.last_error = f"worker crashed (exit code {code})"
                state.last_detail = (
                    "worker process died mid-task; killed by signal "
                    f"{-code}" if isinstance(code, int) and code < 0
                    else f"worker process exited with code {code} mid-task"
                )
            else:
                self._c_hung.incr()
                why = ("stopped heartbeating" if hung
                       else "exceeded the watchdog deadline")
                state.last_status = STATUS_TIMEOUT
                state.last_error = f"worker {why}; killed by watchdog"
                state.last_detail = ""
            if state.span is not obs.NULL_SPAN:
                # A reaped worker never ships its own attempt span, so
                # the coordinator synthesises one from its clocks — the
                # parent task span still closes with a full attempt
                # history even when the child process is gone.
                obs.start_span(
                    "task.attempt", kind="task.attempt", parent=state.span,
                    start_at=worker.assigned_wall or time.time(),
                    attrs={"task": state.task.name,
                           "attempt": state.attempts,
                           "worker_pid": worker.proc.pid,
                           "synthesized": True,
                           "error": state.last_error},
                ).end(state.last_status)
            worker.kill()
            workers.remove(worker)
            state.eligible_at = now + self._retry_delay(state.attempts)
            pending.append(state)

    def _assign(
        self, workers: list[_Worker], pending: list[_TaskState], now: float
    ) -> None:
        """Start every due attempt, in process or on a worker (spawning
        up to ``jobs``), until a drain or fail-fast stops scheduling."""
        for state in list(pending):
            if self._stop_requested or self._abort:
                return
            # Retries exhausted -> terminal failed/timeout record.
            if state.attempts > self.retries:
                pending.remove(state)
                self._land(self._finalize_state(state), state.task)
                continue
            if state.eligible_at > now:
                continue
            worker = next(
                (w for w in workers if not w.busy and w.proc.is_alive()), None
            )
            if worker is None and len(workers) >= self.jobs:
                break  # every slot busy; wait for a completion
            pending.remove(state)
            if state.started is None:
                # First attempt ends the queue-wait phase.
                state.started = time.monotonic()
                state.started_wall = time.time()
                if state.span is not obs.NULL_SPAN:
                    obs.start_span(
                        "task.queue", kind="task.queue", parent=state.span,
                        start_at=state.queued_wall,
                        attrs={"task": state.task.name},
                    ).end(STATUS_OK, at=state.started_wall)
            kwargs = state.attempt_kwargs(self.reseed_base)
            state.attempts += 1
            message = self._worker_message(state, kwargs)
            if message is None:
                self._attempt_in_process(state, kwargs, pending)
                continue
            if worker is None:
                worker = _Worker(self._mp_context())
                self._c_spawned.incr()
                workers.append(worker)
            try:
                worker.conn.send_bytes(message)
            except (OSError, ValueError):
                # The worker died between the liveness check and the
                # send: undo the attempt, requeue, and reap the corpse.
                state.attempts -= 1
                pending.append(state)
                worker.kill()
                workers.remove(worker)
                continue
            worker.state = state
            worker.assigned_wall = time.time()
            worker.deadline = (
                time.monotonic() + self.timeout * _DEADLINE_SLACK
                + _DEADLINE_GRACE
                if self.timeout is not None and self.timeout > 0 else None
            )

    def _worker_message(
        self, state: _TaskState, kwargs: dict[str, Any]
    ) -> memoryview | None:
        """The pickled attempt for a worker, or ``None`` to run it here.

        An attempt stays in the coordinator only when ``jobs == 1`` and
        the engine has no timeout, or when the task cannot be pickled.
        """
        if self.jobs == 1 and self.timeout is None:
            return None
        span_ctx = None
        if state.span is not obs.NULL_SPAN:
            span_ctx = dict(state.span.context.to_dict(),
                            attempt=state.attempts)
        try:
            return ForkingPickler.dumps(
                (state.task.name, state.task.fn, kwargs, self.timeout,
                 span_ctx)
            )
        except (pickle.PicklingError, AttributeError, TypeError):
            self._c_inline.incr()
            return None

    def _attempt_in_process(
        self, state: _TaskState, kwargs: dict[str, Any],
        pending: list[_TaskState],
    ) -> None:
        """Run one attempt in the coordinator itself."""
        try:
            self._in_process = True
            raw = run_attempt(state.task.name, state.task.fn, kwargs,
                              self.timeout, state.span, state.attempts)
        except KeyboardInterrupt:
            # Ctrl-C stopped the attempt: cancel it like any in-flight
            # task; the loop cancels the rest and re-raises.
            self._interrupted = self._stop_requested = True
            self._drop(state, "cancelled (interrupted)", "cancelled")
            return
        finally:
            self._in_process = False
        self._absorb_attempt(state, raw, pending)

    def _collect(self, worker: _Worker, pending: list[_TaskState]) -> None:
        """Receive one worker result and fold it into its task."""
        state = worker.state
        try:
            raw = worker.conn.recv()
        except (EOFError, OSError):
            # Worker died with the result half-sent; treat as a crash.
            # The watchdog pass will reap the process itself.
            return
        worker.state = None
        worker.deadline = None
        worker.assigned_wall = None
        if state is None:
            return
        worker_spans = raw.pop("spans", None)
        if worker_spans:
            recorder = obs.active()
            if recorder is not None:
                recorder.adopt(worker_spans)
        result_bytes = raw.pop("result_bytes", None)
        if result_bytes is not None:
            try:
                raw["result"] = pickle.loads(result_bytes)
            except Exception as error:  # noqa: BLE001 - degrade to failure
                raw["result"] = None
                if raw.get("status") == STATUS_OK:
                    raw["status"] = STATUS_FAILED
                    raw["error"] = (
                        f"result not decodable: {type(error).__name__}"
                    )
        else:
            raw.setdefault("result", None)
        self._absorb_attempt(state, raw, pending)

    def _absorb_attempt(
        self, state: _TaskState, raw: dict[str, Any],
        pending: list[_TaskState],
    ) -> None:
        """Fold one attempt outcome into the task state; finalize if done."""
        state.last_status = raw["status"]
        state.last_error = raw.get("error", "")
        state.last_detail = raw.get("detail", "")
        if (
            raw["status"] == STATUS_OK
            or state.attempts > self.retries
            or self._stop_requested
        ):
            # Done — ok, retries exhausted, or a drain in progress, in
            # which case the task keeps its last real outcome instead of
            # burning retry budget the shutdown will cancel anyway.
            self._land(
                self._finalize_state(state, result=raw.get("result")),
                state.task,
            )
            return
        state.eligible_at = time.monotonic() + self._retry_delay(state.attempts)
        pending.append(state)

    def _finalize_state(
        self, state: _TaskState, *, result: Any = None
    ) -> TaskRecord:
        elapsed = (
            time.monotonic() - state.started
            if state.started is not None else 0.0
        )
        record = TaskRecord(
            name=state.task.name,
            status=state.last_status,
            attempts=state.attempts,
            elapsed=elapsed,
            error=state.last_error if state.last_status != STATUS_OK else "",
            # detail survives even on success: it carries degradation
            # notes (e.g. an untransferable result object).
            detail=state.last_detail,
            seed=state.seed,
            result=result,
        )
        record.queued_at = state.queued_wall
        record.started_at = state.started_wall or 0.0
        record.finished_at = time.time()
        if state.span is not obs.NULL_SPAN:
            state.span.set_many({
                "attempts": state.attempts,
                "queue_wait_s": round(record.queue_wait, 6),
            })
            if record.error:
                state.span.set("error", record.error[:200])
            state.span.end(record.status)
        return record
