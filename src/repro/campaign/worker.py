"""Campaign worker process: execute tasks, heartbeat, report back.

Each worker is one OS process running :func:`worker_main`: it receives
``(name, fn, kwargs, timeout, span_ctx)`` messages over its pipe (the
fifth element carries the parent span identity when fleet tracing is on
— see :mod:`repro.obs` — or ``None``), executes them under a SIGALRM
timeout (workers run tasks on their main thread, where the alarm
interrupts even tight pure-Python loops), and sends a structured result
record back.  A daemon heartbeat thread stamps a shared timestamp a few
times per second; the coordinator's watchdog treats a stale stamp or a
dead process as a crashed worker and retries the task elsewhere.

Results are pre-pickled inside the worker so an unpicklable result
object degrades to a structured note instead of corrupting the pipe.

Test hook: setting ``REPRO_CAMPAIGN_TEST_CRASH`` to ``NAME=MARKER``
makes the first worker to pick up task ``NAME`` die with ``os._exit``
after creating the ``MARKER`` file (subsequent attempts run normally).
This simulates a segfault/OOM kill deterministically and is used by the
crash-isolation tests and CI; it has no effect when the variable is
unset.
"""

from __future__ import annotations

import inspect
import os
import pickle
import signal
import threading
import time
import traceback
from multiprocessing.connection import Connection
from typing import Any, Callable

from repro import obs
from repro.campaign.records import STATUS_FAILED, STATUS_OK, STATUS_TIMEOUT

#: Seconds between heartbeat stamps.
HEARTBEAT_INTERVAL = 0.2

#: Environment variable naming a task to hard-kill once (``NAME=MARKER``).
TEST_CRASH_ENV = "REPRO_CAMPAIGN_TEST_CRASH"

#: Exit code of the injected test crash, distinguishable from real faults.
TEST_CRASH_EXIT = 86


def maybe_test_crash(task_name: str) -> None:
    """Die abruptly if the test-crash hook targets this task (once)."""
    hook = os.environ.get(TEST_CRASH_ENV, "")
    target, sep, marker = hook.partition("=")
    if not sep or target != task_name or not marker:
        return
    if os.path.exists(marker):
        return  # already crashed once; let the retry succeed
    with open(marker, "w", encoding="utf-8") as handle:
        handle.write(f"crashed task {task_name}\n")
    os._exit(TEST_CRASH_EXIT)


class TaskTimeout(Exception):
    """A task exceeded its wall-clock budget."""


def _accepts_seed(fn: Callable[..., Any]) -> bool:
    """Can ``fn`` be handed a ``seed=`` keyword for a reseeded retry?"""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    for param in params.values():
        if param.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if param.name == "seed" and param.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


#: Longest wait in seconds: ``signal.setitimer`` overflows the platform's
#: ``time_t`` above this on some hosts (a 32-bit signed count of seconds
#: is the portable bound), so the engine, the service and the CLI refuse
#: a longer task timeout, or retry backoff, before any task runs.
MAX_TIMEOUT_S = 2**31 - 1


def check_seconds(name: str, value: float, *, positive: bool = True) -> float:
    """``value`` if it is a finite wait in seconds up to
    :data:`MAX_TIMEOUT_S` that is positive (or, unless ``positive``,
    zero); otherwise ``ValueError`` naming ``name``.  ``nan`` and the
    infinities are refused: ``setitimer`` cannot arm them, and an
    infinite retry backoff never schedules the retry."""
    if not (0 < value if positive else 0 <= value) or not value <= MAX_TIMEOUT_S:
        low = "(0" if positive else "[0"
        raise ValueError(
            f"{name} must be in {low}, {MAX_TIMEOUT_S}] seconds, got {value!r}"
        )
    return value


def _call_with_timeout(
    fn: Callable[..., Any], kwargs: dict[str, Any], timeout: float | None
) -> Any:
    """Run ``fn(**kwargs)``, raising :class:`TaskTimeout` on expiry.

    The budget is a SIGALRM, which only fires on the main thread.  A
    worker runs every task there; the coordinator runs a timed attempt
    itself only for a task it cannot pickle, and off the main thread it
    refuses instead of starting a thread it could never stop.  Without
    SIGALRM the task runs unbounded and the coordinator's watchdog
    deadline is the only limit.
    """
    if timeout is None or timeout <= 0 or not hasattr(signal, "SIGALRM"):
        return fn(**kwargs)
    if threading.current_thread() is not threading.main_thread():
        raise RuntimeError(
            f"cannot enforce a {timeout:g}s timeout off the main thread: "
            "SIGALRM only fires on the main thread, and this task cannot be "
            "pickled to a worker process (use a module-level function)"
        )

    def _on_alarm(signum, frame):  # noqa: ARG001 - signal signature
        raise TaskTimeout(f"timed out after {timeout:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return fn(**kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _heartbeat_loop(beat, stop: threading.Event) -> None:
    while not stop.is_set():
        beat.value = time.time()
        stop.wait(HEARTBEAT_INTERVAL)


def execute_task(
    name: str, fn: Any, kwargs: dict[str, Any], timeout: float | None
) -> dict[str, Any]:
    """Run one task attempt and summarise it as a plain record dict."""
    record: dict[str, Any] = {
        "name": name,
        "status": STATUS_FAILED,
        "error": "",
        "detail": "",
        "elapsed": 0.0,
        "result": None,
    }
    started = time.monotonic()
    try:
        record["result"] = _call_with_timeout(fn, dict(kwargs), timeout)
        record["status"] = STATUS_OK
    except TaskTimeout as error:
        record["status"] = STATUS_TIMEOUT
        record["error"] = str(error)
    except KeyboardInterrupt:
        raise
    except BaseException as error:  # crash isolation: report, don't die
        record["error"] = f"{type(error).__name__}: {error}"
        record["detail"] = "".join(traceback.format_exception(error))[-2000:]
    record["elapsed"] = time.monotonic() - started
    return record


def run_attempt(
    name: str, fn: Any, kwargs: dict[str, Any], timeout: float | None,
    parent: Any, attempt: int,
) -> dict[str, Any]:
    """Run one attempt inside a ``task.attempt`` span under ``parent``.

    Shared by the worker loop and the coordinator's in-process attempts,
    so both classify outcomes (ok / timeout / failed) and shape their
    spans identically.  With tracing off the span is the inert
    ``NULL_SPAN``.
    """
    span = obs.start_span(
        "task.attempt", kind="task.attempt", parent=parent,
        attrs={"task": name, "attempt": attempt, "pid": os.getpid()},
    )
    with span:
        record = execute_task(name, fn, kwargs, timeout)
        span.outcome = record["status"]
        if record["error"]:
            span.set("error", record["error"][:200])
    return record


def execute_traced(
    name: str, fn: Any, kwargs: dict[str, Any], timeout: float | None,
    span_ctx: dict[str, Any] | None,
) -> dict[str, Any]:
    """Run one attempt inside a worker-local span recorder.

    The parent span lives in the coordinator process; ``span_ctx``
    carries its ``{"trace", "span", "attempt"}`` identity across the
    pipe.  Finished span dicts ride back on ``record["spans"]`` and are
    adopted by the coordinator's recorder — a crashed worker simply
    never ships them, and the coordinator synthesises the attempt span
    from its own clocks instead.
    """
    parent = obs.SpanContext.from_dict(span_ctx)
    if parent is None:
        return execute_task(name, fn, kwargs, timeout)
    recorder = obs.SpanRecorder()
    obs.enable(recorder)
    try:
        record = run_attempt(name, fn, kwargs, timeout, parent,
                             int((span_ctx or {}).get("attempt", 1)))
    finally:
        obs.disable()
    record["spans"] = recorder.drain()
    return record


def worker_main(conn: Connection, beat) -> None:
    """Worker process entry point: loop over tasks until told to stop."""
    # The worker was forked mid-run: drop any recorder (and buffered
    # spans) inherited from the coordinator so nothing is double-counted.
    obs.disable()
    stop = threading.Event()
    threading.Thread(
        target=_heartbeat_loop, args=(beat, stop), daemon=True,
        name="campaign-heartbeat",
    ).start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if message is None:  # orderly shutdown
                break
            name, fn, kwargs, timeout, span_ctx = message
            maybe_test_crash(name)
            record = execute_traced(name, fn, kwargs, timeout, span_ctx)
            result = record.pop("result")
            try:
                record["result_bytes"] = pickle.dumps(result)
            except Exception as error:  # noqa: BLE001 - degrade, don't crash
                record["result_bytes"] = None
                note = f"result not transferable: {type(error).__name__}: {error}"
                record["detail"] = (record["detail"] + "\n" + note).strip()
            conn.send(record)
    finally:
        stop.set()
        conn.close()
