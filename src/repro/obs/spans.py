"""Distributed wall-clock span tracing for the repro fleet.

The simulator-side event bus (``repro.trace``) answers "what did the
*machine* do, in simulated cycles".  This module answers the fleet
question: "where did the *wall clock* go" when a campaign fans out over
worker processes, a service job waits in queue, or an oracle evaluation
retries.  It is a deliberately small, stdlib-only tracer:

* A **trace** is one end-to-end unit of work (a service job, a CLI
  subcommand, an engine run).  Its 32-hex ``trace_id`` is minted once at
  the outermost entry point and propagated everywhere below — through
  the service job journal, over the coordinator→worker pipes, into the
  worker process.
* A **span** is one timed phase inside a trace (queue-wait, a task
  attempt, an oracle evaluation) with a 16-hex ``span_id``, an optional
  parent span, an outcome, and structured attributes.

Zero overhead when off: ``start_span`` returns the shared ``NULL_SPAN``
singleton when no recorder is enabled — no allocation, no clock read —
as the simulator hot path allocates nothing for an instrument that is
not attached (``tracer is None``, no ``Txn`` without a profiler; see
docs/observability.md).

Span log schema v1 (one JSON object per line in JSONL exports, written
and read by :func:`repro.trace.write_jsonl` / :func:`repro.trace.read_jsonl`
with ``decode=dict``; one row in the campaign DB ``spans`` table)::

    {"v": 1, "trace": <32 hex>, "span": <16 hex>, "parent": <16 hex>|null,
     "name": str, "kind": str, "start": epoch_s, "end": epoch_s,
     "outcome": "ok"|"failed"|"timeout"|"skipped"|"cancelled"|..., "pid": int,
     "attrs": {str: scalar}}
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import uuid
from collections import deque
from typing import Any, Iterable

SCHEMA_VERSION = 1

#: Required keys of a schema-v1 span dict.
SPAN_KEYS = ("v", "trace", "span", "parent", "name", "kind", "start", "end",
             "outcome", "pid", "attrs")

_CURRENT: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def new_trace_id() -> str:
    """Mint a 32-hex trace id (also used for journal rows with spans off)."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    return uuid.uuid4().hex[:16]


class SpanContext:
    """The propagatable identity of a span: ``(trace_id, span_id)``."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def to_dict(self) -> dict[str, str]:
        return {"trace": self.trace_id, "span": self.span_id}

    @classmethod
    def from_dict(cls, data: dict[str, Any] | None) -> "SpanContext | None":
        if not data:
            return None
        trace = data.get("trace")
        span = data.get("span")
        if not trace or not span:
            return None
        return cls(str(trace), str(span))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SpanContext({self.trace_id[:8]}…/{self.span_id})"


class Span:
    """A live span.  Use as a context manager or call :meth:`end`.

    ``span.outcome`` may be assigned before exit to override the default
    outcome (``"ok"`` on clean exit, ``"failed"`` when an exception
    propagates through the ``with`` block).
    """

    __slots__ = ("context", "parent_id", "name", "kind", "start", "attrs",
                 "pid", "outcome", "_recorder", "_token", "_done")

    def __init__(self, recorder: "SpanRecorder", context: SpanContext,
                 parent_id: str | None, name: str, kind: str,
                 start: float, attrs: dict[str, Any]):
        self.context = context
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.attrs = attrs
        self.pid = os.getpid()
        self.outcome: str | None = None
        self._recorder = recorder
        self._token: contextvars.Token | None = None
        self._done = False

    # -- attributes ----------------------------------------------------
    def set(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def set_many(self, attrs: dict[str, Any]) -> "Span":
        self.attrs.update(attrs)
        return self

    # -- lifecycle -----------------------------------------------------
    def end(self, outcome: str | None = None, *, at: float | None = None) -> None:
        if self._done:
            return
        self._done = True
        final = outcome if outcome is not None else (self.outcome or "ok")
        self._recorder._record(self, final, at if at is not None else time.time())

    def __enter__(self) -> "Span":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            try:
                _CURRENT.reset(self._token)
            except ValueError:
                # Entered in a different context (e.g. executor thread);
                # the var is context-local so there is nothing to unwind.
                pass
            self._token = None
        if exc_type is not None and self.outcome is None:
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}"[:200])
            self.end("failed")
        else:
            self.end()
        return False

    def to_dict(self, end: float, outcome: str) -> dict[str, Any]:
        return {
            "v": SCHEMA_VERSION,
            "trace": self.context.trace_id,
            "span": self.context.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": end,
            "outcome": outcome,
            "pid": self.pid,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared inert span: every operation is a no-op.

    ``start_span`` returns this singleton whenever tracing is off, so
    instrumented call sites cost one function call and no allocation.
    """

    __slots__ = ("outcome",)

    context = SpanContext("0" * 32, "0" * 16)
    parent_id = None
    name = ""
    kind = ""
    start = 0.0
    attrs: dict[str, Any] = {}
    pid = 0

    def __init__(self):
        self.outcome: str | None = None

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def set_many(self, attrs: dict[str, Any]) -> "_NullSpan":
        return self

    def end(self, outcome: str | None = None, *, at: float | None = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Collects finished spans; thread-safe; bounded.

    Two rings hold finished spans, as ``Tracer`` holds events.
    ``capacity`` bounds the spans kept for :meth:`drain` (oldest dropped
    first, tallied in ``dropped``).  ``recent_capacity`` bounds the
    separate window served by ``/debug/spans``, which draining for
    persistence does not empty.
    """

    def __init__(self, capacity: int = 1 << 18, recent_capacity: int = 512):
        self.capacity = capacity
        self.recent_capacity = recent_capacity
        self._lock = threading.Lock()
        self._finished: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._recent: deque[dict[str, Any]] = deque(maxlen=recent_capacity)
        self.dropped = 0
        self.recorded = 0
        self.active = 0

    # -- span creation -------------------------------------------------
    def start_span(self, name: str, *, kind: str | None = None,
                   parent: "Span | SpanContext | None" = None,
                   trace_id: str | None = None,
                   attrs: dict[str, Any] | None = None,
                   start_at: float | None = None) -> Span:
        """Open a span.

        Parent resolution: explicit ``parent`` > the context-local
        current span > none.  With no parent, a fresh trace id is minted
        unless ``trace_id`` forces one (service jobs mint theirs at
        admission and force it here).
        """
        if parent is None and trace_id is None:
            parent = _CURRENT.get()
        if isinstance(parent, _NullSpan):
            parent = None
        if isinstance(parent, Span):
            parent = parent.context
        if parent is not None:
            trace = parent.trace_id
            parent_id = parent.span_id
        else:
            trace = trace_id or new_trace_id()
            parent_id = None
        ctx = SpanContext(trace, new_span_id())
        span = Span(self, ctx, parent_id, name, kind or name,
                    start_at if start_at is not None else time.time(),
                    dict(attrs) if attrs else {})
        with self._lock:
            self.active += 1
        return span

    def _keep(self, data: dict[str, Any]) -> None:
        """Ring one finished span; the caller holds the lock."""
        if len(self._finished) == self.capacity:
            self.dropped += 1
        self._finished.append(data)
        self._recent.append(data)
        self.recorded += 1

    def _record(self, span: Span, outcome: str, end: float) -> None:
        data = span.to_dict(end, outcome)
        with self._lock:
            self.active = max(0, self.active - 1)
            self._keep(data)

    def adopt(self, span_dicts: Iterable[dict[str, Any]]) -> int:
        """Absorb finished span dicts shipped from another process."""
        count = 0
        with self._lock:
            for data in span_dicts:
                if not isinstance(data, dict) or data.get("v") != SCHEMA_VERSION:
                    continue
                self._keep(data)
                count += 1
        return count

    # -- retrieval -----------------------------------------------------
    def drain(self, trace_id: str | None = None) -> list[dict[str, Any]]:
        """Pop finished spans (all, or those of one trace) for persistence."""
        with self._lock:
            if trace_id is None:
                out = list(self._finished)
                self._finished.clear()
                return out
            out = [s for s in self._finished if s["trace"] == trace_id]
            if out:
                self._finished = deque(
                    (s for s in self._finished if s["trace"] != trace_id),
                    maxlen=self.capacity,
                )
            return out

    def recent(self, limit: int = 0) -> list[dict[str, Any]]:
        """The most recent ``limit`` finished spans (all when 0)."""
        with self._lock:
            spans = list(self._recent)
        return spans[-limit:] if limit else spans


# --------------------------------------------------------------------------
# Module-level switch (the zero-overhead-when-off gate)
# --------------------------------------------------------------------------

_RECORDER: SpanRecorder | None = None


def enable(recorder: SpanRecorder | None = None) -> SpanRecorder:
    """Install (or reuse) the process-global recorder and return it."""
    global _RECORDER
    if recorder is not None:
        _RECORDER = recorder
    elif _RECORDER is None:
        _RECORDER = SpanRecorder()
    return _RECORDER


def disable() -> None:
    """Drop the global recorder; ``start_span`` reverts to ``NULL_SPAN``."""
    global _RECORDER
    _RECORDER = None
    _CURRENT.set(None)


def active() -> SpanRecorder | None:
    return _RECORDER


def start_span(name: str, **kwargs: Any) -> Span | _NullSpan:
    """The one instrumentation entry point for fleet code.

    When tracing is off this is a single global read returning the
    shared inert singleton — no allocation on the hot path.
    """
    rec = _RECORDER
    if rec is None:
        return NULL_SPAN
    return rec.start_span(name, **kwargs)


# --------------------------------------------------------------------------
# Export / validation (span logs are JSONL through ``repro.trace.export``)
# --------------------------------------------------------------------------

def spans_to_chrome(spans: list[dict[str, Any]]) -> dict[str, Any]:
    """Render spans as Chrome ``trace_event`` complete ('X') slices.

    Timestamps are normalised so the earliest span starts at 0 µs; each
    OS process becomes a Chrome process track, so coordinator, workers
    and the service lane are visually separate while slices within one
    process nest by time containment.
    """
    events: list[dict[str, Any]] = []
    if not spans:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    t0 = min(s["start"] for s in spans)
    pids = sorted({int(s.get("pid", 0)) for s in spans})
    for pid in pids:
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": f"pid {pid}"},
        })
    traces = sorted({s["trace"] for s in spans})
    tid_of = {trace: i + 1 for i, trace in enumerate(traces)}
    for span in spans:
        args = {"trace": span["trace"], "span": span["span"],
                "parent": span.get("parent"), "outcome": span.get("outcome")}
        args.update(span.get("attrs") or {})
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": span.get("kind", span["name"]),
            "pid": int(span.get("pid", 0)),
            "tid": tid_of[span["trace"]],
            "ts": (span["start"] - t0) * 1e6,
            "dur": max(0.0, (span["end"] - span["start"]) * 1e6),
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_spans(spans: list[dict[str, Any]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans_to_chrome(spans), fh)


def validate_spans(spans: list[dict[str, Any]], *,
                   single_trace: bool = False) -> list[str]:
    """Schema-v1 validation; returns a list of human-readable errors.

    Checks: required keys present, spans closed (``end >= start``),
    parent ids resolve within the set, span ids unique, and (optionally)
    a uniform trace id across the whole set.
    """
    errors: list[str] = []
    seen: set[str] = set()
    for i, span in enumerate(spans):
        missing = [k for k in SPAN_KEYS if k not in span]
        if missing:
            errors.append(f"span[{i}]: missing keys {missing}")
            continue
        if span["v"] != SCHEMA_VERSION:
            errors.append(f"span[{i}] {span['span']}: schema v{span['v']} != {SCHEMA_VERSION}")
        if span["span"] in seen:
            errors.append(f"span[{i}] {span['span']}: duplicate span id")
        seen.add(span["span"])
        if not isinstance(span["start"], (int, float)) or not isinstance(span["end"], (int, float)):
            errors.append(f"span[{i}] {span['span']}: non-numeric start/end")
        elif span["end"] < span["start"]:
            errors.append(f"span[{i}] {span['span']}: not closed (end < start)")
        if not span["outcome"]:
            errors.append(f"span[{i}] {span['span']}: empty outcome")
    ids = {s["span"] for s in spans if "span" in s}
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent not in ids:
            errors.append(f"span {span.get('span')}: parent {parent} not in export")
    if single_trace:
        traces = {s["trace"] for s in spans if "trace" in s}
        if len(traces) > 1:
            errors.append(f"expected a single trace, found {len(traces)}: "
                          f"{sorted(traces)[:4]}...")
    return errors
