"""``repro.trace`` — metadata event tracing and the counter registry.

Attach a :class:`Tracer` with ``proc.attach(tracer)`` to capture
structured :class:`TraceEvent` streams from every layer of the machine;
read per-component tallies from ``proc.registry`` (a hierarchical
:class:`CounterRegistry`).  See ``docs/observability.md``.
"""

from repro.trace.counters import Counter, CounterRegistry, Gauge
from repro.trace.events import TraceEvent, Tracer
from repro.trace.export import (
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "Counter",
    "CounterRegistry",
    "Gauge",
    "TraceEvent",
    "Tracer",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
]
