"""Fleet observability: distributed wall-clock span tracing + telemetry.

See :mod:`repro.obs.spans` for the span model and the zero-overhead
``start_span`` gate, :mod:`repro.obs.telemetry` for latency/straggler
summaries, and docs/observability.md ("Fleet telemetry") for the
operator view.
"""

from repro.obs.spans import (
    NULL_SPAN,
    SCHEMA_VERSION,
    Span,
    SpanContext,
    SpanRecorder,
    active,
    disable,
    enable,
    new_span_id,
    new_trace_id,
    spans_to_chrome,
    start_span,
    validate_spans,
    write_chrome_spans,
)
from repro.obs.telemetry import (
    FleetSummary,
    PhaseStats,
    fleet_prometheus_text,
    percentile,
    render_report,
    summarize,
)

__all__ = [
    "NULL_SPAN",
    "SCHEMA_VERSION",
    "FleetSummary",
    "PhaseStats",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "active",
    "disable",
    "enable",
    "fleet_prometheus_text",
    "new_span_id",
    "new_trace_id",
    "percentile",
    "render_report",
    "spans_to_chrome",
    "start_span",
    "summarize",
    "validate_spans",
    "write_chrome_spans",
]
