"""Fleet telemetry over the span stream: latency, stragglers, queues.

Pure functions from a list of schema-v1 span dicts (see
:mod:`repro.obs.spans`) to summaries: per-kind latency statistics
(p50/p95/max), straggler detection, retry and queue-wait rollups, a
``repro_obs_*`` Prometheus text rendering, and the plain-text table
behind ``repro spans report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 on an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


@dataclass
class PhaseStats:
    """Latency statistics for one span kind."""

    kind: str
    count: int = 0
    failed: int = 0
    total_s: float = 0.0
    p50_s: float = 0.0
    p95_s: float = 0.0
    max_s: float = 0.0


@dataclass
class FleetSummary:
    """Everything ``repro spans report`` and ``repro_obs_*`` render."""

    spans: int = 0
    traces: int = 0
    phases: dict[str, PhaseStats] = field(default_factory=dict)
    outcomes: dict[str, int] = field(default_factory=dict)
    stragglers: list[dict[str, Any]] = field(default_factory=list)
    retries: int = 0
    cache_hits: int = 0
    queue_wait_total_s: float = 0.0
    queue_wait_max_s: float = 0.0
    queued: int = 0


def summarize(spans: list[dict[str, Any]]) -> FleetSummary:
    """Aggregate spans into a :class:`FleetSummary`.

    A span is a straggler when its duration exceeds 4 × the median for
    its kind and is at least 50 ms long (shorter phases are never worth
    chasing).
    """
    summary = FleetSummary(spans=len(spans))
    durations: dict[str, list[float]] = {}
    traces: set[str] = set()
    for span in spans:
        kind = span.get("kind") or span.get("name") or "?"
        dur = max(0.0, float(span.get("end", 0.0)) - float(span.get("start", 0.0)))
        durations.setdefault(kind, []).append(dur)
        trace = span.get("trace")
        if trace:
            traces.add(trace)
        outcome = span.get("outcome") or "?"
        summary.outcomes[outcome] = summary.outcomes.get(outcome, 0) + 1
        attrs = span.get("attrs") or {}
        if kind == "task.attempt" and int(attrs.get("attempt", 1) or 1) > 1:
            summary.retries += 1
        if attrs.get("cache") == "hit" or attrs.get("cached"):
            summary.cache_hits += 1
        if kind in ("task.queue", "job.queue"):
            summary.queued += 1
            summary.queue_wait_total_s += dur
            summary.queue_wait_max_s = max(summary.queue_wait_max_s, dur)
    summary.traces = len(traces)

    stats: dict[str, PhaseStats] = {}
    for kind, vals in durations.items():
        ps = PhaseStats(kind=kind, count=len(vals), total_s=sum(vals),
                        p50_s=percentile(vals, 0.5),
                        p95_s=percentile(vals, 0.95), max_s=max(vals))
        stats[kind] = ps
    for span in spans:
        kind = span.get("kind") or span.get("name") or "?"
        if span.get("outcome") not in (None, "ok"):
            stats[kind].failed += 1
    summary.phases = dict(sorted(stats.items()))

    # Straggler pass: compare each span to its kind's median.
    for span in spans:
        kind = span.get("kind") or span.get("name") or "?"
        vals = durations[kind]
        if len(vals) < 2:
            continue
        median = percentile(vals, 0.5)
        dur = max(0.0, float(span.get("end", 0.0)) - float(span.get("start", 0.0)))
        if dur >= 0.05 and median > 0 and dur > 4.0 * median:
            attrs = span.get("attrs") or {}
            summary.stragglers.append({
                "name": span.get("name"),
                "kind": kind,
                "trace": span.get("trace"),
                "span": span.get("span"),
                "task": attrs.get("task"),
                "duration_s": round(dur, 6),
                "median_s": round(median, 6),
                "factor": round(dur / median, 2),
            })
    summary.stragglers.sort(key=lambda s: -s["duration_s"])
    return summary


def fleet_prometheus_text(summary: FleetSummary) -> str:
    """Render a summary in Prometheus text format under ``repro_obs_*``.

    Uses the shared label-escaping helpers from :mod:`repro.perf.metrics`
    so kind labels with quotes/backslashes/newlines stay well-formed.
    """
    from repro.perf.metrics import prom_header, prom_sample

    lines: list[str] = []
    lines += prom_header("repro_obs_spans_total", "counter",
                         "Finished spans in this summary window.")
    lines.append(prom_sample("repro_obs_spans_total", None, summary.spans))
    lines += prom_header("repro_obs_traces_total", "counter",
                         "Distinct trace ids seen.")
    lines.append(prom_sample("repro_obs_traces_total", None, summary.traces))
    lines += prom_header("repro_obs_retries_total", "counter",
                         "Task attempts beyond the first.")
    lines.append(prom_sample("repro_obs_retries_total", None, summary.retries))
    lines += prom_header("repro_obs_cache_hits_total", "counter",
                         "Spans served from a cache.")
    lines.append(prom_sample("repro_obs_cache_hits_total", None,
                             summary.cache_hits))
    lines += prom_header("repro_obs_stragglers_total", "counter",
                         "Spans slower than straggler-factor x kind median.")
    lines.append(prom_sample("repro_obs_stragglers_total", None,
                             len(summary.stragglers)))
    lines += prom_header("repro_obs_queue_wait_seconds_max", "gauge",
                         "Longest observed queue-wait phase.")
    lines.append(prom_sample("repro_obs_queue_wait_seconds_max", None,
                             round(summary.queue_wait_max_s, 6)))

    lines += prom_header("repro_obs_outcome_total", "counter",
                         "Finished spans by outcome.")
    for outcome, count in sorted(summary.outcomes.items()):
        lines.append(prom_sample("repro_obs_outcome_total",
                                 {"outcome": outcome}, count))

    lines += prom_header("repro_obs_phase_seconds", "gauge",
                         "Per-kind span latency quantiles.")
    for kind, stats in summary.phases.items():
        for quantile, value in (("0.5", stats.p50_s), ("0.95", stats.p95_s),
                                ("max", stats.max_s)):
            lines.append(prom_sample(
                "repro_obs_phase_seconds",
                {"kind": kind, "quantile": quantile}, round(value, 6)))
    lines += prom_header("repro_obs_phase_spans_total", "counter",
                         "Finished spans per kind.")
    for kind, stats in summary.phases.items():
        lines.append(prom_sample("repro_obs_phase_spans_total",
                                 {"kind": kind}, stats.count))
    return "\n".join(lines) + "\n"


def render_report(summary: FleetSummary, *, top: int = 5) -> str:
    """The per-phase latency table behind ``repro spans report``."""
    out: list[str] = []
    out.append(f"spans {summary.spans}  traces {summary.traces}  "
               f"retries {summary.retries}  cache-hits {summary.cache_hits}")
    if summary.outcomes:
        tally = "  ".join(f"{k}:{v}" for k, v in sorted(summary.outcomes.items()))
        out.append(f"outcomes  {tally}")
    if summary.queued:
        avg = summary.queue_wait_total_s / summary.queued
        out.append(f"queue-wait  avg {avg:.3f}s  max {summary.queue_wait_max_s:.3f}s "
                   f"({summary.queued} queued phases)")
    if summary.phases:
        out.append("")
        header = f"{'kind':<20} {'count':>6} {'fail':>5} {'p50':>9} {'p95':>9} {'max':>9} {'total':>9}"
        out.append(header)
        out.append("-" * len(header))
        for kind, stats in summary.phases.items():
            out.append(f"{kind:<20} {stats.count:>6} {stats.failed:>5} "
                       f"{stats.p50_s:>8.3f}s {stats.p95_s:>8.3f}s "
                       f"{stats.max_s:>8.3f}s {stats.total_s:>8.3f}s")
    if summary.stragglers:
        out.append("")
        out.append(f"stragglers ({len(summary.stragglers)}, top {min(top, len(summary.stragglers))}):")
        for straggler in summary.stragglers[:top]:
            label = straggler.get("task") or straggler.get("name")
            out.append(f"  {label}: {straggler['duration_s']:.3f}s "
                       f"({straggler['factor']}x the {straggler['kind']} "
                       f"median {straggler['median_s']:.3f}s)")
    return "\n".join(out)
