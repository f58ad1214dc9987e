"""Metrics export: the counter registry in Prometheus text format.

:func:`prometheus_text` flattens a :class:`~repro.trace.counters.
CounterRegistry` into the Prometheus text exposition format (``# TYPE``
lines, sanitised metric names, counters suffixed ``_total``), so a scrape
of a long-running simulation can be pasted straight into promtool or a
pushgateway.

The registry holds totals.  A time series over *simulated* cycles comes
from the machine's trace instead: every :class:`~repro.trace.TraceEvent`
carries its cycle, so a series is a fold over ``tracer.events()``
(docs/performance.md, "Metrics export").
"""

from __future__ import annotations

import re

from repro.trace.counters import CounterRegistry

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(path: str, kind: str, namespace: str) -> str:
    name = _NAME_OK.sub("_", f"{namespace}_{path.replace('.', '_')}")
    if kind == "counter":
        name += "_total"
    return name


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format.

    Backslash, double-quote and newline are the three characters the
    format requires escaping inside ``label="..."``; everything else
    passes through (values are UTF-8).
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def prom_sample(name: str, labels: dict[str, str] | None, value: float) -> str:
    """One sample line, with properly escaped label values."""
    if not labels:
        return f"{name} {_prom_value(value)}"
    rendered = ",".join(
        f'{key}="{escape_label_value(val)}"' for key, val in labels.items()
    )
    return f"{name}{{{rendered}}} {_prom_value(value)}"


def prom_header(name: str, kind: str, help_text: str) -> list[str]:
    """The ``# HELP`` + ``# TYPE`` preamble for one metric family.

    HELP text uses the same escaping rules as the format mandates for
    help lines (backslash and newline; quotes are legal verbatim there).
    """
    escaped = help_text.replace("\\", "\\\\").replace("\n", "\\n")
    return [f"# HELP {name} {escaped}", f"# TYPE {name} {kind}"]


def prometheus_text(
    registry: CounterRegistry, *, namespace: str = "repro"
) -> str:
    """Render the registry in the Prometheus text exposition format.

    Every metric family — gauges included — gets both a ``# HELP`` and a
    ``# TYPE`` line, so downstream scrapers that key on HELP for family
    boundaries parse gauges the same way they parse counters.
    """
    lines: list[str] = []
    for path, kind, value in sorted(registry.items()):
        name = _prom_name(path, kind, namespace)
        lines += prom_header(name, kind, f"repro {kind} {path}")
        lines.append(prom_sample(name, None, value))
    return "\n".join(lines) + "\n"
