"""Metrics export: Prometheus text format and periodic sampling.

:func:`prometheus_text` flattens a :class:`~repro.trace.counters.
CounterRegistry` into the Prometheus text exposition format (``# TYPE``
lines, sanitised metric names, counters suffixed ``_total``), so a scrape
of a long-running simulation can be pasted straight into promtool or a
pushgateway.

:class:`MetricsSampler` turns the registry into a time series over
*simulated* cycles: attach it to a processor with ``proc.attach(sampler)``
and it snapshots every ``every`` cycles.  When the buffer fills it decimates
(keeps every other sample and doubles the interval), so memory stays
bounded for arbitrarily long runs while coverage of the whole run is
preserved at decreasing resolution.
"""

from __future__ import annotations

import json
import pathlib
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


class MetricsSampler:
    """Snapshot a registry every N simulated cycles, with bounded memory.

    The processor calls :meth:`on_cycle` as its clock advances; whenever at
    least ``every`` cycles have elapsed since the last sample, the registry
    is snapshotted.  Once ``max_samples`` snapshots accumulate, the sampler
    decimates: it keeps every other sample and doubles ``every``, trading
    resolution for unbounded run length.
    """

    #: Component-graph slot this instrument occupies (``repro.core``).
    instrument_slot = "sampler"

    def __init__(
        self,
        registry: CounterRegistry,
        *,
        every: int = 10_000,
        max_samples: int = 4096,
    ) -> None:
        if every <= 0:
            raise ValueError("sampling interval must be positive")
        if max_samples < 2:
            raise ValueError("need room for at least two samples")
        self.registry = registry
        self.every = every
        self.max_samples = max_samples
        self.samples: list[tuple[int, dict[str, float]]] = []
        self._next_at = 0

    def on_cycle(self, cycle: int) -> None:
        if cycle < self._next_at:
            return
        self.sample(cycle)

    def sample(self, cycle: int) -> None:
        """Take a snapshot now, regardless of the schedule."""
        self.samples.append((cycle, self.registry.snapshot()))
        self._next_at = cycle + self.every
        if len(self.samples) >= self.max_samples:
            self.samples = self.samples[::2]
            self.every *= 2

    def series(self, path: str) -> list[tuple[int, float]]:
        """The sampled (cycle, value) series for one dotted counter path."""
        return [
            (cycle, snap[path]) for cycle, snap in self.samples if path in snap
        ]

    def to_dict(self) -> dict:
        return {
            "every": self.every,
            "samples": [
                {"cycle": cycle, "values": snap} for cycle, snap in self.samples
            ],
        }

    def write_json(self, path: str | pathlib.Path) -> None:
        pathlib.Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
