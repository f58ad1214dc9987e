"""Performance observability: cycle attribution and metrics export.

Two pillars (see ``docs/performance.md``):

* :mod:`repro.perf.attribution` — :class:`CycleAttributor`, an exact
  (conservation-checked) per-component latency profiler with hierarchical
  reports and flamegraph-ready collapsed-stack export;
* :mod:`repro.perf.metrics` — the Prometheus-text exporter over the
  counter registry (a time series over simulated cycles is a fold over
  trace events, which carry their cycle).

Host time is measured by the repository benchmark (``perfbench/``), and
the simulated results by the golden tests (``tests/test_golden_path.py``).
"""

from repro.perf.attribution import (
    AttributionError,
    CycleAttributor,
    PathProfile,
)
from repro.perf.metrics import prometheus_text

__all__ = [
    "AttributionError",
    "CycleAttributor",
    "PathProfile",
    "prometheus_text",
]
