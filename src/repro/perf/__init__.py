"""Performance observability: cycle attribution, metrics export, benchmarks.

Three pillars (see ``docs/performance.md``):

* :mod:`repro.perf.attribution` — :class:`CycleAttributor`, an exact
  (conservation-checked) per-component latency profiler with hierarchical
  reports and flamegraph-ready collapsed-stack export;
* :mod:`repro.perf.metrics` — the Prometheus-text exporter over the
  counter registry (a time series over simulated cycles is a fold over
  trace events, which carry their cycle);
* :mod:`repro.perf.bench` — the ``repro bench`` scenario suite with
  ``BENCH_<scenario>.json`` results and baseline regression comparison.
"""

from repro.perf.attribution import (
    AttributionError,
    CycleAttributor,
    PathProfile,
)
from repro.perf.bench import (
    BenchResult,
    Comparison,
    compare,
    load_result,
    run_scenario,
    scenario_names,
    write_result,
)
from repro.perf.metrics import prometheus_text

__all__ = [
    "AttributionError",
    "BenchResult",
    "Comparison",
    "CycleAttributor",
    "PathProfile",
    "compare",
    "load_result",
    "prometheus_text",
    "run_scenario",
    "scenario_names",
    "write_result",
]
