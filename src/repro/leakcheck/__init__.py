"""Automated metadata-leakage detection (paired-secret trace diffing)."""

from repro.leakcheck.detector import (
    KindFinding,
    LeakReport,
    build_leakcheck_tasks,
    run_leakcheck,
)
from repro.leakcheck.victims import (
    VICTIMS,
    VictimSpec,
    get_victim,
    list_victims,
    victim_names,
)

__all__ = [
    "KindFinding",
    "LeakReport",
    "build_leakcheck_tasks",
    "run_leakcheck",
    "VICTIMS",
    "VictimSpec",
    "get_victim",
    "list_victims",
    "victim_names",
]
