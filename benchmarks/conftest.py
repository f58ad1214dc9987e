"""Shared benchmark plumbing.

Every benchmark regenerates one paper table/figure via the
``repro.analysis.figures`` registry, records the paper-vs-measured table
and its claim lines under ``benchmarks/results/``, echoes it to the
terminal, and asserts the figure's *shape* claims (ordering,
separability, who-wins) — absolute cycle counts are simulator-specific
by design.

A recorded table holds simulated results only, so a run that reproduces
every figure leaves the tracked files unchanged.  Host time is measured
by ``perfbench/`` (docs/performance.md).
"""

from __future__ import annotations

import pathlib
import re

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def record_figure():
    """Persist and echo a FigureResult; returns the rendered table."""
    from repro.analysis.report import format_result

    RESULTS_DIR.mkdir(exist_ok=True)

    def _record(result):
        text = format_result(result)
        name = re.sub(r"[^a-z0-9]+", "_", result.figure.lower()) + ".txt"
        (RESULTS_DIR / name).write_text(text + "\n")
        print("\n" + text)
        return text

    return _record
