"""Experiment drivers that regenerate every table and figure of the paper.

Each ``fig*`` function in :mod:`repro.analysis.figures` runs the complete
experiment behind one paper figure and returns a :class:`FigureResult`
containing the measured series alongside the paper's reference values, so
benchmarks and EXPERIMENTS.md can report paper-vs-measured directly.
"""

from repro.analysis.report import FigureResult, Row, format_result
from repro.analysis.jpeg_attack import (
    JpegAttackResult,
    run_jpeg_metaleak_c,
    run_jpeg_metaleak_t,
)
from repro.analysis.kvstore_attack import KvAttackResult, run_kvstore_attack
from repro.analysis.rsa_attack import RsaAttackResult, run_rsa_attack
from repro.analysis.mbedtls_attack import (
    MbedtlsAttackResult,
    run_mbedtls_attack,
)
from repro.analysis.overhead import overhead_study

__all__ = [
    "FigureResult",
    "Row",
    "format_result",
    "JpegAttackResult",
    "run_jpeg_metaleak_c",
    "run_jpeg_metaleak_t",
    "KvAttackResult",
    "run_kvstore_attack",
    "RsaAttackResult",
    "run_rsa_attack",
    "MbedtlsAttackResult",
    "run_mbedtls_attack",
    "overhead_study",
]
