"""Secure-memory performance overhead study.

The attack exists because secure processors add metadata work to the
memory path; this harness quantifies that cost the same way the secure-
memory literature (VAULT, Synergy, BMT) does: run simple access patterns
on an unprotected baseline and on each protected design, and report the
slowdown.  It doubles as a regression guard on the timing model — if a
change makes Path-2/3/4 costs drift wildly, these ratios move.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import FigureResult
from repro.config import MIB, PAGE_SIZE, SecureProcessorConfig
from repro.proc.processor import SecureProcessor
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class WorkloadResult:
    name: str
    cycles: int
    accesses: int

    @property
    def cycles_per_access(self) -> float:
        return self.cycles / max(1, self.accesses)


def _run_workload(
    proc: SecureProcessor, pattern: str, accesses: int
) -> WorkloadResult:
    """Drive one access pattern; returns consumed cycles.

    Patterns: ``seq-read`` (streaming), ``stride-read`` (page-strided, the
    metadata-unfriendly case), ``rand-read``, ``seq-write``.
    Accesses are cache-cleansed so the memory path is actually exercised
    (cache-hit workloads see no security cost at all).
    """
    rng = derive_rng(9, "overhead", pattern)
    span_pages = 512
    start = proc.cycle
    for i in range(accesses):
        if pattern == "seq-read":
            addr = (i * 64) % (span_pages * PAGE_SIZE)
            proc.flush(addr)
            proc.read(addr)
        elif pattern == "stride-read":
            addr = ((i * 67) % span_pages) * PAGE_SIZE
            proc.flush(addr)
            proc.read(addr)
        elif pattern == "rand-read":
            addr = rng.randrange(0, span_pages * PAGE_SIZE, 64)
            proc.flush(addr)
            proc.read(addr)
        elif pattern == "seq-write":
            addr = (i * 64) % (span_pages * PAGE_SIZE)
            proc.write_through(addr, b"w")
            if i % 16 == 15:
                proc.drain_writes()
        else:
            raise ValueError(f"unknown pattern {pattern!r}")
    return WorkloadResult(name=pattern, cycles=proc.cycle - start, accesses=accesses)


class _InsecureBaseline:
    """The same machine with the security engine's costs zeroed out."""

    @staticmethod
    def config() -> SecureProcessorConfig:
        from repro.config import CryptoConfig

        return SecureProcessorConfig.sct_default(
            protected_size=64 * MIB, functional_crypto=False
        ).with_overrides(
            crypto=CryptoConfig(aes_latency=0, hash_latency=0, mac_latency=0),
            # A huge metadata cache makes every counter access a hit, so
            # no verification walks happen after warm-up: this approximates
            # a conventional (unprotected) memory system.
            metadata_cache=SecureProcessorConfig.sct_default().metadata_cache.__class__(
                "MetaCache", 16 * MIB, 16, 0
            ),
        )


def overhead_study(
    accesses: int = 300,
    patterns: tuple[str, ...] = ("seq-read", "stride-read", "rand-read", "seq-write"),
) -> FigureResult:
    """Slowdown of HT and SCT designs vs an (approximated) insecure base."""
    result = FigureResult(
        figure="Overhead",
        title="Secure-memory slowdown vs insecure baseline "
        "(cache-cleansed access patterns)",
        notes=(
            "context for the secure-memory literature: protection costs "
            "tens of percent on memory-bound patterns; the channel exists "
            "because this work is state-dependent"
        ),
    )
    baseline_proc = SecureProcessor(_InsecureBaseline.config())
    designs = {
        "HT": SecureProcessorConfig.ht_default(
            protected_size=64 * MIB, functional_crypto=False
        ),
        "SCT": SecureProcessorConfig.sct_default(
            protected_size=64 * MIB, functional_crypto=False
        ),
    }
    slowdowns: dict[str, float] = {}
    for pattern in patterns:
        base = _run_workload(baseline_proc, pattern, accesses)
        result.add(
            f"baseline {pattern}",
            round(base.cycles_per_access, 1),
            None,
            "cycles/access",
        )
        for name, config in designs.items():
            proc = SecureProcessor(config)
            run = _run_workload(proc, pattern, accesses)
            slowdown = run.cycles / max(1, base.cycles)
            slowdowns[f"{name} {pattern}"] = round(slowdown, 3)
            result.add(
                f"{name} {pattern} slowdown",
                slowdowns[f"{name} {pattern}"],
                "> 1.0",
                "x",
            )
    # Protection must cost something on memory-bound reads, and nothing
    # absurd; posted writes hide security work from the issuing core.
    reads = [value for key, value in slowdowns.items() if key.endswith("-read")]
    write = slowdowns.get("SCT seq-write")
    result.claim(
        "HT and SCT read slowdowns within 1.0-3.0x",
        bool(reads) and all(1.0 <= value <= 3.0 for value in reads),
    )
    result.claim("SCT seq-write slowdown <= 1.2x", write is not None and write <= 1.2)
    return result
