"""Tests for x-write counting and the protection-overhead study."""

import pytest

from repro.analysis.overhead import _run_workload, overhead_study
from repro.attacks.metaleak_c import MetaLeakC
from repro.config import MIB, PAGE_SIZE, SecureProcessorConfig
from repro.os import PageAllocator
from repro.proc import SecureProcessor


def make_env(size=256 * MIB):
    proc = SecureProcessor(
        SecureProcessorConfig.sct_default(
            protected_size=size, functional_crypto=False
        )
    )
    alloc = PageAllocator(proc.layout.data_size // PAGE_SIZE, cores=4)
    return proc, alloc


class TestXWriteCounting:
    def test_counts_multiple_victim_writes(self):
        proc, alloc = make_env()
        victim_frame = alloc.alloc_specific(3)
        attack = MetaLeakC(proc, alloc, core=1)
        handle = attack.handle_for_page(victim_frame, level=1)
        for victim_writes in (0, 1, 3):
            handle.arm_for_writes(5)  # up to 5 countable writes
            for i in range(victim_writes):
                proc.write_through(victim_frame * PAGE_SIZE + i * 64, b"w", core=0)
                proc.drain_writes()
                attack.collect_victim_updates(victim_frame, level=1)
            counted = handle.count_victim_writes(armed_for=5)
            assert counted == victim_writes

    def test_armed_for_validation(self):
        proc, alloc = make_env()
        attack = MetaLeakC(proc, alloc, core=1)
        handle = attack.handle_for_page(0, level=1)
        with pytest.raises(ValueError):
            handle.count_victim_writes(armed_for=0)
        with pytest.raises(ValueError):
            handle.count_victim_writes(armed_for=127)


class TestOverheadStudy:
    def test_patterns_run(self):
        proc, _ = make_env(size=64 * MIB)
        for pattern in ("seq-read", "stride-read", "rand-read", "seq-write"):
            run = _run_workload(proc, pattern, 32)
            assert run.accesses == 32
            assert run.cycles > 0

    def test_unknown_pattern_rejected(self):
        proc, _ = make_env(size=64 * MIB)
        with pytest.raises(ValueError):
            _run_workload(proc, "pointer-chase", 8)

    def test_protection_costs_on_reads(self):
        result = overhead_study(accesses=120, patterns=("stride-read",))
        assert result.row("SCT stride-read slowdown").measured > 1.05
        assert result.row("HT stride-read slowdown").measured > 1.05