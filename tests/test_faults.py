"""Tests for the fault-injection engine and campaign driver.

The contract under test is the paper's trust argument: every corruption
of protected off-chip state (ciphertext, MAC, counters, tree nodes,
metadata fills) is detected on the next read once the corrupted state is
re-fetched, while write-queue perturbations degrade gracefully — and a
fault-free machine never raises a violation.
"""

import pytest

from repro.config import BLOCK_SIZE, PAGE_SIZE, preset_config
from repro.core import walk
from repro.faults import (
    FaultInjector,
    FaultSite,
    campaign_figure_result,
    run_campaign,
)
from repro.faults.injector import PROTECTED_SITES, QUEUE_SITES
from repro.proc import SecureProcessor
from repro.secmem.engine import IntegrityViolation

PRESETS = ("sct", "ht", "sgx")
_SIZE = 4 * 1024 * 1024


def make_target(preset, seed=5):
    """A functional-crypto machine with one written, quiesced block."""
    config = preset_config(preset, protected_size=_SIZE, functional_crypto=True)
    proc = SecureProcessor(config)
    addr = 3 * PAGE_SIZE
    proc.write_through(addr, b"victim")
    proc.drain_writes()
    proc.mee.flush_metadata_cache(proc.cycle)
    injector = FaultInjector(proc, seed=seed)
    return proc, injector, addr


def clean_read(proc, addr):
    proc.flush(addr)
    proc.mee.flush_metadata_cache(proc.cycle)
    return proc.read(addr)


class TestInjector:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_data_bit_flip_detected_and_reversible(self, preset):
        proc, injector, addr = make_target(preset)
        handle = injector.flip_data_bit(addr, bit=13)
        with pytest.raises(IntegrityViolation):
            clean_read(proc, addr)
        handle.undo()
        assert clean_read(proc, addr).data[:6] == b"victim"

    @pytest.mark.parametrize("preset", PRESETS)
    def test_mac_bit_flip_detected(self, preset):
        proc, injector, addr = make_target(preset)
        handle = injector.flip_mac_bit(addr)
        with pytest.raises(IntegrityViolation):
            clean_read(proc, addr)
        handle.undo()
        assert clean_read(proc, addr).data[:6] == b"victim"

    @pytest.mark.parametrize("preset", PRESETS)
    def test_counter_corruption_detected(self, preset):
        proc, injector, addr = make_target(preset)
        handle = injector.corrupt_counter(addr // BLOCK_SIZE)
        with pytest.raises(IntegrityViolation):
            clean_read(proc, addr)
        handle.undo()
        assert clean_read(proc, addr).data[:6] == b"victim"

    @pytest.mark.parametrize("preset", PRESETS)
    def test_tree_node_corruption_detected_at_every_level(self, preset):
        proc, injector, addr = make_target(preset)
        layout = proc.layout
        cb_index = layout.counter_block_index(addr)
        for level in range(len(layout.levels)):
            handle = injector.corrupt_tree_node(
                level, layout.node_index(level, cb_index), slot=0
            )
            with pytest.raises(IntegrityViolation):
                clean_read(proc, addr)
            handle.undo()
            assert clean_read(proc, addr).data[:6] == b"victim"

    @pytest.mark.parametrize("preset", PRESETS)
    def test_corrupted_meta_fill_detected(self, preset):
        proc, injector, addr = make_target(preset)
        handle = injector.arm_meta_fill_corruption(
            proc.layout.counter_block_index(addr), addr // BLOCK_SIZE
        )
        assert not handle.fired
        with pytest.raises(IntegrityViolation):
            clean_read(proc, addr)
        assert handle.fired
        handle.undo()
        assert clean_read(proc, addr).data[:6] == b"victim"

    def test_unfired_armed_fault_disarms_cleanly(self):
        proc, injector, addr = make_target("sct")
        handle = injector.arm_meta_fill_corruption(
            proc.layout.counter_block_index(addr), addr // BLOCK_SIZE
        )
        handle.undo()  # never fetched, never fired
        assert not handle.fired
        assert clean_read(proc, addr).data[:6] == b"victim"

    def test_write_drop_is_silent_and_stale(self):
        proc, injector, addr = make_target("sct")
        handle = injector.arm_write_drop(addr)
        proc.write_through(addr, b"newval")
        proc.drain_writes()
        assert handle.fired
        assert proc.registry.get("memctrl.writes_dropped") == 1
        result = clean_read(proc, addr)  # no violation: availability fault
        assert result.data[:6] == b"victim"

    def test_write_reorder_is_architecturally_invisible(self):
        proc, injector, addr = make_target("sct")
        addrs = [addr + i * BLOCK_SIZE for i in range(4)]
        handle = injector.arm_write_reorder()
        for i, a in enumerate(addrs):
            proc.write_through(a, b"v%d" % i)
        proc.drain_writes()
        assert handle.fired
        for i, a in enumerate(addrs):
            assert clean_read(proc, a).data[:2] == b"v%d" % i

    def test_injections_are_seed_deterministic(self):
        _, injector_a, addr = make_target("sct", seed=42)
        _, injector_b, _ = make_target("sct", seed=42)
        descriptions_a = [injector_a.flip_data_bit(addr).description for _ in range(5)]
        descriptions_b = [injector_b.flip_data_bit(addr).description for _ in range(5)]
        assert descriptions_a == descriptions_b

    def test_detach_unhooks_every_layer(self):
        proc, injector, addr = make_target("sct")
        assert proc.mee.fault_hook is injector
        assert proc.memctrl.fault_hook is injector
        injector.detach()
        assert all(
            getattr(component, "fault_hook", None) is None
            for component in walk(proc)
        )
        # A detached injector sees no drain burst: an armed drop never fires.
        handle = injector.arm_write_drop(addr)
        proc.write_through(addr, b"kept")
        proc.drain_writes()
        assert not handle.fired
        assert clean_read(proc, addr).data[:4] == b"kept"


class TestCampaign:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_small_campaign_fully_detected(self, preset):
        report = run_campaign(preset, sites=21, seed=9)
        assert report.sites == 21
        assert report.detection_rate == 1.0
        assert report.false_positives == 0
        assert report.fully_detected
        for site in PROTECTED_SITES + QUEUE_SITES:
            assert report.injected(site) == 3

    def test_acceptance_200_sites_every_preset(self):
        # The headline robustness claim: >= 200 seeded sites per preset,
        # 100% detection of protected-state corruption, 0 false alarms.
        for preset in PRESETS:
            report = run_campaign(preset, sites=200, seed=2024)
            assert report.protected_injected >= 100
            assert report.protected_detected == report.protected_injected
            assert report.false_positives == 0
            assert report.fully_detected, report.failures()

    def test_campaign_is_reproducible(self):
        first = run_campaign("sct", sites=14, seed=77)
        second = run_campaign("sct", sites=14, seed=77)
        assert [o.description for o in first.outcomes] == [
            o.description for o in second.outcomes
        ]

    def test_campaign_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_campaign("sct", sites=0)
        with pytest.raises(ValueError, match="unknown preset"):
            run_campaign("nonsense", sites=7)

    def test_figure_result_matrix(self):
        reports = {"sct": run_campaign("sct", sites=7, seed=1)}
        result = campaign_figure_result(reports)
        labels = [row.label for row in result.rows]
        for site in PROTECTED_SITES:
            assert f"sct: {site.value} detected" in labels
        assert "sct: false positives" in labels
        assert result.row("sct: false positives").measured == 0


class TestReportAccounting:
    def test_rates_with_no_outcomes(self):
        from repro.faults import CampaignReport

        report = CampaignReport(preset="sct", seed=0)
        assert report.detection_rate == 1.0
        assert report.fully_detected
        assert report.failures() == []

    def test_site_enum_partition(self):
        assert set(PROTECTED_SITES) | set(QUEUE_SITES) == set(FaultSite)
        assert not set(PROTECTED_SITES) & set(QUEUE_SITES)
