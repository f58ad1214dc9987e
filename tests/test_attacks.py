"""Tests for the MetaLeak attack framework."""

import itertools

import pytest

from repro.config import MIB, PAGE_SIZE, preset_config
from repro.attacks import (
    CovertChannelC,
    CovertChannelT,
    MetadataEvictor,
    MetadataMapper,
    MetaLeakC,
    MetaLeakT,
    NoiseProcess,
)
from repro.os import PageAllocator
from repro.proc import SecureProcessor


def make_env(**overrides):
    overrides.setdefault("protected_size", 128 * MIB)
    proc = SecureProcessor(preset_config("sct", **overrides))
    alloc = PageAllocator(proc.layout.data_size // PAGE_SIZE, cores=proc.config.cores)
    return proc, alloc


class TestMapper:
    def setup_method(self):
        self.proc, self.alloc = make_env()
        self.mapper = MetadataMapper(self.proc)

    def test_reverse_mapping_hits_requested_set(self):
        for set_index in (0, 17, 511):
            blocks = list(itertools.islice(
                self.mapper.iter_data_blocks_with_counter_in_set(set_index), 10
            ))
            assert len(blocks) == 10
            for block in blocks:
                counter = self.mapper.counter_addr(block)
                assert self.mapper.meta_set_of(counter) == set_index


class TestEvictor:
    def setup_method(self):
        self.proc, self.alloc = make_env()

    def test_evicts_target_node(self):
        evictor = MetadataEvictor(self.proc, self.alloc, core=1)
        victim = 0x40000
        self.proc.read(victim)  # loads the whole path
        node = self.proc.layout.node_addr_for_data(victim, 0)
        assert evictor.is_cached(node)
        evictor.evict((node,))
        assert not evictor.is_cached(node)

    def test_eviction_survives_repeated_rounds(self):
        evictor = MetadataEvictor(self.proc, self.alloc, core=1)
        victim = 0x40000
        node = self.proc.layout.node_addr_for_data(victim, 0)
        counter = self.proc.layout.counter_block_addr(victim)
        for _ in range(5):
            self.proc.flush(victim)
            self.proc.read(victim)  # counter evicted too -> walk reloads node
            assert evictor.is_cached(node)
            evictor.evict((node, counter))
            assert not evictor.is_cached(node)

    def test_multiple_targets_one_call(self):
        evictor = MetadataEvictor(self.proc, self.alloc, core=1)
        victim = 0x40000
        self.proc.read(victim)
        node = self.proc.layout.node_addr_for_data(victim, 0)
        counter = self.proc.layout.counter_block_addr(victim)
        evictor.evict((node, counter))
        assert not evictor.is_cached(node)
        assert not evictor.is_cached(counter)

    def test_protected_pages_never_touched(self):
        protect = set(range(16, 48))
        evictor = MetadataEvictor(
            self.proc, self.alloc, core=1, protect_pages=protect
        )
        node = self.proc.layout.node_addr_for_data(16 * PAGE_SIZE, 0)
        evictor.evict((node,))
        for set_blocks in evictor._eviction_sets.values():
            for block in set_blocks:
                assert block // PAGE_SIZE not in protect


class TestMetaLeakT:
    def setup_method(self):
        self.proc, self.alloc = make_env()
        self.victim_frame = self.alloc.alloc_specific(100)
        self.victim_addr = self.victim_frame * PAGE_SIZE
        self.attack = MetaLeakT(self.proc, self.alloc, core=1)

    def _victim_access(self):
        self.proc.flush(self.victim_addr)
        self.proc.read(self.victim_addr, core=0)

    def test_probe_page_shares_leaf_node(self):
        frame = self.attack.claim_probe_page(self.victim_frame, 0)
        layout = self.proc.layout
        assert layout.node_addr_for_data(
            frame * PAGE_SIZE, 0
        ) == layout.node_addr_for_data(self.victim_addr, 0)

    def test_detects_access_and_absence(self):
        monitor = self.attack.monitor_for_page(self.victim_frame, level=0)
        outcomes = []
        for trial in range(16):
            monitor.m_evict()
            accessed = trial % 2 == 0
            if accessed:
                self._victim_access()
            _, seen = monitor.m_reload()
            outcomes.append(seen == accessed)
        assert all(outcomes)

    def test_monitoring_at_level1(self):
        monitor = self.attack.monitor_for_page(self.victim_frame, level=1)
        monitor.m_evict()
        self._victim_access()
        _, seen = monitor.m_reload()
        assert seen
        monitor.m_evict()
        _, seen = monitor.m_reload()
        assert not seen

    def test_no_data_sharing_between_attacker_and_victim(self):
        monitor = self.attack.monitor_for_page(self.victim_frame, level=0)
        assert monitor.probe_block // PAGE_SIZE != self.victim_frame

    def test_mismatched_probe_rejected(self):
        far_frame = self.alloc.alloc_specific(5000)
        with pytest.raises(ValueError):
            self.attack.monitor_for_page(
                self.victim_frame, level=0, probe_frame=far_frame
            )

    def test_self_calibration_produces_sane_threshold(self):
        monitor = self.attack.monitor_for_page(self.victim_frame, level=0)
        assert 100 < monitor.threshold < 1000

    def test_cross_core_detection(self):
        # Victim on core 0, attacker monitoring from core 3.
        attack = MetaLeakT(self.proc, self.alloc, core=3)
        monitor = attack.monitor_for_page(self.victim_frame, level=0)
        monitor.m_evict()
        self._victim_access()
        _, seen = monitor.m_reload()
        assert seen


class TestMetaLeakC:
    def setup_method(self):
        self.proc, self.alloc = make_env()

    def test_handle_requires_level_ge_1(self):
        attack = MetaLeakC(self.proc, self.alloc)
        with pytest.raises(ValueError):
            attack.handle_for_page(0, level=0)

    def test_bump_advances_true_counter(self):
        attack = MetaLeakC(self.proc, self.alloc)
        handle = attack.handle_for_page(0, level=1)
        before = handle.true_value()
        handle.bump()
        handle.bump()
        assert handle.true_value() == before + 2

    def test_reset_observes_overflow(self):
        attack = MetaLeakC(self.proc, self.alloc)
        handle = attack.handle_for_page(0, level=1)
        spent = handle.reset()
        assert 1 <= spent <= handle.minor_max + 1
        assert handle.true_value() == 1

    def test_preset_reaches_value(self):
        attack = MetaLeakC(self.proc, self.alloc)
        handle = attack.handle_for_page(0, level=1)
        handle.reset()
        handle.preset(100)
        assert handle.true_value() == 100

    def test_detect_single_victim_write(self):
        victim_frame = self.alloc.alloc_specific(3)  # in L0 group 0
        attack = MetaLeakC(self.proc, self.alloc, core=1)
        handle = attack.handle_for_page(victim_frame, level=1)
        handle.arm_for_writes(1)
        # Victim writes once (cleansed write -> reaches the MC).
        self.proc.write_through(victim_frame * PAGE_SIZE, b"v", core=0)
        self.proc.drain_writes()
        attack.collect_victim_updates(victim_frame, level=1)
        extra = handle.count_to_overflow()
        assert extra == 1  # one attacker bump fires the armed counter

    def test_no_victim_write_needs_more_bumps(self):
        victim_frame = self.alloc.alloc_specific(3)
        attack = MetaLeakC(self.proc, self.alloc, core=1)
        handle = attack.handle_for_page(victim_frame, level=1)
        handle.arm_for_writes(1)
        attack.collect_victim_updates(victim_frame, level=1)
        extra = handle.count_to_overflow()
        assert extra == 2

    def test_hash_tree_rejected(self):
        proc = SecureProcessor(
            preset_config("ht", protected_size=128 * MIB)
        )
        alloc = PageAllocator(proc.layout.data_size // PAGE_SIZE)
        attack = MetaLeakC(proc, alloc)
        with pytest.raises(ValueError):
            attack.handle_for_page(0, level=1)


class TestCovertChannels:
    def test_t_channel_perfect_when_quiet(self):
        proc, alloc = make_env()
        channel = CovertChannelT(proc, alloc)
        bits = [1, 0, 1, 1, 0, 0, 1, 0] * 4
        report = channel.transmit(bits)
        assert report.accuracy == 1.0
        assert report.sync_errors == 0

    def test_t_channel_under_noise(self):
        proc, alloc = make_env()
        noise = NoiseProcess(proc, alloc, reads_per_step=4)
        channel = CovertChannelT(proc, alloc, noise=noise)
        bits = [1, 0] * 16
        report = channel.transmit(bits)
        assert report.accuracy >= 0.8

    def test_t_channel_cross_socket(self):
        proc, alloc = make_env(cores=4, sockets=2)
        channel = CovertChannelT(proc, alloc, trojan_core=0, spy_core=2)
        bits = [1, 0, 0, 1] * 4
        report = channel.transmit(bits)
        assert report.accuracy == 1.0

    def test_c_channel_symbols(self):
        proc, alloc = make_env()
        channel = CovertChannelC(proc, alloc)
        symbols = [0, 1, 64, 126, 50]
        report = channel.transmit(symbols)
        assert report.received == symbols

    def test_c_channel_rejects_out_of_range(self):
        proc, alloc = make_env()
        channel = CovertChannelC(proc, alloc)
        with pytest.raises(ValueError):
            channel.transmit([127 + 1])

    def test_report_metrics(self):
        proc, alloc = make_env()
        channel = CovertChannelT(proc, alloc)
        report = channel.transmit([1, 0, 1, 0])
        assert 0 < report.bits_per_kilocycle() < 10
        assert report.cycles > 0


class TestCalibrator:
    def test_noise_process_accounting(self):
        proc, alloc = make_env()
        noise = NoiseProcess(proc, alloc, reads_per_step=3, pages=16)
        noise.step()
        noise.step()
        assert noise.reads_issued == 6
        assert noise.steps == 2

    def test_noise_rejects_negative_rate(self):
        proc, alloc = make_env()
        with pytest.raises(ValueError):
            NoiseProcess(proc, alloc, reads_per_step=-1)

    def test_noise_rejects_empty_working_set(self):
        proc, alloc = make_env()
        with pytest.raises(ValueError, match="pages"):
            NoiseProcess(proc, alloc, pages=0)
        with pytest.raises(ValueError, match="pages"):
            NoiseProcess(proc, alloc, pages=-3)

    def test_noise_rejects_out_of_range_core(self):
        proc, alloc = make_env()
        with pytest.raises(ValueError, match="core"):
            NoiseProcess(proc, alloc, core=proc.config.cores)
        with pytest.raises(ValueError, match="core"):
            NoiseProcess(proc, alloc, core=-1)
