"""Integration tests for the memory encryption engine + processor.

Covers the Figure-5 access paths, lazy tree propagation, VUL-1/VUL-2
timing behaviour, and tamper detection (spoof / splice / replay).
"""

import pytest

from repro.config import (
    MIB,
    TreeUpdatePolicy,
    preset_config,
)
from repro.proc import AccessPath, SecureProcessor
from repro.secmem.engine import IntegrityViolation


def make_proc(**overrides):
    overrides.setdefault("protected_size", 64 * MIB)
    return SecureProcessor(preset_config("sct", **overrides))


@pytest.fixture()
def proc():
    return make_proc()


class TestAccessPaths:
    def test_cold_read_is_path4(self, proc):
        result = proc.read(0x40000)
        assert result.path is AccessPath.MEM_TREE_MISS
        assert result.tree_levels_missed == len(proc.layout.levels)

    def test_cached_read_is_l1(self, proc):
        proc.read(0x40000)
        assert proc.read(0x40000).path is AccessPath.L1_HIT

    def test_flushed_read_counter_still_cached(self, proc):
        proc.read(0x40000)
        proc.flush(0x40000)
        result = proc.read(0x40000)
        assert result.path is AccessPath.MEM_COUNTER_HIT

    def test_path3_when_leaf_cached_counter_evicted(self, proc):
        proc.read(0x40000)
        proc.flush(0x40000)
        # Evict just the counter block from the metadata cache.
        cb_addr = proc.layout.counter_block_addr(0x40000)
        proc.metadata_cache.invalidate(cb_addr)
        result = proc.read(0x40000)
        assert result.path is AccessPath.MEM_TREE_HIT
        assert result.tree_levels_missed == 0

    def test_latency_ordering_across_paths(self, proc):
        """Figure 6: each deeper path costs strictly more."""
        lat = {}
        result = proc.read(0x40000)
        lat["path4"] = result.latency
        lat["l1"] = proc.read(0x40000).latency
        proc.flush(0x40000)
        lat["path2"] = proc.read(0x40000).latency
        proc.flush(0x40000)
        proc.metadata_cache.invalidate(proc.layout.counter_block_addr(0x40000))
        lat["path3"] = proc.read(0x40000).latency
        assert lat["l1"] < lat["path2"] < lat["path3"] < lat["path4"]

    def test_partial_tree_miss_between_path3_and_path4(self, proc):
        proc.read(0x40000)
        proc.flush(0x40000)
        proc.metadata_cache.invalidate(proc.layout.counter_block_addr(0x40000))
        proc.metadata_cache.invalidate(proc.layout.node_addr_for_data(0x40000, 0))
        result = proc.read(0x40000)
        assert result.path is AccessPath.MEM_TREE_MISS
        assert result.tree_levels_missed == 1

    def test_unprotected_address_rejected(self, proc):
        with pytest.raises(ValueError):
            proc.read(proc.layout.data_size + 0x1000)


class TestCounterMissState:
    @pytest.mark.parametrize("preset", ["sct", "ht"])
    def test_counter_miss_creates_no_counter_state(self, preset):
        """Verifying a counter block reads no counter state on a counter
        tree, nor on a hash tree in timing-only mode, so reading
        never-written pages creates none: the split counters of a block
        are materialised by its first write."""
        proc = SecureProcessor(
            preset_config(preset, protected_size=64 * MIB, functional_crypto=False)
        )
        pages = 64
        for page in range(pages):
            result = proc.read(page * 4096)
            assert not result.counter_hit
        assert proc.registry.snapshot()["mee.counter_misses"] == pages
        assert proc.mee.counters._split == {}
        proc.write_through(0, b"x")
        proc.drain_writes()
        assert list(proc.mee.counters._split) == [0]


class TestDataRoundtrip:
    def test_write_read_roundtrip_through_memory(self, proc):
        proc.write_through(0x40000, b"secret payload")
        proc.drain_writes()
        proc.flush(0x40000)
        result = proc.read(0x40000)
        assert result.data[:14] == b"secret payload"

    def test_cached_write_visible_immediately(self, proc):
        proc.write(0x40000, b"cached value")
        assert proc.read(0x40000).data[:12] == b"cached value"

    def test_dirty_eviction_writes_back(self, proc):
        proc.write(0x40000, b"dirty")
        proc.flush(0x40000)  # forces write-back
        proc.drain_writes()
        proc.mee.flush_metadata_cache(proc.cycle)
        proc.caches.flush(0x40000)
        assert proc.read(0x40000).data[:5] == b"dirty"

    def test_unwritten_reads_zero(self, proc):
        assert proc.read(0x7F000).data == bytes(64)

    def test_multiple_blocks_independent(self, proc):
        proc.write_through(0x40000, b"AA")
        proc.write_through(0x40040, b"BB")
        proc.drain_writes()
        proc.flush(0x40000)
        proc.flush(0x40040)
        assert proc.read(0x40000).data[:2] == b"AA"
        assert proc.read(0x40040).data[:2] == b"BB"

    def test_write_merging_single_counter_bump(self, proc):
        for value in (b"v1", b"v2", b"v3"):
            proc.write_through(0x40000, value)
        proc.drain_writes()
        block = proc.mee.layout_block_index(0x40000)
        # Three posted writes merged into one serviced write -> counter 1.
        assert proc.mee.counters.current(block) == 1
        proc.flush(0x40000)
        assert proc.read(0x40000).data[:2] == b"v3"

    def test_architectural_value_helper(self, proc):
        proc.write(0x40000, b"xyz")
        assert proc.architectural_value(0x40000)[:3] == b"xyz"


class TestLazyTreePropagation:
    def test_leaf_minor_counts_counter_writebacks(self, proc):
        cb = proc.layout.counter_block_index(0x100000)
        for i in range(5):
            proc.write_through(0x100000 + i * 64, b"w")
            proc.drain_writes()
            proc.mee.flush_metadata_cache(proc.cycle)
        assert proc.mee.tree.leaf_parent_value(cb) == 5

    def test_no_bump_while_counter_block_stays_cached(self, proc):
        cb = proc.layout.counter_block_index(0x100000)
        for i in range(5):
            proc.write_through(0x100000 + i * 64, b"w")
            proc.drain_writes()
        assert proc.mee.tree.leaf_parent_value(cb) == 0

    def test_leaf_overflow_after_128_writebacks(self, proc):
        for i in range(127):
            proc.write_through(0x100000 + (i % 64) * 64, b"w")
            proc.drain_writes()
            proc.mee.flush_metadata_cache(proc.cycle)
        assert proc.registry.get("mee.tree_counter_overflows") == 0
        proc.write_through(0x100000, b"w")
        proc.drain_writes()
        proc.mee.flush_metadata_cache(proc.cycle)
        assert proc.registry.get("mee.tree_counter_overflows") >= 1

    def test_tree_stays_verifiable_after_overflow(self, proc):
        for i in range(130):
            proc.write_through(0x100000 + (i % 64) * 64, b"w")
            proc.drain_writes()
            proc.mee.flush_metadata_cache(proc.cycle)
        proc.flush(0x100000)
        assert proc.read(0x100000).data[:1]  # verifies whole path

    def test_overflow_burst_delays_timed_read(self, proc):
        """Figure 8: reads concurrent with overflow land in a higher band."""
        base, probe = 0x100000, 0x700000
        for i in range(127):
            proc.write_through(base + (i % 64) * 64, b"w")
            proc.drain_writes()
            proc.mee.flush_metadata_cache(proc.cycle)
        proc.read(probe)
        proc.flush(probe)
        baseline = proc.read(probe).latency
        proc.flush(probe)
        proc.write_through(base, b"w")  # the overflowing write
        proc.drain_writes()
        proc.mee.flush_metadata_cache(proc.cycle)
        delayed = proc.read(probe).latency
        assert delayed > baseline + 500


class TestEncryptionCounterOverflow:
    def test_vul1_group_reencryption(self, proc):
        addr = 0x200000
        proc.write_through(addr + 64, b"neighbor")
        proc.drain_writes()
        for _ in range(128):
            proc.write_through(addr, b"spin")
            proc.drain_writes()
        assert proc.registry.get("mee.enc_counter_overflows") == 1
        assert proc.registry.get("mee.reencrypted_blocks") >= 1
        # Data in the re-encrypted group must still decrypt correctly.
        proc.flush(addr + 64)
        proc.mee.flush_metadata_cache(proc.cycle)
        assert proc.read(addr + 64).data[:8] == b"neighbor"

    def test_monolithic_mode_no_page_overflow(self):
        proc = SecureProcessor(
            preset_config("sgx", protected_size=16 * MIB)
        )
        for _ in range(200):
            proc.write_through(0x1000, b"x")
            proc.drain_writes()
        assert proc.registry.get("mee.enc_counter_overflows") == 0


class TestTamperDetection:
    def test_spoofed_data_detected(self, proc):
        proc.write_through(0x40000, b"valuable")
        proc.drain_writes()
        proc.flush(0x40000)
        proc.mee.tamper_spoof(0x40000, bytes(64))
        with pytest.raises(IntegrityViolation):
            proc.read(0x40000)

    def test_spliced_data_detected(self, proc):
        proc.write_through(0x40000, b"A")
        proc.write_through(0x90000, b"B")
        proc.drain_writes()
        proc.flush(0x40000)
        proc.flush(0x90000)
        proc.mee.tamper_splice(0x40000, 0x90000)
        with pytest.raises(IntegrityViolation):
            proc.read(0x40000)

    def test_replayed_data_detected(self, proc):
        proc.write_through(0x40000, b"old")
        proc.drain_writes()
        snapshot = proc.mee.snapshot_block(0x40000)
        proc.write_through(0x40000, b"new")
        proc.drain_writes()
        proc.flush(0x40000)
        proc.mee.tamper_replay(0x40000, snapshot)
        with pytest.raises(IntegrityViolation):
            proc.read(0x40000)

    def test_tampered_counter_detected(self, proc):
        proc.write_through(0x40000, b"data")
        proc.drain_writes()
        proc.mee.flush_metadata_cache(proc.cycle)
        proc.flush(0x40000)
        cb = proc.layout.counter_block_index(0x40000)
        proc.mee.counters.tamper_split_minor(cb, 0, 99)
        with pytest.raises(IntegrityViolation):
            proc.read(0x40000)

    def test_tampered_tree_node_detected(self, proc):
        proc.read(0x40000)
        proc.mee.flush_metadata_cache(proc.cycle)
        proc.flush(0x40000)
        proc.mee.tree.tamper_minor(1, 0, slot=0, value=5)
        with pytest.raises(IntegrityViolation):
            proc.read(0x40000)

    def test_untampered_survives_full_flush(self, proc):
        proc.write_through(0x40000, b"fine")
        proc.drain_writes()
        proc.mee.flush_metadata_cache(proc.cycle)
        proc.flush(0x40000)
        assert proc.read(0x40000).data[:4] == b"fine"


class TestPolicies:
    def test_eager_policy_bumps_leaf_at_service(self):
        proc = make_proc(tree_update_policy=TreeUpdatePolicy.EAGER)
        cb = proc.layout.counter_block_index(0x100000)
        proc.write_through(0x100000, b"w")
        proc.drain_writes()
        assert proc.mee.tree.leaf_parent_value(cb) == 1

    def test_eager_policy_roundtrip(self):
        proc = make_proc(tree_update_policy=TreeUpdatePolicy.EAGER)
        proc.write_through(0x40000, b"eager")
        proc.drain_writes()
        proc.mee.flush_metadata_cache(proc.cycle)
        proc.flush(0x40000)
        assert proc.read(0x40000).data[:5] == b"eager"

    def test_ht_processor_roundtrip(self):
        proc = SecureProcessor(
            preset_config("ht", protected_size=64 * MIB)
        )
        proc.write_through(0x40000, b"hashtree")
        proc.drain_writes()
        proc.mee.flush_metadata_cache(proc.cycle)
        proc.flush(0x40000)
        assert proc.read(0x40000).data[:8] == b"hashtree"

    def test_ht_paths_distinguishable(self):
        proc = SecureProcessor(
            preset_config("ht", protected_size=64 * MIB)
        )
        deep = proc.read(0x40000).latency
        proc.flush(0x40000)
        shallow = proc.read(0x40000).latency
        assert shallow < deep


class TestCrossCore:
    def test_private_caches_isolated(self, proc):
        proc.read(0x40000, core=0)
        result = proc.read(0x40000, core=1)
        assert result.path is AccessPath.L3_HIT  # shared LLC, private L1/L2

    def test_metadata_shared_across_cores(self, proc):
        proc.read(0x40000, core=0)
        proc.flush(0x40000)
        # Core 1's read hits the metadata cache warmed by core 0.
        result = proc.read(0x40000, core=1)
        assert result.counter_hit

    def test_cross_socket_l3_isolation(self):
        proc = make_proc(cores=4, sockets=2)
        proc.read(0x40000, core=0)
        result = proc.read(0x40000, core=2)  # other socket
        assert result.path not in (
            AccessPath.L1_HIT,
            AccessPath.L2_HIT,
            AccessPath.L3_HIT,
        )

    def test_cross_socket_metadata_still_shared(self):
        proc = make_proc(cores=4, sockets=2)
        proc.read(0x40000, core=0)
        result = proc.read(0x40000, core=2)
        assert result.counter_hit  # one MEE serves both sockets
