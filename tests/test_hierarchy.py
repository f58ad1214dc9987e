"""Tests for the data-cache hierarchy (inclusive L3, writebacks)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KIB, CacheConfig, SecureProcessorConfig
from repro.mem.hierarchy import DataCacheSystem


def tiny_machine(cores=2, sockets=1):
    return DataCacheSystem(
        SecureProcessorConfig.sct_default(cores=cores, sockets=sockets).with_overrides(
            l1=CacheConfig("L1", 2 * KIB, 2, 1),
            l2=CacheConfig("L2", 4 * KIB, 2, 10),
            l3=CacheConfig("L3", 8 * KIB, 2, 40),
        )
    )


class TestAccessPath:
    def test_miss_then_l1_hit(self):
        caches = tiny_machine()
        result = caches.access(0, 0x1000, is_write=False)
        assert result.hit_level is None
        caches.fill(0, 0x1000, dirty=False)
        assert caches.access(0, 0x1000, is_write=False).hit_level == 1

    def test_other_core_hits_l3(self):
        caches = tiny_machine()
        caches.fill(0, 0x1000, dirty=False)
        assert caches.access(1, 0x1000, is_write=False).hit_level == 3

    def test_promotion_after_l3_hit(self):
        caches = tiny_machine()
        caches.fill(0, 0x1000, dirty=False)
        caches.access(1, 0x1000, is_write=False)  # L3 hit, promotes
        assert caches.access(1, 0x1000, is_write=False).hit_level == 1

    def test_latency_accumulates_with_depth(self):
        caches = tiny_machine()
        caches.fill(0, 0x1000, dirty=False)
        l1 = caches.access(0, 0x1000, is_write=False).latency
        caches.core_caches[0].l1.invalidate(0x1000)
        caches.core_caches[0].l2.invalidate(0x1000)
        l3 = caches.access(0, 0x1000, is_write=False).latency
        assert l3 > l1


class TestInclusivity:
    def test_l3_eviction_back_invalidates(self):
        caches = tiny_machine()
        caches.fill(0, 0x0, dirty=False)
        # Fill the 2-way L3 set of 0x0 with conflicting blocks.
        l3 = caches.l3s[0]
        target_set = l3.set_index_of(0x0)
        conflicts = [
            addr
            for addr in range(64, 1 << 18, 64)
            if l3.set_index_of(addr) == target_set
        ][:2]
        for addr in conflicts:
            caches.fill(0, addr, dirty=False)
        assert not l3.contains(0x0)
        assert not caches.core_caches[0].l1.contains(0x0)

    def test_dirty_back_invalidation_writes_back(self):
        caches = tiny_machine()
        caches.fill(0, 0x0, dirty=True)
        l3 = caches.l3s[0]
        target_set = l3.set_index_of(0x0)
        conflicts = [
            addr
            for addr in range(64, 1 << 18, 64)
            if l3.set_index_of(addr) == target_set
        ][:2]
        writebacks = []
        for addr in conflicts:
            writebacks += caches.fill(0, addr, dirty=False)
        assert 0x0 in writebacks

    def test_flush_reports_dirty(self):
        caches = tiny_machine()
        caches.fill(0, 0x40, dirty=True)
        was_dirty, writebacks = caches.flush(0x40)
        assert was_dirty and writebacks == [0x40]
        assert not caches.contains(0x40)

    def test_flush_clean(self):
        caches = tiny_machine()
        caches.fill(0, 0x40, dirty=False)
        was_dirty, writebacks = caches.flush(0x40)
        assert not was_dirty and writebacks == []


class TestSockets:
    def test_socket_mapping(self):
        caches = tiny_machine(cores=4, sockets=2)
        assert caches.socket_of(0) == 0
        assert caches.socket_of(3) == 1

    def test_l3s_isolated_across_sockets(self):
        caches = tiny_machine(cores=4, sockets=2)
        caches.fill(0, 0x1000, dirty=False)
        assert caches.access(2, 0x1000, is_write=False).hit_level is None

    @pytest.mark.parametrize("dirty_in", [None, "core0.l1", "core3.l2", "l3.1"])
    def test_flush_drops_block_machine_wide(self, dirty_in):
        caches = tiny_machine(cores=4, sockets=2)
        for core in range(4):
            caches.fill(core, 0x1000, dirty=False)
        assert all(l3.contains(0x1000) for l3 in caches.l3s)
        dirty_cache = {
            None: None,
            "core0.l1": caches.core_caches[0].l1,
            "core3.l2": caches.core_caches[3].l2,
            "l3.1": caches.l3s[1],
        }[dirty_in]
        if dirty_cache is not None:
            dirty_cache.mark_dirty(0x1000)
        was_dirty, writebacks = caches.flush(0x1000)
        if dirty_in is None:
            assert (was_dirty, writebacks) == (False, [])
        else:
            assert (was_dirty, writebacks) == (True, [0x1000])
        assert not caches.contains(0x1000)
        for core in caches.core_caches:
            assert not core.l1.contains(0x1000)
            assert not core.l2.contains(0x1000)
        assert caches.flush(0x1000) == (False, [])

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            tiny_machine(cores=3, sockets=2)


class TestWritebackInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),  # core
                st.integers(min_value=0, max_value=63),  # block id
                st.booleans(),  # dirty
            ),
            max_size=120,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_fills_never_lose_track(self, operations):
        """Whatever the fill/evict pattern, capacity bounds hold and every
        block reported written-back was previously filled dirty somewhere."""
        caches = tiny_machine()
        dirty_ever = set()
        for core, block_id, dirty in operations:
            addr = block_id * 64
            if dirty:
                dirty_ever.add(addr)
            writebacks = caches.fill(core, addr, dirty=dirty)
            for writeback in writebacks:
                assert writeback in dirty_ever
            for l3 in caches.l3s:
                assert l3.occupancy() <= l3.num_sets * l3.ways