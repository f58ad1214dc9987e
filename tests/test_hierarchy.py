"""Tests for the data-cache hierarchy (inclusive L3, writebacks)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KIB, CacheConfig, preset_config
from repro.core import attach
from repro.mem.hierarchy import DataCacheSystem
from repro.trace import Tracer
from repro.trace.counters import CounterRegistry


def tiny_machine(cores=2, sockets=1):
    return DataCacheSystem(
        preset_config(
            "sct",
            cores=cores,
            sockets=sockets,
            l1=CacheConfig("L1", 2 * KIB, 2, 1),
            l2=CacheConfig("L2", 4 * KIB, 2, 10),
            l3=CacheConfig("L3", 8 * KIB, 2, 40),
        )
    )


def access(caches, core, addr, is_write=False):
    """One data access as the processor's executor makes it: the L1
    ``hit`` probe, then the hierarchy below L1.  Returns the level that
    served it (1, 2, 3, or 0 on a full miss) and the writebacks."""
    l1 = caches.core_caches[core].l1
    block, set_index = l1.decompose(addr)
    if l1.hit(block, set_index, is_write):
        return 1, []
    return caches.access(core, block, set_index, is_write)


class TestAccessPath:
    def test_miss_then_l1_hit(self):
        caches = tiny_machine()
        assert access(caches, 0, 0x1000) == (0, ())
        caches.fill(0, 0x1000, dirty=False)
        assert access(caches, 0, 0x1000)[0] == 1

    def test_other_core_hits_l3(self):
        caches = tiny_machine()
        caches.fill(0, 0x1000, dirty=False)
        assert access(caches, 1, 0x1000)[0] == 3

    def test_promotion_after_l3_hit(self):
        caches = tiny_machine()
        caches.fill(0, 0x1000, dirty=False)
        access(caches, 1, 0x1000)  # L3 hit, promotes
        assert access(caches, 1, 0x1000)[0] == 1

    def test_latency_accumulates_with_depth(self):
        caches = tiny_machine()
        caches.fill(0, 0x1000, dirty=False)
        l1 = caches.hit_latency[access(caches, 0, 0x1000)[0] - 1]
        caches.core_caches[0].l1.invalidate(0x1000)
        caches.core_caches[0].l2.invalidate(0x1000)
        l3 = caches.hit_latency[access(caches, 0, 0x1000)[0] - 1]
        assert l3 > l1
        assert caches.miss_lookup_latency >= l3

    def test_l1_miss_is_counted_and_traced_once(self):
        """``access`` records the L1 miss it is handed without probing
        L1 again: one miss, no hit, one ``miss`` event at L1's set."""
        caches = tiny_machine()
        tracer = Tracer()
        attach(caches, tracer)
        caches.fill(0, 0x1000, dirty=False)
        l1 = caches.core_caches[0].l1
        l1.invalidate(0x1000)
        hits, misses = l1.counters.counter("hits"), l1.counters.counter("misses")
        before = (hits.value, misses.value)
        tracer.clear()
        assert access(caches, 0, 0x1000)[0] == 2
        assert (hits.value, misses.value) == (before[0], before[1] + 1)
        l1_set = l1.set_index_of(0x1000)
        l1_events = [
            (event.kind, event.set_index)
            for event in tracer.events() if event.component == "cache.L1"
        ]
        assert l1_events == [("miss", l1_set), ("fill", l1_set)]


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
        assert access(caches, 2, 0x1000)[0] == 0

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


class _AddressLevelHierarchy:
    """Reference: the hierarchy's fill, promotion, fold and flush written
    with address-level cache calls — ``insert`` into L3, back-invalidation
    with one ``invalidate`` per private cache of the socket, ``insert``
    into L2 and L1, a dirty victim folded with ``contains`` and
    ``mark_dirty``, and a flush that invalidates every cache."""

    def __init__(self, caches):
        self.caches = caches

    def _path(self, core):
        caches = self.caches
        per_socket = caches.cores_per_socket
        first = core - core % per_socket
        socket = caches.core_caches[first : first + per_socket]
        private = [c.l1 for c in socket] + [c.l2 for c in socket]
        own = caches.core_caches[core]
        return own.l1, own.l2, caches.l3s[caches.socket_of(core)], private

    def access(self, core, block, l1_set, is_write):
        l1, l2, l3, _ = self._path(core)
        l1.miss(block, l1_set)
        writebacks = []
        if l2.lookup(block):
            self._install_l1(core, block, is_write, writebacks)
            return 2, writebacks
        if l3.lookup(block):
            self._install_private(core, block, is_write, writebacks)
            return 3, writebacks
        return 0, ()

    def fill(self, core, block, dirty):
        _, _, l3, private = self._path(core)
        writebacks = []
        event = l3.insert(block)
        if event.evicted_addr is not None:
            dirty_copy = event.evicted_dirty
            for cache in private:
                if cache.invalidate(event.evicted_addr)[1]:
                    dirty_copy = True
            if dirty_copy:
                writebacks.append(event.evicted_addr)
        self._install_private(core, block, dirty, writebacks)
        return writebacks

    def flush(self, addr):
        block = addr & ~63
        dirty = False
        everything = [c.l1 for c in self.caches.core_caches]
        everything += [c.l2 for c in self.caches.core_caches]
        for cache in everything + list(self.caches.l3s):
            if cache.invalidate(block)[1]:
                dirty = True
        return dirty, ([block] if dirty else [])

    def _install_private(self, core, block, dirty, writebacks):
        _, l2, l3, _ = self._path(core)
        event = l2.insert(block)
        if event.evicted_dirty:
            self._fold(event.evicted_addr, (l3,), writebacks)
        self._install_l1(core, block, dirty, writebacks)

    def _install_l1(self, core, block, dirty, writebacks):
        l1, l2, l3, _ = self._path(core)
        event = l1.insert(block, dirty=dirty)
        if event.evicted_dirty:
            self._fold(event.evicted_addr, (l2, l3), writebacks)

    @staticmethod
    def _fold(victim, lower, writebacks):
        for cache in lower:
            if cache.contains(victim):
                cache.mark_dirty(victim)
                return
        writebacks.append(victim)


def _policy_machine(policies, sockets):
    """Small caches, so fills evict and dirty victims fold: a 4-set
    2-way L1, an 8-set 2-way L2 and an 8-set 4-way L3, two cores a
    socket."""
    l1, l2, l3 = policies
    caches = DataCacheSystem(
        preset_config(
            "sct",
            cores=2 * sockets,
            sockets=sockets,
            l1=CacheConfig("L1", 512, 2, 1, replacement=l1),
            l2=CacheConfig("L2", 1 * KIB, 2, 10, replacement=l2),
            l3=CacheConfig("L3", 2 * KIB, 4, 40, replacement=l3),
        )
    )
    tracer = Tracer()
    attach(caches, tracer)
    registry = CounterRegistry()
    for i, core in enumerate(caches.core_caches):
        registry.mount(f"core{i}.l1", core.l1.counters)
        registry.mount(f"core{i}.l2", core.l2.counters)
    for s, l3_cache in enumerate(caches.l3s):
        registry.mount(f"l3.socket{s}", l3_cache.counters)
    return caches, tracer, registry


def _all_caches(caches):
    return [c.l1 for c in caches.core_caches] + [
        c.l2 for c in caches.core_caches
    ] + list(caches.l3s)


_POLICIES = st.sampled_from(["lru", "plru", "random"])


class TestPolicyReference:
    @given(
        st.tuples(_POLICIES, _POLICIES, _POLICIES),
        st.sampled_from([1, 2]),
        st.lists(
            st.tuples(
                st.sampled_from(["access", "fill", "flush"]),
                st.integers(min_value=0, max_value=3),  # core (mod cores)
                st.integers(min_value=0, max_value=47),  # block id
                st.booleans(),  # write / dirty
            ),
            min_size=10,
            max_size=120,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_address_level_reference(self, policies, sockets, ops):
        """Every replacement policy at every level, on one and two
        sockets: the hierarchy's per-set fills, probes and drops leave
        every cache, tally and trace event where the address-level
        reference does, and return the same levels and write-backs."""
        caches, tracer, registry = _policy_machine(policies, sockets)
        ref_caches, ref_tracer, ref_registry = _policy_machine(policies, sockets)
        reference = _AddressLevelHierarchy(ref_caches)
        cores = 2 * sockets
        # Fill every block first, a third of them dirty, so the drawn ops
        # start from full sets: fills evict, victims fold, and L3
        # evictions back-invalidate the other core's copies.
        warmup = [("fill", i, i, i % 3 == 0) for i in range(48)]
        for op, core, block_id, flag in warmup + ops:
            core %= cores
            addr = block_id * 64
            if op == "access":
                l1 = caches.core_caches[core].l1
                ref_l1 = ref_caches.core_caches[core].l1
                block, set_index = l1.decompose(addr)
                hit = l1.hit(block, set_index, flag)
                assert ref_l1.hit(block, set_index, flag) == hit
                if not hit:
                    level, writebacks = caches.access(core, block, set_index, flag)
                    expected = reference.access(core, block, set_index, flag)
                    assert (level, list(writebacks)) == (
                        expected[0], list(expected[1])
                    )
            elif op == "fill":
                assert caches.fill(core, addr, dirty=flag) == reference.fill(
                    core, addr, flag
                )
            else:
                assert caches.flush(addr) == reference.flush(addr)
            for cache, ref in zip(_all_caches(caches), _all_caches(ref_caches)):
                assert cache.state_snapshot() == ref.state_snapshot()
        assert registry.snapshot() == ref_registry.snapshot()
        assert tracer.events() == ref_tracer.events()
