"""Unit tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.core import attach
from repro.mem.cache import SetAssocCache
from repro.trace import Tracer


def small_cache(sets=4, ways=2):
    return SetAssocCache(CacheConfig("t", sets * ways * 64, ways, 1))


class TestGeometry:
    def test_sets_and_ways(self):
        cache = SetAssocCache(CacheConfig("L1", 32 * 1024, 8, 1))
        assert cache.num_sets == 64
        assert cache.ways == 8

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, 3, 1)

    def test_set_index_of(self):
        cache = small_cache(sets=4)
        assert cache.set_index_of(0) == 0
        assert cache.set_index_of(64) == 1
        assert cache.set_index_of(64 * 4) == 0
        assert cache.set_index_of(65) == 1  # same block as 64


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.lookup(0x1000)
        cache.insert(0x1000)
        assert cache.lookup(0x1000)
        assert cache.counters.get("hits") == 1
        assert cache.counters.get("misses") == 1

    def test_hit_traces_exactly_what_lookup_traces(self):
        """Under a tracer, ``hit`` emits the event a ``lookup`` of the same
        resident block emits, and nothing at all on a miss."""
        via_hit, via_lookup = small_cache(), small_cache()
        tracers = Tracer(), Tracer()
        for cache, tracer in zip((via_hit, via_lookup), tracers):
            cache.insert(0x1040)
            attach(cache, tracer)
        block, set_index = via_hit.decompose(0x1040)
        assert via_hit.hit(block, set_index, False)
        assert via_lookup.lookup(0x1040)
        [event] = tracers[0].raw_events()
        assert tracers[1].raw_events() == [event]
        assert (event.component, event.kind, event.addr, event.set_index) == (
            "cache.t", "hit", block, set_index
        )
        block, set_index = via_hit.decompose(0x2000)
        assert not via_hit.hit(block, set_index, True)
        assert tracers[0].raw_events() == [event]

    def test_insert_same_block_no_evict(self):
        cache = small_cache()
        cache.insert(0x1000)
        event = cache.insert(0x1000)
        assert event.hit
        assert event.evicted_addr is None

    def test_lru_eviction_order(self):
        cache = small_cache(sets=1, ways=2)
        cache.insert(0 * 64)
        cache.insert(1 * 64)
        event = cache.insert(2 * 64)
        assert event.evicted_addr == 0  # least recently used

    def test_lookup_refreshes_recency(self):
        cache = small_cache(sets=1, ways=2)
        cache.insert(0 * 64)
        cache.insert(1 * 64)
        cache.lookup(0)  # promote block 0
        event = cache.insert(2 * 64)
        assert event.evicted_addr == 64

    def test_peek_does_not_refresh(self):
        cache = small_cache(sets=1, ways=2)
        cache.insert(0 * 64)
        cache.insert(1 * 64)
        assert cache.contains(0)
        event = cache.insert(2 * 64)
        assert event.evicted_addr == 0

    def test_sub_block_addresses_alias(self):
        cache = small_cache()
        cache.insert(0x1000)
        assert cache.lookup(0x1001)
        assert cache.lookup(0x103F)


class TestDirty:
    def test_dirty_eviction_reported(self):
        cache = small_cache(sets=1, ways=1)
        cache.insert(0, dirty=True)
        event = cache.insert(64)
        assert event.evicted_addr == 0
        assert event.evicted_dirty

    def test_clean_eviction(self):
        cache = small_cache(sets=1, ways=1)
        cache.insert(0)
        event = cache.insert(64)
        assert not event.evicted_dirty

    def test_mark_dirty(self):
        cache = small_cache()
        cache.insert(0x40)
        assert not cache.is_dirty(0x40)
        cache.mark_dirty(0x40)
        assert cache.is_dirty(0x40)

    def test_mark_dirty_absent_is_noop(self):
        cache = small_cache()
        cache.mark_dirty(0x40)
        assert not cache.contains(0x40)

    def test_insert_or_dirty_merge(self):
        cache = small_cache()
        cache.insert(0x40, dirty=True)
        cache.insert(0x40, dirty=False)
        assert cache.is_dirty(0x40)


class TestInvalidate:
    def test_invalidate_present(self):
        cache = small_cache()
        cache.insert(0x40, dirty=True)
        present, dirty = cache.invalidate(0x40)
        assert present and dirty
        assert not cache.contains(0x40)

    def test_invalidate_absent(self):
        cache = small_cache()
        assert cache.invalidate(0x40) == (False, False)

    def test_clear(self):
        cache = small_cache()
        cache.insert(0)
        cache.insert(64)
        cache.clear()
        assert cache.occupancy() == 0


class TestOccupancyInvariants:
    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, block_numbers):
        cache = small_cache(sets=4, ways=2)
        for number in block_numbers:
            cache.insert(number * 64)
            assert cache.occupancy() <= 8
            for set_index in range(4):
                assert len(cache.blocks_in_set(set_index)) <= 2

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_most_recent_insert_always_present(self, block_numbers):
        cache = small_cache(sets=2, ways=2)
        for number in block_numbers:
            cache.insert(number * 64)
            assert cache.contains(number * 64)

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_blocks_map_to_correct_set(self, block_numbers):
        cache = small_cache(sets=4, ways=2)
        for number in block_numbers:
            cache.insert(number * 64)
        for set_index in range(4):
            for addr in cache.blocks_in_set(set_index):
                assert cache.set_index_of(addr) == set_index

    def test_iteration_covers_all(self):
        cache = small_cache(sets=4, ways=2)
        addrs = {i * 64 for i in range(6)}
        for addr in addrs:
            cache.insert(addr)
        assert set(cache) == addrs


class TestLruSets:
    def test_lru_victim_is_least_recent(self):
        cache = small_cache(sets=1, ways=4)
        for number in range(4):
            cache.insert(number * 64)
        cache.lookup(0)
        assert cache.insert(4 * 64).evicted_addr == 64

    def test_invalidated_hole_refilled_without_eviction(self):
        cache = small_cache(sets=1, ways=4)
        for number in range(4):
            cache.insert(number * 64)
        cache.invalidate(0)
        assert cache.insert(4 * 64).evicted_addr is None
        assert cache.blocks_in_set(0) == [64, 128, 192, 256]
        assert cache.insert(5 * 64).evicted_addr == 64


class _ListLru:
    """Reference LRU: one list of (block, dirty) per set, LRU first."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [[] for _ in range(sets)]
        self.ways = ways
        self.hits = self.misses = 0

    def _find(self, block):
        lines = self.sets[(block // 64) % len(self.sets)]
        for i, (resident, _) in enumerate(lines):
            if resident == block:
                return lines, i
        return lines, None

    def lookup(self, block):
        lines, i = self._find(block)
        if i is None:
            self.misses += 1
            return False
        lines.append(lines.pop(i))
        self.hits += 1
        return True

    def hit(self, block, dirty):
        lines, i = self._find(block)
        if i is None:
            return False
        _, was_dirty = lines.pop(i)
        lines.append((block, was_dirty or dirty))
        self.hits += 1
        return True

    def insert(self, block, dirty):
        lines, i = self._find(block)
        if i is not None:
            _, was_dirty = lines.pop(i)
            lines.append((block, was_dirty or dirty))
            return True, None, False
        victim, victim_dirty = None, False
        if len(lines) == self.ways:
            victim, victim_dirty = lines.pop(0)
        lines.append((block, dirty))
        return False, victim, victim_dirty

    def invalidate(self, block):
        lines, i = self._find(block)
        if i is None:
            return False, False
        return True, lines.pop(i)[1]

    def mark_dirty(self, block):
        lines, i = self._find(block)
        if i is not None:
            lines[i] = (block, True)

    def snapshot(self):
        return {i: tuple(lines) for i, lines in enumerate(self.sets) if lines}


_CACHE_OPS = ("insert", "lookup", "hit", "invalidate", "mark_dirty")


class TestLruReferenceModel:
    @given(
        st.sampled_from([1, 2, 3, 4]),
        st.integers(min_value=2, max_value=8),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_list_model(self, sets, ways, data):
        cache = small_cache(sets=sets, ways=ways)
        model = _ListLru(sets, ways)
        # Start full, then draw from twice the capacity in distinct
        # blocks: about half the probes hit, and fills keep evicting.
        warmup = [("insert", number, False) for number in range(sets * ways)]
        ops = data.draw(st.lists(
            st.tuples(
                st.sampled_from(_CACHE_OPS),
                st.integers(min_value=0, max_value=2 * sets * ways),
                st.booleans(),
            ),
            min_size=10,
            max_size=150,
        ))
        for op, number, flag in warmup + ops:
            block = number * 64
            if op == "insert":
                got = cache.insert(block, dirty=flag)
                assert (got.hit, got.evicted_addr, got.evicted_dirty) == (
                    model.insert(block, flag)
                )
            elif op == "lookup":
                assert cache.lookup(block) == model.lookup(block)
            elif op == "hit":
                _, set_index = cache.decompose(block)
                assert cache.hit(block, set_index, flag) == model.hit(block, flag)
            elif op == "invalidate":
                assert cache.invalidate(block) == model.invalidate(block)
            else:
                cache.mark_dirty(block)
                model.mark_dirty(block)
            assert cache.state_snapshot() == model.snapshot()
        for set_index, lines in enumerate(model.sets):
            assert cache.blocks_in_set(set_index) == [b for b, _ in lines]
        tally = cache.counters.get
        assert (tally("hits"), tally("misses")) == (model.hits, model.misses)
