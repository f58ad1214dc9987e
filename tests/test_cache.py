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


def probe(cache, addr):
    """A user's probe of the block at ``addr``: ``hit``, then ``miss``
    when it fails.  True on a hit."""
    block, set_index = cache.decompose(addr)
    if cache.hit(block, set_index, False):
        return True
    cache.miss(block, set_index)
    return False


def fill(cache, addr, dirty=False):
    """``install`` the block at ``addr``: its (victim, victim dirty), or
    None when nothing was evicted."""
    return cache.install(*cache.decompose(addr), dirty)


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
        assert not probe(cache, 0x1000)
        fill(cache, 0x1000)
        assert probe(cache, 0x1000)
        assert cache.counters.get("hits") == 1
        assert cache.counters.get("misses") == 1

    def test_probe_traces_one_hit_or_one_miss(self):
        """Under a tracer, ``hit`` on a resident block emits one ``hit``
        event and nothing at all on a miss, which ``miss`` then emits."""
        cache, tracer = small_cache(), Tracer()
        fill(cache, 0x1040)
        attach(cache, tracer)
        block, set_index = cache.decompose(0x1040)
        assert cache.hit(block, set_index, False)
        [event] = tracer.raw_events()
        assert (event.component, event.kind, event.addr, event.set_index) == (
            "cache.t", "hit", block, set_index
        )
        block, set_index = cache.decompose(0x2000)
        assert not cache.hit(block, set_index, True)
        assert tracer.raw_events() == [event]
        cache.miss(block, set_index)
        missed = tracer.raw_events()[-1]
        assert (missed.kind, missed.addr, missed.set_index) == (
            "miss", block, set_index
        )
        assert len(tracer.raw_events()) == 2

    def test_insert_same_block_no_evict(self):
        cache = small_cache()
        fill(cache, 0x1000)
        assert fill(cache, 0x1000) is None
        assert cache.counters.get("fills") == 1

    def test_lru_eviction_order(self):
        cache = small_cache(sets=1, ways=2)
        fill(cache, 0 * 64)
        fill(cache, 1 * 64)
        assert fill(cache, 2 * 64) == (0, False)  # least recently used

    def test_lookup_refreshes_recency(self):
        cache = small_cache(sets=1, ways=2)
        fill(cache, 0 * 64)
        fill(cache, 1 * 64)
        probe(cache, 0)  # promote block 0
        assert fill(cache, 2 * 64) == (64, False)

    def test_peek_does_not_refresh(self):
        cache = small_cache(sets=1, ways=2)
        fill(cache, 0 * 64)
        fill(cache, 1 * 64)
        assert cache.contains(0)
        assert fill(cache, 2 * 64) == (0, False)

    def test_sub_block_addresses_alias(self):
        cache = small_cache()
        fill(cache, 0x1000)
        assert probe(cache, 0x1001)
        assert probe(cache, 0x103F)


class TestDirty:
    def test_dirty_eviction_reported(self):
        cache = small_cache(sets=1, ways=1)
        fill(cache, 0, dirty=True)
        assert fill(cache, 64) == (0, True)

    def test_clean_eviction(self):
        cache = small_cache(sets=1, ways=1)
        fill(cache, 0)
        assert fill(cache, 64) == (0, False)

    def test_mark_dirty(self):
        cache = small_cache()
        fill(cache, 0x40)
        assert not cache.is_dirty(0x40)
        cache.mark_dirty(0x40)
        assert cache.is_dirty(0x40)

    def test_mark_dirty_absent_is_noop(self):
        cache = small_cache()
        cache.mark_dirty(0x40)
        assert not cache.contains(0x40)

    def test_insert_or_dirty_merge(self):
        cache = small_cache()
        fill(cache, 0x40, dirty=True)
        fill(cache, 0x40, dirty=False)
        assert cache.is_dirty(0x40)


class TestInvalidate:
    def test_invalidate_present(self):
        cache = small_cache()
        fill(cache, 0x40, dirty=True)
        present, dirty = cache.invalidate(0x40)
        assert present and dirty
        assert not cache.contains(0x40)

    def test_invalidate_absent(self):
        cache = small_cache()
        assert cache.invalidate(0x40) == (False, False)

    def test_clear(self):
        cache = small_cache()
        fill(cache, 0)
        fill(cache, 64)
        cache.clear()
        assert cache.occupancy() == 0


class TestOccupancyInvariants:
    @given(st.lists(st.integers(min_value=0, max_value=255), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, block_numbers):
        cache = small_cache(sets=4, ways=2)
        for number in block_numbers:
            fill(cache, number * 64)
            assert cache.occupancy() <= 8
            for set_index in range(4):
                assert len(cache.blocks_in_set(set_index)) <= 2

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_most_recent_insert_always_present(self, block_numbers):
        cache = small_cache(sets=2, ways=2)
        for number in block_numbers:
            fill(cache, number * 64)
            assert cache.contains(number * 64)

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_blocks_map_to_correct_set(self, block_numbers):
        cache = small_cache(sets=4, ways=2)
        for number in block_numbers:
            fill(cache, number * 64)
        for set_index in range(4):
            for addr in cache.blocks_in_set(set_index):
                assert cache.set_index_of(addr) == set_index

    def test_iteration_covers_all(self):
        cache = small_cache(sets=4, ways=2)
        addrs = {i * 64 for i in range(6)}
        for addr in addrs:
            fill(cache, addr)
        assert set(cache) == addrs


class TestLruSets:
    def test_lru_victim_is_least_recent(self):
        cache = small_cache(sets=1, ways=4)
        for number in range(4):
            fill(cache, number * 64)
        probe(cache, 0)
        assert fill(cache, 4 * 64) == (64, False)

    def test_invalidated_hole_refilled_without_eviction(self):
        cache = small_cache(sets=1, ways=4)
        for number in range(4):
            fill(cache, number * 64)
        cache.invalidate(0)
        assert fill(cache, 4 * 64) is None
        assert cache.blocks_in_set(0) == [64, 128, 192, 256]
        assert fill(cache, 5 * 64) == (64, False)


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

    def probe(self, block):
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

    def install(self, block, dirty):
        lines, i = self._find(block)
        if i is not None:
            _, was_dirty = lines.pop(i)
            lines.append((block, was_dirty or dirty))
            return None
        evicted = lines.pop(0) if len(lines) == self.ways else None
        lines.append((block, dirty))
        return evicted

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


_CACHE_OPS = ("install", "probe", "hit", "invalidate", "mark_dirty")


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
        warmup = [("install", number, False) for number in range(sets * ways)]
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
            if op == "install":
                assert fill(cache, block, flag) == model.install(block, flag)
            elif op == "probe":
                assert probe(cache, block) == model.probe(block)
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
