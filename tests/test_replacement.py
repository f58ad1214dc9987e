"""Tests for the replacement policies and policy-parameterised caches."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig
from repro.mem.cache import SetAssocCache
from repro.mem.replacement import RandomPolicy, TreePlruPolicy, make_policy


class TestTreePlru:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            TreePlruPolicy(6)

    def test_victim_avoids_recent(self):
        policy = TreePlruPolicy(4)
        for way in range(4):
            policy.on_fill(way)
        policy.on_access(3)
        assert policy.victim() != 3

    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_victim_never_most_recent(self, accesses):
        policy = TreePlruPolicy(8)
        for way in range(8):
            policy.on_fill(way)
        for way in accesses:
            policy.on_access(way)
        assert policy.victim() != accesses[-1]

    def test_victim_in_range(self):
        policy = TreePlruPolicy(8)
        for way in range(8):
            policy.on_fill(way)
        assert 0 <= policy.victim() < 8


class TestRandomPolicy:
    def test_deterministic_under_seed(self):
        a = make_policy("random", 8, seed=3)
        b = make_policy("random", 8, seed=3)
        assert [a.victim() for _ in range(10)] == [b.victim() for _ in range(10)]

    def test_spread(self):
        policy = RandomPolicy(8)
        victims = {policy.victim() for _ in range(200)}
        assert len(victims) == 8


class TestPolicyFactory:
    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("fifo", 4)

    def test_all_names(self):
        for name in ("plru", "random"):
            assert make_policy(name, 4) is not None


class TestPolicyCaches:
    def _cache(self, replacement):
        return SetAssocCache(
            CacheConfig("t", 4 * 64, 4, 1, replacement=replacement)
        )

    @staticmethod
    def _fill(cache, addr, dirty=False):
        return cache.install(*cache.decompose(addr), dirty)

    @staticmethod
    def _probe(cache, addr):
        block, set_index = cache.decompose(addr)
        if cache.hit(block, set_index, False):
            return True
        cache.miss(block, set_index)
        return False

    @pytest.mark.parametrize("replacement", ["lru", "plru", "random"])
    def test_basic_semantics_hold(self, replacement):
        cache = self._cache(replacement)
        self._fill(cache, 0, dirty=True)
        assert self._probe(cache, 0)
        assert cache.is_dirty(0)
        present, dirty = cache.invalidate(0)
        assert present and dirty
        assert not cache.contains(0)

    @pytest.mark.parametrize("replacement", ["lru", "plru", "random"])
    def test_capacity_respected(self, replacement):
        cache = self._cache(replacement)
        for i in range(40):
            self._fill(cache, i * 64)  # single set (1 set cache)
        assert cache.occupancy() <= 4

    def test_plru_keeps_hot_line(self):
        cache = self._cache("plru")
        self._fill(cache, 0)
        for i in range(1, 40):
            self._probe(cache, 0)  # keep line 0 hot
            self._fill(cache, i * 64)
        assert cache.contains(0)

    def test_random_eventually_evicts_hot_line(self):
        cache = self._cache("random")
        self._fill(cache, 0)
        for i in range(1, 100):
            self._probe(cache, 0)
            self._fill(cache, i * 64)
        # With uniform random victims, even a hot line dies eventually.
        assert not cache.contains(0)
