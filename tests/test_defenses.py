"""Tests for the defense models (MIRAGE, isolated trees, partitioning)."""

import pytest

from repro.config import MIB, PAGE_SIZE
from repro.defenses import (
    isolated_tree_config,
    mirage_eviction_curve,
    partitioned_llc_config,
)
from repro.mem.mirage import MirageCache
from repro.proc import SecureProcessor


class TestMirageCache:
    def test_hit_after_install(self):
        cache = MirageCache(64 * 1024)
        assert not cache.access(0x1000)
        assert cache.access(0x1000)

    def test_capacity_respected(self):
        cache = MirageCache(8 * 1024)  # 128 blocks
        for i in range(300):
            cache.access(i * 64)
        assert cache.occupancy() <= cache.data_capacity

    def test_global_evictions_once_full(self):
        cache = MirageCache(8 * 1024)
        for i in range(300):
            cache.access(i * 64)
        assert cache.global_evictions > 0

    def test_set_assoc_evictions_rare(self):
        """MIRAGE's whole point: SAE should (almost) never happen."""
        cache = MirageCache(64 * 1024)
        for i in range(4000):
            cache.access(i * 64)
        assert cache.set_assoc_evictions == 0

    def test_deterministic_with_seed(self):
        a = MirageCache(8 * 1024, seed=5)
        b = MirageCache(8 * 1024, seed=5)
        for i in range(400):
            assert a.access(i * 64 % 3777 * 64) == b.access(i * 64 % 3777 * 64)

    def test_eviction_probability_grows(self):
        points = mirage_eviction_curve((500, 4000), trials=10, cache_size=64 * 1024)
        assert points[0].accuracy <= points[1].accuracy

    def test_small_cache_curve_saturates(self):
        points = mirage_eviction_curve((2000,), trials=10, cache_size=16 * 1024)
        assert points[0].accuracy > 0.9


class TestIsolationDefense:
    def test_config_flags(self):
        config = isolated_tree_config(protected_size=64 * MIB)
        assert config.isolated_trees

    def test_domains_get_disjoint_trees(self):
        proc = SecureProcessor(isolated_tree_config(protected_size=64 * MIB))
        proc.mee.set_page_domain(100, 1)
        proc.mee.set_page_domain(200, 2)
        proc.read(100 * PAGE_SIZE)
        proc.read(200 * PAGE_SIZE)
        assert set(proc.mee._domain_trees) >= {1, 2}
        assert proc.mee._domain_trees[1] is not proc.mee._domain_trees[2]

    def test_domain_roundtrip(self):
        proc = SecureProcessor(isolated_tree_config(protected_size=64 * MIB))
        proc.mee.set_page_domain(50, 1)
        addr = 50 * PAGE_SIZE
        proc.write_through(addr, b"domain1")
        proc.drain_writes()
        proc.mee.flush_metadata_cache(proc.cycle)
        proc.flush(addr)
        assert proc.read(addr).data[:7] == b"domain1"

    def test_domain_requires_flag(self):
        from repro.config import SecureProcessorConfig

        proc = SecureProcessor(
            SecureProcessorConfig.sct_default(protected_size=64 * MIB)
        )
        with pytest.raises(ValueError):
            proc.mee.set_page_domain(10, 1)

    def test_negative_domain_rejected(self):
        proc = SecureProcessor(isolated_tree_config(protected_size=64 * MIB))
        with pytest.raises(ValueError):
            proc.mee.set_page_domain(10, -1)


class TestPartitionDefense:
    def test_two_socket_config(self):
        config = partitioned_llc_config(protected_size=64 * MIB)
        assert config.sockets == 2
        proc = SecureProcessor(config)
        assert len(proc.caches.l3s) == 2
