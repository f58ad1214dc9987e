"""Tests for the defense models (MIRAGE, isolated trees, partitioning)."""

import dataclasses

import pytest

from repro.attacks.mapping import MetadataMapper
from repro.config import DEFENSES, MIB, PAGE_SIZE, preset_config, preset_names
from repro.defenses import mirage_eviction_curve
from repro.mem.mirage import MirageCache
from repro.proc import SecureProcessor
from repro.secmem.engine import DOMAIN_SHIFT

#: What each Section IX defense changes on every preset, and nothing else.
DEFENSE_SPEC = {
    "none": {},
    "isolated_trees": {"isolated_trees": True},
    "split_llc": {"sockets": 2},
}


def _isolated_trees_machine() -> SecureProcessor:
    return SecureProcessor(preset_config(
        "sct", defense="isolated_trees", protected_size=64 * MIB,
        functional_crypto=False,
    ))


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


class TestDefenseTable:
    def test_table_is_the_spec(self):
        assert DEFENSES == DEFENSE_SPEC

    @pytest.mark.parametrize("defense", DEFENSES)
    @pytest.mark.parametrize("preset", preset_names())
    def test_defense_changes_exactly_its_fields(self, preset, defense):
        plain = preset_config(preset)
        defended = preset_config(preset, defense=defense)
        changed = {
            f.name: getattr(defended, f.name)
            for f in dataclasses.fields(plain)
            if getattr(defended, f.name) != getattr(plain, f.name)
        }
        assert changed == DEFENSE_SPEC[defense]
        proc = SecureProcessor(defended.with_overrides(functional_crypto=False))
        assert len(proc.caches.l3s) == defended.sockets

    def test_explicit_override_wins(self):
        config = preset_config("sct", defense="split_llc", sockets=1)
        assert config == preset_config("sct")

    @pytest.mark.parametrize("name", ["enigma", ["sct"], None])
    def test_unknown_preset_names_the_choices(self, name):
        with pytest.raises(ValueError, match=r"unknown preset .*\(valid presets: ht, sct, sgx\)"):
            preset_config(name)

    @pytest.mark.parametrize("name", ["moat", ["none"], None])
    def test_unknown_defense_names_the_choices(self, name):
        with pytest.raises(
            ValueError,
            match=r"unknown defense .*\(valid defenses: isolated_trees, none, split_llc\)",
        ):
            preset_config("sct", defense=name)


class TestIsolationDefense:
    def test_domains_get_disjoint_trees(self):
        proc = _isolated_trees_machine()
        proc.mee.set_page_domain(100, 1)
        proc.mee.set_page_domain(200, 2)
        proc.read(100 * PAGE_SIZE)
        proc.read(200 * PAGE_SIZE)
        assert set(proc.mee._domain_trees) >= {1, 2}
        assert proc.mee._domain_trees[1] is not proc.mee._domain_trees[2]

    def test_domain_roundtrip(self):
        proc = _isolated_trees_machine()
        proc.mee.set_page_domain(50, 1)
        addr = 50 * PAGE_SIZE
        proc.write_through(addr, b"domain1")
        proc.drain_writes()
        proc.mee.flush_metadata_cache(proc.cycle)
        proc.flush(addr)
        assert proc.read(addr).data[:7] == b"domain1"

    def test_mapper_finds_domain_tagged_tree_nodes(self):
        proc = _isolated_trees_machine()
        proc.mee.set_page_domain(50, 1)
        proc.read(50 * PAGE_SIZE)
        tagged = [b for b in proc.metadata_cache if b >> DOMAIN_SHIFT == 1]
        assert tagged
        mapper = MetadataMapper(proc)
        assert all(mapper.is_tree_target(block) for block in tagged)
        counter_block = proc.layout.counter_block_addr(50 * PAGE_SIZE)
        assert counter_block in set(proc.metadata_cache)
        assert not mapper.is_tree_target(counter_block)

    def test_domain_requires_flag(self):
        from repro.config import SecureProcessorConfig

        proc = SecureProcessor(
            SecureProcessorConfig.sct_default(protected_size=64 * MIB)
        )
        with pytest.raises(ValueError):
            proc.mee.set_page_domain(10, 1)

    def test_negative_domain_rejected(self):
        proc = _isolated_trees_machine()
        with pytest.raises(ValueError):
            proc.mee.set_page_domain(10, -1)
