"""Tests for the defense models (MIRAGE, isolated trees, partitioning)."""

import dataclasses
import hashlib

import pytest

from repro.attacks.mapping import MetadataMapper
from repro.config import DEFENSES, MIB, PAGE_SIZE, PRESETS, preset_config
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

#: sha256 of ``repr(preset_config(preset, defense=defense))`` for every
#: preset × defense.  The reprs read the same on every CPython of the CI
#: matrix (dataclasses, ints, floats, tuples and plain ``Enum`` members),
#: so a digest moves only when a Table-I parameter or a defense's fields do.
MACHINE_DIGESTS = {
    ("sct", "none"): "e22ca6df9931140358ccbfe2c097add5e48f03e73741cf1edbc29ea97789212f",
    ("sct", "isolated_trees"): "ecafdec3546535c79ca37bcb04606b9635f56d727177fc68601c8a0295796844",
    ("sct", "split_llc"): "0b6c798cb599aac097bbb0041ff74eb2b24e977536462f6592e4610fccf71b16",
    ("ht", "none"): "0eeccf37e19b3fc5ee5223949f71c4825c8ef8039b9f9fd6cdb15a1e9807a4f3",
    ("ht", "isolated_trees"): "680070de7e6bc83162444853d9a35c9c8a67d9dc53587585dc73d13ce80f10d9",
    ("ht", "split_llc"): "0041d07c034db50b1748e93e62801b775eb5d23501a5cc309073b3c2d1a04d1c",
    ("sgx", "none"): "09d897bbc50d7fcdc11f44c62d29dee9c11c30cfeac06c0024ff30860c14c6f8",
    ("sgx", "isolated_trees"): "e20f9cc38295bf79bb6354c8c55d1473675277b3b98e309adf9457a095fa6024",
    ("sgx", "split_llc"): "373c9bc3d908e097055de3600c58c846babfa3699f55618ad7d7cd1ee93cdaac",
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
    @pytest.mark.parametrize("preset", PRESETS)
    def test_defense_changes_exactly_its_fields(self, preset, defense):
        plain = preset_config(preset)
        defended = preset_config(preset, defense=defense)
        changed = {
            f.name: getattr(defended, f.name)
            for f in dataclasses.fields(plain)
            if getattr(defended, f.name) != getattr(plain, f.name)
        }
        assert changed == DEFENSE_SPEC[defense]
        proc = SecureProcessor(dataclasses.replace(defended, functional_crypto=False))
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


class TestMachinePins:
    def test_every_machine_is_pinned(self):
        assert set(MACHINE_DIGESTS) == {
            (preset, defense) for preset in PRESETS for defense in DEFENSES
        }

    @pytest.mark.parametrize("preset, defense", list(MACHINE_DIGESTS))
    def test_machine_has_its_pinned_fields(self, preset, defense):
        config = preset_config(preset, defense=defense)
        digest = hashlib.sha256(repr(config).encode()).hexdigest()
        assert digest == MACHINE_DIGESTS[preset, defense]


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
        proc = SecureProcessor(
            preset_config("sct", protected_size=64 * MIB)
        )
        with pytest.raises(ValueError):
            proc.mee.set_page_domain(10, 1)

    def test_negative_domain_rejected(self):
        proc = _isolated_trees_machine()
        with pytest.raises(ValueError):
            proc.mee.set_page_domain(10, -1)
