"""Direct tests of the SecureProcessor surface."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BLOCK_SIZE, DEFENSES, MIB, SecureProcessorConfig
from repro.proc import AccessPath, SecureProcessor
from repro.synth import generate_program
from repro.synth.runner import compile_program, synth_config


@pytest.fixture()
def proc():
    return SecureProcessor(
        SecureProcessorConfig.sct_default(protected_size=64 * MIB)
    )


class TestClock:
    def test_every_access_advances_cycle(self, proc):
        start = proc.cycle
        proc.read(0x1000)
        assert proc.cycle > start

    def test_advance(self, proc):
        proc.advance(500)
        assert proc.cycle == 500
        with pytest.raises(ValueError):
            proc.advance(-1)

    def test_quiesce_waits_out_banks(self, proc):
        proc.read(0x1000)
        proc.memctrl.dram.occupy_all(proc.cycle, 5000)
        waited = proc.quiesce()
        assert waited >= 5000
        assert proc.quiesce() == 0  # idempotent once idle

    def test_result_carries_cycle(self, proc):
        result = proc.read(0x1000)
        assert result.cycle == proc.cycle


class TestWriteSemantics:
    def test_write_none_preserves_value(self, proc):
        proc.write(0x2000, b"keep me")
        proc.write(0x2000, None)  # touch without changing data
        assert proc.read(0x2000).data[:7] == b"keep me"

    def test_write_oversize_rejected(self, proc):
        with pytest.raises(ValueError):
            proc.write(0x2000, b"x" * 65)

    def test_write_pads_to_block(self, proc):
        proc.write(0x2000, b"ab")
        assert proc.read(0x2000).data == b"ab" + bytes(62)

    def test_write_through_posts_to_queue(self, proc):
        proc.write_through(0x2000, b"posted")
        assert proc.memctrl.pending_writes() >= 1
        proc.drain_writes()
        assert proc.memctrl.pending_writes() == 0

    def test_write_through_drops_cached_copy(self, proc):
        proc.read(0x2000)
        proc.write_through(0x2000, b"new")
        assert not proc.caches.contains(0x2000)

    def test_flush_clean_block_no_writeback(self, proc):
        proc.read(0x3000)
        pending_before = proc.memctrl.pending_writes()
        proc.flush(0x3000)
        assert proc.memctrl.pending_writes() == pending_before


class TestWriteBacks:
    def test_dirty_l1_victim_of_an_l2_hit_promotion_is_not_lost(self, proc):
        """An L2-hit promotion that evicts a dirty L1 line whose L2 copy
        is gone folds the data into the inclusive L3, so it reaches
        memory when L3 evicts the line."""
        caches = proc.caches.core_caches[0]
        l1, l2, l3 = caches.l1, caches.l2, proc.caches.l3s[0]
        # Addresses this far apart share an L1, L2 or L3 set.
        l1_stride, l2_stride, l3_stride = (
            cache.num_sets * BLOCK_SIZE for cache in (l1, l2, l3)
        )
        x, z = 0, l1_stride  # same L1 set, different L2 sets
        proc.write(x, b"must survive")
        proc.read(z)
        conflicts = [x + k * l2_stride for k in range(1, l2.ways + 1)]
        for addr in conflicts:
            proc.read(addr)
        assert l1.is_dirty(x) and not l2.contains(x)
        # Touch X so Z is the set's least recently used line, fill the
        # free ways plus one so Z leaves L1, then make X the LRU line.
        proc.read(x)
        free_ways = l1.ways - 2 - len(conflicts)
        for k in range(2, 2 + free_ways + 1):
            proc.read(x + k * l1_stride)
        assert not l1.contains(z)
        for addr in conflicts:
            proc.read(addr)
        assert proc.read(z).path is AccessPath.L2_HIT
        assert not l1.contains(x)
        for k in range(1, l3.ways + 1):
            proc.read(x + k * l3_stride)
        assert not proc.caches.contains(x)
        assert proc.read(x).data == proc.architectural_value(x)
        assert proc.architectural_value(x).startswith(b"must survive")


class TestStats:
    def test_path_counting(self, proc):
        proc.read(0x4000)
        proc.read(0x4000)
        assert proc.registry.get("proc.path_mem_tree_miss") >= 1
        assert proc.registry.get("proc.path_l1_hit") >= 1

    def test_read_write_flush_counters(self, proc):
        proc.read(0x4000)
        proc.write(0x4000, b"x")
        proc.flush(0x4000)
        assert proc.registry.get("proc.reads") == 1
        assert proc.registry.get("proc.writes") == 1
        assert proc.registry.get("proc.flushes") == 1

    def test_registry_names_every_tally(self, proc):
        expected = {"proc.reads", "proc.writes", "proc.flushes"}
        expected |= {f"proc.path_{path.name.lower()}" for path in AccessPath}
        expected |= {
            f"mee.{name}"
            for name in (
                "reads", "writes_serviced", "counter_hits", "counter_misses",
                "tree_node_loads", "enc_counter_overflows",
                "tree_counter_overflows", "reencrypted_blocks",
            )
        }
        tallies = {
            path for path in proc.registry.snapshot()
            if path.startswith(("proc.", "mee."))
        }
        assert tallies == expected


class TestCrossLayerTallies:
    """The processor's per-path tallies and the MEE's metadata tallies
    count the same memory reads from two layers, so they agree."""

    @pytest.mark.parametrize("defense", DEFENSES)
    @pytest.mark.parametrize("preset", ["sct", "ht", "sgx"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_path_tallies_match_metadata_tallies(self, preset, defense, seed):
        spec = compile_program(generate_program(seed))
        for secret in (0, 1):
            proc = SecureProcessor(synth_config(preset, defense))
            spec.run(proc, secret)
            tally = proc.registry.get
            hits, misses = tally("mee.counter_hits"), tally("mee.counter_misses")
            assert tally("mee.reads") == hits + misses
            assert tally("proc.path_mem_counter_hit") == hits
            assert (
                tally("proc.path_mem_tree_hit") + tally("proc.path_mem_tree_miss")
                == misses
            )


class TestJitter:
    def test_zero_jitter_deterministic(self):
        results = []
        for _ in range(2):
            proc = SecureProcessor(
                SecureProcessorConfig.sct_default(protected_size=64 * MIB)
            )
            results.append(proc.read(0x1000).latency)
        assert results[0] == results[1]

    def test_jitter_perturbs_reported_only(self):
        proc = SecureProcessor(
            SecureProcessorConfig.sct_default(
                protected_size=64 * MIB, timer_jitter_sigma=30
            )
        )
        latencies = set()
        for i in range(8):
            proc.flush(0x1000)
            proc.quiesce()
            latencies.add(proc.read(0x1000).latency)
        assert len(latencies) > 1  # reported latency varies...
        # ...but reported latency never goes non-positive.
        assert all(latency >= 1 for latency in latencies)

    def test_jitter_seed_deterministic(self):
        def run(seed):
            proc = SecureProcessor(
                SecureProcessorConfig.sct_default(
                    protected_size=64 * MIB, timer_jitter_sigma=20, seed=seed
                )
            )
            return [proc.read(0x1000 + i * 64).latency for i in range(5)]

        assert run(1) == run(1)
        assert run(1) != run(2)

    def test_jittered_latencies_are_pinned(self):
        """The timer noise is seeded on the first jittered read, from the
        same material as before, so the reported latencies of a fixed
        sequence stay what they were when every build seeded it."""
        proc = SecureProcessor(
            SecureProcessorConfig.sct_default(timer_jitter_sigma=4.0, seed=11)
        )
        observed = [proc.read(addr).latency for addr in (0x0, 0x0, 0x40, 0x1000, 0x0)]
        proc.flush(0x0)
        observed.append(proc.read(0x0).latency)
        proc.write(0x2000, b"x")
        observed.append(proc.read(0x2000).latency)
        assert observed == [561, 4, 212, 270, 3, 173, 4]
        assert proc.cycle == 1538


class TestGuards:
    def test_metadata_region_not_directly_accessible(self, proc):
        with pytest.raises(ValueError):
            proc.read(proc.layout.counter_base)
        with pytest.raises(ValueError):
            proc.write(proc.layout.levels[0].base, b"x")

    @pytest.mark.parametrize("op", ["read", "write", "write_through"])
    @pytest.mark.parametrize("core", [-1, -2, 4, 99])
    def test_out_of_range_core_rejected(self, proc, op, core):
        """A core the machine does not have is refused before anything
        runs: a negative one must not reach another core's caches."""
        assert proc.config.cores == 4
        cycle, snapshot = proc.cycle, proc.registry.snapshot()
        with pytest.raises(ValueError, match=rf"core {core}\b"):
            getattr(proc, op)(0x1000, core=core)
        assert (proc.cycle, proc.registry.snapshot()) == (cycle, snapshot)
