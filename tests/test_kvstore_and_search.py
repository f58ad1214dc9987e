"""Tests for the persistent KV-store victim and eviction-set search."""

import pytest

from repro.attacks.search import EvictionSetSearch
from repro.config import MIB, PAGE_SIZE, SecureProcessorConfig
from repro.os import PageAllocator, Process
from repro.proc import SecureProcessor
from repro.victims.kvstore import PersistentKvStore


def make_env(size=128 * MIB):
    proc = SecureProcessor(
        SecureProcessorConfig.sct_default(
            protected_size=size, functional_crypto=False
        )
    )
    alloc = PageAllocator(proc.layout.data_size // PAGE_SIZE, cores=4)
    return proc, alloc


class TestKvStore:
    def setup_method(self):
        self.proc, self.alloc = make_env()
        self.process = Process(self.proc, self.alloc, cleanse=True)
        self.store = PersistentKvStore(self.process, buckets=4)

    def _run(self, generator):
        return list(generator)

    def test_put_get_roundtrip(self):
        self._run(self.store.put("k", b"value"))
        assert self.store.get("k") == b"value"
        assert len(self.store) == 1

    def test_get_missing(self):
        assert self.store.get("absent") is None

    def test_put_emits_log_then_bucket(self):
        steps = self._run(self.store.put("k", b"v"))
        assert [s.operation for s in steps] == ["log", "bucket"]
        assert steps[1].bucket == self.store.bucket_of("k")

    def test_bucket_hash_stable(self):
        assert self.store.bucket_of("alice") == self.store.bucket_of("alice")
        assert 0 <= self.store.bucket_of("bob") < 4

    def test_bucket_pages_distinct(self):
        frames = {self.store.bucket_frame(b) for b in range(4)}
        frames.add(self.store.log_frame)
        assert len(frames) == 5

    def test_puts_yield_log_and_bucket_steps(self):
        steps = self._run(self.store.put("a", b"1"))
        steps += self._run(self.store.put("b", b"2"))
        assert len(steps) == 4
        assert len(self.store) == 2

    def test_writes_reach_memory_controller(self):
        before = self.proc.registry.get("mee.writes_serviced")
        self._run(self.store.put("k", b"v"))
        self.proc.drain_writes()
        assert self.proc.registry.get("mee.writes_serviced") > before

    def test_bucket_count_validation(self):
        with pytest.raises(ValueError):
            PersistentKvStore(self.process, buckets=0)


class TestEvictionSetSearch:
    def test_blind_search_finds_true_eviction_set(self):
        proc, alloc = make_env()
        target_frame = alloc.alloc_specific(1000)
        target = target_frame * PAGE_SIZE
        pool = [alloc.alloc_specific(f) for f in range(2000, 7000)]
        search = EvictionSetSearch(proc, alloc, target_block=target, core=1)
        minimal = search.find_minimal_set(pool)
        # Must be a reliable, small set...
        assert len(minimal) <= 16
        assert search.verify(minimal, trials=3) == 1.0
        # ...and every member must genuinely alias the leaf's cache set.
        leaf = proc.layout.node_addr_for_data(target, 0)
        target_set = proc.metadata_cache.set_index_of(leaf)
        for frame in minimal:
            addr = frame * PAGE_SIZE
            path = [proc.layout.counter_block_addr(addr)] + [
                proc.layout.node_addr_for_data(addr, level) for level in range(6)
            ]
            assert any(
                proc.metadata_cache.set_index_of(meta) == target_set
                for meta in path
            )

    def test_insufficient_pool_rejected(self):
        proc, alloc = make_env()
        target = alloc.alloc_specific(1000) * PAGE_SIZE
        pool = [alloc.alloc_specific(f) for f in range(2000, 2050)]
        search = EvictionSetSearch(proc, alloc, target_block=target, core=1)
        with pytest.raises(ValueError):
            search.find_minimal_set(pool)

    def test_calibration_produces_usable_threshold(self):
        proc, alloc = make_env()
        target = alloc.alloc_specific(500) * PAGE_SIZE
        search = EvictionSetSearch(proc, alloc, target_block=target, core=1)
        assert 100 < search.threshold < 2000
