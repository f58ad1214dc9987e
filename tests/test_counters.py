"""Tests for encryption-counter schemes and Algorithm-1 overflow handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    CounterConfig,
    CounterScheme,
    MIB,
    preset_config,
)
from repro.secmem.counters import EncryptionCounterStore
from repro.secmem.layout import MetadataLayout


def make_store(scheme, **counter_kwargs):
    counters = CounterConfig(scheme=scheme, **counter_kwargs)
    config = preset_config("sct", protected_size=16 * MIB, counters=counters)
    layout = MetadataLayout(config)
    return EncryptionCounterStore(counters, layout)


class TestSplitCounters:
    def test_increment_advances_minor(self):
        store = make_store(CounterScheme.SPLIT)
        event = store.increment(5)
        assert not event.overflowed
        major, minors = store.split_state(0)
        assert major == 0
        assert minors[5] == 1

    def test_fused_counter_composition(self):
        store = make_store(CounterScheme.SPLIT)
        assert store.fused(major=1, minor=0) == 128
        assert store.fused(major=1, minor=3) == 131

    def test_current_tracks_increment(self):
        store = make_store(CounterScheme.SPLIT)
        store.increment(7)
        store.increment(7)
        assert store.current(7) == 2
        assert store.current(8) == 0

    def test_minor_overflow_triggers_group_reencrypt(self):
        store = make_store(CounterScheme.SPLIT)
        store.increment(64)  # mark a neighbor in the same page as written
        for _ in range(127):
            event = store.increment(65)
            assert not event.overflowed
        event = store.increment(65)
        assert event.overflowed
        assert store.overflows == 1
        # Only written blocks in the group (excluding the trigger) re-encrypt.
        assert set(event.reencrypt) == {64}
        old, new = event.reencrypt[64]
        assert old == store.fused(0, 1)
        assert new == store.fused(1, 0)

    def test_overflow_resets_minors_bumps_major(self):
        store = make_store(CounterScheme.SPLIT)
        for _ in range(128):
            store.increment(0)
        major, minors = store.split_state(0)
        assert major == 1
        assert minors[0] == 1
        assert all(m == 0 for m in minors[1:])

    def test_unwritten_blocks_not_reencrypted(self):
        store = make_store(CounterScheme.SPLIT)
        for _ in range(128):
            event = store.increment(0)
        assert event.overflowed
        assert event.reencrypt == {}

    def test_counter_block_image_format(self):
        store = make_store(CounterScheme.SPLIT)
        store.increment(1)
        image = store.counter_block_image(0)
        assert len(image) == 65  # major + 64 minors
        assert image[0] == 0 and image[2] == 1

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_sum_of_minors_invariant(self, writes):
        # Without overflow, total minor value equals total writes.
        store = make_store(CounterScheme.SPLIT)
        overflow_resets = 0
        for block in writes:
            if store.increment(block).overflowed:
                overflow_resets += 1
        if overflow_resets == 0:
            _, minors = store.split_state(0)
            assert sum(minors) == len(writes)


class TestMonolithicCounters:
    def test_increment(self):
        store = make_store(CounterScheme.MONOLITHIC)
        store.increment(3)
        store.increment(3)
        assert store.current(3) == 2

    def test_overflow_changes_key_epoch(self):
        store = make_store(CounterScheme.MONOLITHIC, monolithic_bits=2)
        store.increment(9)  # another written block
        for _ in range(3):
            store.increment(4)
        event = store.increment(4)
        assert event.overflowed
        assert event.key_epoch == 1
        assert 9 in event.reencrypt  # whole-memory re-encryption

    def test_56bit_counters_practically_never_overflow(self):
        store = make_store(CounterScheme.MONOLITHIC, monolithic_bits=56)
        for _ in range(1000):
            assert not store.increment(0).overflowed

    def test_image_is_per_block_counters(self):
        store = make_store(CounterScheme.MONOLITHIC)
        store.increment(1)
        image = store.counter_block_image(0)
        assert len(image) == 8
        assert image[1] == 1


class TestGlobalCounter:
    def test_snapshots_differ_across_writes(self):
        store = make_store(CounterScheme.GLOBAL)
        store.increment(0)
        store.increment(1)
        assert store.current(0) == 1
        assert store.current(1) == 2

    def test_global_overflow_reencrypts_everything(self):
        store = make_store(CounterScheme.GLOBAL, monolithic_bits=3)
        for block in range(6):
            store.increment(block)
        event = store.increment(6)
        assert not event.overflowed
        event = store.increment(7)
        assert event.overflowed
        assert len(event.reencrypt) == 7
        assert store.key_epoch == 1

    def test_split_state_rejected_outside_sc(self):
        store = make_store(CounterScheme.GLOBAL)
        with pytest.raises(ValueError):
            store.split_state(0)


class TestOverflowFrequency:
    """VUL-1 characterisation: SC bounds re-encryption to one group."""

    def test_sc_group_smaller_than_moc_group(self):
        sc = make_store(CounterScheme.SPLIT)
        moc = make_store(CounterScheme.MONOLITHIC, monolithic_bits=7)
        for block in (0, 70, 140):
            sc.increment(block)
            moc.increment(block)
        for _ in range(127):
            sc.increment(1)
            moc.increment(1)
        sc_event = sc.increment(1)
        moc_event = moc.increment(1)
        assert sc_event.overflowed and moc_event.overflowed
        # SC re-encrypts only its page group; MoC all written memory.
        assert set(sc_event.reencrypt) == {0}
        assert set(moc_event.reencrypt) == {0, 70, 140}

    def test_tamper_api(self):
        store = make_store(CounterScheme.SPLIT)
        store.tamper_split_minor(0, 5, 99)
        _, minors = store.split_state(0)
        assert minors[5] == 99
        with pytest.raises(ValueError):
            make_store(CounterScheme.GLOBAL).tamper_split_minor(0, 0, 1)
