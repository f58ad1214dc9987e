"""Tests for the integrity trees (HT, SCT, SIT)."""

import pytest

from repro.config import MIB, SecureProcessorConfig
from repro.crypto.prf import keyed_prf
from repro.secmem.counters import EncryptionCounterStore
from repro.secmem.layout import MetadataLayout
from repro.secmem.tree import (
    CounterTree,
    HashTree,
    TreeIntegrityError,
    build_tree,
)

KEY = keyed_prf(b"test", "tree", out_len=32)


def make_sct(protected_size=16 * MIB):
    config = SecureProcessorConfig.sct_default(protected_size=protected_size)
    layout = MetadataLayout(config)
    counters = EncryptionCounterStore(config.counters, layout)
    tree = CounterTree(config, layout, KEY)
    return config, layout, counters, tree


def make_sit():
    config = SecureProcessorConfig.sgx_default(epc_size=16 * MIB)
    layout = MetadataLayout(config)
    counters = EncryptionCounterStore(config.counters, layout)
    tree = CounterTree(config, layout, KEY)
    return config, layout, counters, tree


def make_ht(protected_size=16 * MIB):
    config = SecureProcessorConfig.ht_default(protected_size=protected_size)
    layout = MetadataLayout(config)
    counters = EncryptionCounterStore(config.counters, layout)
    tree = HashTree(config, layout, KEY, counters.counter_block_image)
    return config, layout, counters, tree


class TestCounterTreeStructure:
    def test_fresh_nodes_verify(self):
        _, layout, _, tree = make_sct()
        for level in range(len(layout.levels)):
            tree.verify_node(level, 0)

    def test_path_nodes_cover_all_levels(self):
        _, layout, _, tree = make_sct()
        path = tree.path_nodes(100)
        assert len(path) == len(layout.levels)
        assert path[0] == (0, 100 // 32)

    def test_build_tree_dispatch(self):
        config, layout, counters, _ = make_sct()
        tree = build_tree(config, layout, KEY, counters.counter_block_image)
        assert isinstance(tree, CounterTree)
        config, layout, counters, _ = make_ht()
        tree = build_tree(config, layout, KEY, counters.counter_block_image)
        assert isinstance(tree, HashTree)

    def test_counter_tree_rejects_hash_kind(self):
        config, layout, _, _ = make_ht()
        with pytest.raises(ValueError):
            CounterTree(config, layout, KEY)


class TestLazyBumps:
    def test_bump_leaf_counts_writebacks(self):
        _, _, _, tree = make_sct()
        for _ in range(5):
            tree.bump_leaf(cb_index=3)
        assert tree.leaf_parent_value(3) == 5
        assert tree.leaf_parent_value(4) == 0

    def test_bump_leaf_rehashes_node(self):
        _, _, _, tree = make_sct()
        tree.bump_leaf(0)
        tree.verify_node(0, 0)  # hash stays consistent

    def test_bump_node_increments_parent_minor(self):
        _, layout, _, tree = make_sct()
        tree.bump_node(0, 5)
        parent_level, parent_index = layout.parent_of(0, 5)
        slot = layout.child_slot(0, 5)
        assert tree._node(parent_level, parent_index).minors[slot] == 1
        tree.verify_node(0, 5)
        tree.verify_node(parent_level, parent_index)

    def test_bump_top_level_hits_root_counter(self):
        _, layout, _, tree = make_sct()
        top = len(layout.levels) - 1
        tree.bump_node(top, 0)
        assert tree.root_counter(0) == 1
        tree.verify_node(top, 0)

    def test_parent_value_chain(self):
        _, layout, _, tree = make_sct()
        tree.bump_node(0, 0)
        tree.bump_node(0, 0)
        assert tree.parent_value(0, 0) == 2


class TestCounterTreeOverflow:
    def test_minor_overflow_resets_and_majors(self):
        _, _, _, tree = make_sct()
        for _ in range(127):
            update = tree.bump_leaf(0)
            assert not update.overflowed
        update = tree.bump_leaf(0)
        assert update.overflowed
        overflow = update.overflows[0]
        assert overflow.level == 0
        node = tree._node(0, 0)
        assert node.major == 1
        assert node.minors[0] == 1
        assert all(m == 0 for m in node.minors[1:])
        assert len(overflow.counter_blocks) == 32

    def test_overflow_keeps_tree_verifiable(self):
        _, layout, _, tree = make_sct()
        for _ in range(200):
            tree.bump_leaf(0)
        for level in range(len(layout.levels)):
            tree.verify_node(level, 0)

    def test_mid_level_overflow_resets_descendants(self):
        _, layout, _, tree = make_sct()
        # Touch two L0 nodes so they materialise under L1 node 0.
        tree.bump_leaf(0)
        tree.bump_leaf(32)
        for _ in range(128):
            tree.bump_node(0, 0)  # saturate the L1 minor for L0 node 0
        node0 = tree._node(0, 0)
        assert node0.major >= 1  # reset + incremented by the overflow
        assert tree.overflow_count >= 1
        tree.verify_node(0, 0)
        tree.verify_node(0, 1)
        tree.verify_node(1, 0)

    def test_sit_counters_do_not_overflow(self):
        _, _, _, tree = make_sit()
        assert not tree.has_major
        for _ in range(1000):
            update = tree.bump_leaf(0)
            assert not update.overflowed
        assert tree.leaf_parent_value(0) == 1000


class TestCounterTreeTamper:
    def test_spoofed_minor_detected(self):
        _, _, _, tree = make_sct()
        tree.bump_leaf(0)
        tree.tamper_minor(0, 0, slot=2, value=77)
        with pytest.raises(TreeIntegrityError):
            tree.verify_node(0, 0)

    def test_replayed_node_detected(self):
        _, _, _, tree = make_sct()
        tree.bump_leaf(0)
        snapshot = tree.node_image(0, 0)
        tree.bump_leaf(0)
        tree.bump_node(0, 0)  # advance the parent counter
        tree.tamper_replay(0, 0, snapshot)
        with pytest.raises(TreeIntegrityError):
            tree.verify_node(0, 0)

    def test_replay_without_parent_advance_also_detected(self):
        # Replay an old node image after further updates to the same node:
        # the node's own content hash binds its (advanced) parent value.
        _, _, _, tree = make_sct()
        tree.bump_node(0, 0)
        snapshot = tree.node_image(0, 0)
        tree.bump_node(0, 0)
        tree.tamper_replay(0, 0, snapshot)
        with pytest.raises(TreeIntegrityError):
            tree.verify_node(0, 0)


class TestHashTree:
    def test_fresh_tree_verifies(self):
        _, layout, counters, tree = make_ht()
        tree.verify_counter_block(0)
        for level in range(len(layout.levels)):
            tree.verify_node(level, 0)

    def test_update_chain_stays_consistent(self):
        _, layout, counters, tree = make_ht()
        counters.increment(5)
        tree.on_counter_block_update(0, counters.counter_block_image(0))
        tree.verify_counter_block(0)
        for level in range(len(layout.levels)):
            tree.verify_node(level, layout.node_index(level, 0))

    def test_stale_counter_block_detected(self):
        _, _, counters, tree = make_ht()
        counters.increment(5)  # change content without updating the tree
        with pytest.raises(TreeIntegrityError):
            tree.verify_counter_block(0)

    def test_lazy_bumps_match_eager_update(self):
        _, layout, counters, tree = make_ht()
        counters.increment(5)
        tree.bump_leaf(0)
        level, index = 0, 0
        while True:
            parent = layout.parent_of(level, index)
            tree.bump_node(level, index)
            if parent is None:
                break
            level, index = parent
        tree.verify_counter_block(0)
        for check_level in range(len(layout.levels)):
            tree.verify_node(check_level, layout.node_index(check_level, 0))

    def test_tampered_child_hash_detected(self):
        _, _, _, tree = make_ht()
        tree.tamper_child_hash(1, 0, slot=0, value=12345)
        with pytest.raises(TreeIntegrityError):
            tree.verify_node(0, 0)

    def test_no_overflow_in_hash_tree(self):
        _, _, counters, tree = make_ht()
        for _ in range(300):
            update = tree.bump_leaf(0)
            assert not update.overflowed

    def test_hash_tree_rejects_counter_kind(self):
        config, layout, counters, _ = make_sct()
        with pytest.raises(ValueError):
            HashTree(config, layout, KEY, counters.counter_block_image)
