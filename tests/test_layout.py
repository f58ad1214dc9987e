"""Tests for the metadata address layout."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    BLOCK_SIZE,
    MIB,
    PAGE_SIZE,
    preset_config,
)
from repro.secmem.layout import MetadataLayout


@pytest.fixture(scope="module")
def sct_layout():
    return MetadataLayout(preset_config("sct", protected_size=256 * MIB))


@pytest.fixture(scope="module")
def sgx_layout():
    return MetadataLayout(preset_config("sgx"))


class TestRegions:
    def test_counter_region_above_data(self, sct_layout):
        assert sct_layout.counter_base >= sct_layout.data_size

    def test_counter_count_split_mode(self, sct_layout):
        # SC: one counter block per page.
        assert sct_layout.num_counter_blocks == 256 * MIB // PAGE_SIZE

    def test_counter_count_sgx_mode(self, sgx_layout):
        # MoC 56-bit: eight counters per block -> one per 8 data blocks.
        assert sgx_layout.num_counter_blocks == sgx_layout.num_data_blocks // 8

    def test_sct_levels_match_table1(self, sct_layout):
        arities = [g.arity for g in sct_layout.levels]
        assert arities == [32, 16, 16, 16, 16, 16]
        assert sct_layout.levels[0].node_count == sct_layout.num_counter_blocks // 32

    def test_sgx_levels_match_sit(self, sgx_layout):
        arities = [g.arity for g in sgx_layout.levels]
        assert arities == [8, 8, 8]
        # One SIT L0 node block covers 8 counter blocks = one EPC page.
        pages = sgx_layout.data_size // PAGE_SIZE
        assert sgx_layout.levels[0].node_count == pages

    def test_regions_disjoint(self, sct_layout):
        spans = [(sct_layout.counter_base, sct_layout.counter_base + sct_layout.num_counter_blocks * BLOCK_SIZE)]
        spans.append((sct_layout.mac_base, sct_layout.levels[0].base))
        spans += [(g.base, g.base + g.size) for g in sct_layout.levels]
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    def test_unaligned_size_rejected(self):
        with pytest.raises(ValueError):
            MetadataLayout(
                preset_config("sct", protected_size=PAGE_SIZE + 1)
            )

    def test_describe_mentions_all_levels(self, sct_layout):
        text = sct_layout.describe()
        assert "tree L0" in text and "tree L5" in text


class TestPredicates:
    def test_protected_data(self, sct_layout):
        assert sct_layout.is_protected_data(0)
        assert sct_layout.is_protected_data(sct_layout.data_size - 1)
        assert not sct_layout.is_protected_data(sct_layout.data_size)

    def test_counter_addr(self, sct_layout):
        assert sct_layout.is_counter_addr(sct_layout.counter_base)
        assert not sct_layout.is_counter_addr(0)

    def test_tree_addr(self, sct_layout):
        assert sct_layout.is_tree_addr(sct_layout.levels[0].base)
        assert sct_layout.is_tree_addr(sct_layout.levels[-1].base)
        assert not sct_layout.is_tree_addr(0)

    def test_metadata_covers_counters_and_tree(self, sct_layout):
        assert sct_layout.is_metadata(sct_layout.counter_base)
        assert sct_layout.is_metadata(sct_layout.levels[2].base)
        assert not sct_layout.is_metadata(100)


class TestCounterMapping:
    def test_same_page_same_counter_block(self, sct_layout):
        assert sct_layout.counter_block_index(0x1000) == sct_layout.counter_block_index(0x1FC0)

    def test_adjacent_pages_adjacent_counter_blocks(self, sct_layout):
        assert (
            sct_layout.counter_block_index(0x2000)
            == sct_layout.counter_block_index(0x1000) + 1
        )

    def test_counter_slot(self, sct_layout):
        assert sct_layout.counter_slot(0x1000) == 0
        assert sct_layout.counter_slot(0x1040) == 1
        assert sct_layout.counter_slot(0x1FC0) == 63

    def test_counter_addr_roundtrip(self, sct_layout):
        addr = sct_layout.counter_block_addr(0x5000)
        assert sct_layout.counter_block_index_of_addr(addr) == sct_layout.counter_block_index(0x5000)

    def test_outside_region_rejected(self, sct_layout):
        with pytest.raises(ValueError):
            sct_layout.counter_block_index(sct_layout.data_size)

    def test_data_blocks_of_counter_block(self, sct_layout):
        blocks = sct_layout.data_blocks_of_counter_block(2)
        assert len(blocks) == 64
        assert blocks.start == 128

    def test_mac_addrs_unique(self, sct_layout):
        assert sct_layout.mac_addr(0) != sct_layout.mac_addr(64)


class TestTreeMapping:
    def test_node_index_level0(self, sct_layout):
        assert sct_layout.node_index(0, 0) == 0
        assert sct_layout.node_index(0, 31) == 0
        assert sct_layout.node_index(0, 32) == 1

    def test_node_index_level1(self, sct_layout):
        # 32 cb per L0 node, 16 L0 nodes per L1 node -> 512 cb per L1 node.
        assert sct_layout.node_index(1, 511) == 0
        assert sct_layout.node_index(1, 512) == 1

    def test_parent_child_consistency(self, sct_layout):
        for level in range(len(sct_layout.levels) - 1):
            index = min(17, sct_layout.levels[level].node_count - 1)
            parent = sct_layout.parent_of(level, index)
            assert parent is not None
            parent_level, parent_index = parent
            assert parent_level == level + 1
            assert index in sct_layout.children_of(parent_level, parent_index)

    def test_root_has_no_parent(self, sct_layout):
        top = len(sct_layout.levels) - 1
        assert sct_layout.parent_of(top, 0) is None

    def test_node_addr_reverse_mapping(self, sct_layout):
        for level in (0, 1, 2):
            addr = sct_layout.node_addr(level, 3)
            assert sct_layout.node_of_addr(addr) == (level, 3)

    def test_node_addr_out_of_range(self, sct_layout):
        with pytest.raises(ValueError):
            sct_layout.node_addr(0, sct_layout.levels[0].node_count)

    def test_node_of_addr_rejects_non_tree(self, sct_layout):
        with pytest.raises(ValueError):
            sct_layout.node_of_addr(0x1000)

    def test_counter_blocks_under_node(self, sct_layout):
        assert len(sct_layout.counter_blocks_under_node(0, 0)) == 32
        assert len(sct_layout.counter_blocks_under_node(1, 0)) == 512

    def test_node_addr_for_data(self, sct_layout):
        addr = sct_layout.node_addr_for_data(0x1000, 0)
        assert sct_layout.node_of_addr(addr) == (0, 0)

    @given(st.integers(min_value=0, max_value=256 * MIB - 1))
    @settings(max_examples=50, deadline=None)
    def test_path_is_consistent_chain(self, data_addr):
        layout = MetadataLayout(preset_config("sct", protected_size=256 * MIB))
        cb = layout.counter_block_index(data_addr)
        prev = None
        for level in range(len(layout.levels)):
            index = layout.node_index(level, cb)
            if prev is not None:
                assert layout.parent_of(level - 1, prev) == (level, index)
            prev = index


class TestSharingSets:
    def test_sgx_sharing_formula(self, sgx_layout):
        # Section VIII-B: groups of 1, 8, 64 consecutive EPC pages share a
        # tree node block at L0, L1, L2 respectively.
        assert len(sgx_layout.pages_sharing_node(10, 0)) == 1
        assert len(sgx_layout.pages_sharing_node(10, 1)) == 8
        assert len(sgx_layout.pages_sharing_node(10, 2)) == 64

    def test_sgx_sharing_group_alignment(self, sgx_layout):
        group = sgx_layout.pages_sharing_node(10, 1)
        assert group.start == 8  # aligned 8-page group containing page 10
        assert 10 in group

    def test_sct_leaf_covers_32_pages(self, sct_layout):
        # SC counter block covers one page; 32-ary leaf -> 32 pages (128KB).
        assert len(sct_layout.pages_sharing_node(5, 0)) == 32

    def test_sharing_grows_with_level(self, sct_layout):
        sizes = [len(sct_layout.pages_sharing_node(0, level)) for level in range(4)]
        assert sizes == sorted(sizes)
        assert sizes[1] == sizes[0] * 16
