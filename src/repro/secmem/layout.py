"""Physical layout of protected data and its security metadata.

The protected region occupies physical addresses ``[0, protected_size)``.
Above it live, in order: the encryption-counter region (one 64-byte counter
block per counter group), the MAC region, and one region per integrity-tree
level.  Every metadata structure is addressable memory — that is the whole
point of the paper: metadata accesses contend for the metadata cache and
DRAM just like data accesses, and their addresses are *derivable from the
data address*, which is what lets an attacker construct eviction sets for
tree nodes it can never name directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (
    BLOCK_SIZE,
    PAGE_SIZE,
    CounterScheme,
    SecureProcessorConfig,
)
from repro.mem.block import block_address, block_index
from repro.utils.bitops import align_up

# Counters per 64-byte counter block, by scheme.  Split counters pack one
# page's worth (64-bit major + 64 x 7-bit minors = 64 bytes); monolithic
# 56-bit counters pack eight per block (GC stores per-block snapshots of the
# global counter at the same density).
_BLOCKS_PER_COUNTER_BLOCK = {
    CounterScheme.SPLIT: PAGE_SIZE // BLOCK_SIZE,
    CounterScheme.MONOLITHIC: 8,
    CounterScheme.GLOBAL: 8,
}


@dataclass(frozen=True)
class LevelGeometry:
    """One integrity-tree level's node-block region."""

    level: int
    arity: int
    node_count: int
    base: int

    @property
    def size(self) -> int:
        return self.node_count * BLOCK_SIZE


class MetadataLayout:
    """Address arithmetic between data blocks, counters and tree nodes."""

    def __init__(self, config: SecureProcessorConfig) -> None:
        self.config = config
        self.data_base = 0
        self.data_size = config.protected_size
        if self.data_size % PAGE_SIZE != 0:
            raise ValueError("protected size must be page-aligned")

        self.blocks_per_counter_block = _BLOCKS_PER_COUNTER_BLOCK[
            config.counters.scheme
        ]
        self.num_data_blocks = self.data_size // BLOCK_SIZE
        self.num_counter_blocks = -(-self.num_data_blocks // self.blocks_per_counter_block)

        # Region bases are staggered by a per-region block offset.  Without
        # it, every region base would be congruent mod the metadata-cache
        # set count (regions are large and page-aligned), making the whole
        # verification path of low-index pages alias into one cache set —
        # a pathology real memory maps do not have.
        stagger = 0

        def place(cursor: int, size: int) -> tuple[int, int]:
            nonlocal stagger
            stagger += 37
            base = align_up(cursor, PAGE_SIZE) + stagger * BLOCK_SIZE
            return base, align_up(base + size, PAGE_SIZE)

        self.counter_base, cursor = place(
            self.data_base + self.data_size, self.num_counter_blocks * BLOCK_SIZE
        )
        self.mac_base, cursor = place(cursor, self.num_data_blocks * 8)

        self.levels: list[LevelGeometry] = []
        covered = self.num_counter_blocks
        for level, arity in enumerate(config.tree.arities):
            node_count = max(1, -(-covered // arity))
            base, cursor = place(cursor, node_count * BLOCK_SIZE)
            self.levels.append(
                LevelGeometry(level=level, arity=arity, node_count=node_count, base=base)
            )
            covered = node_count
        self.root_entries = self.levels[-1].node_count
        self.total_size = cursor

    # ------------------------------------------------------------------
    # Region predicates
    # ------------------------------------------------------------------

    def is_protected_data(self, addr: int) -> bool:
        return self.data_base <= addr < self.data_base + self.data_size

    def is_counter_addr(self, addr: int) -> bool:
        return (
            self.counter_base
            <= addr
            < self.counter_base + self.num_counter_blocks * BLOCK_SIZE
        )

    def is_tree_addr(self, addr: int) -> bool:
        return any(
            geometry.base <= addr < geometry.base + geometry.size
            for geometry in self.levels
        )

    def is_metadata(self, addr: int) -> bool:
        return addr >= self.counter_base and addr < self.total_size

    # ------------------------------------------------------------------
    # Counter mapping
    # ------------------------------------------------------------------

    def decompose(self, data_addr: int) -> tuple[int, int, int]:
        """Metadata coordinates of the data block at ``data_addr``:
        ``(counter-block index, counter-block address, MAC address)``.

        The pure address step of the MEE's read and write-service paths,
        which have already checked that ``data_addr`` is protected data.
        """
        block = data_addr // BLOCK_SIZE
        cb_index = block // self.blocks_per_counter_block
        return (
            cb_index,
            self.counter_base + cb_index * BLOCK_SIZE,
            self.mac_base + block * 8,
        )

    def counter_block_index(self, data_addr: int) -> int:
        """Counter-block index covering the data block at ``data_addr``."""
        if not self.is_protected_data(data_addr):
            raise ValueError(f"address {data_addr:#x} outside protected region")
        return self.decompose(data_addr)[0]

    def counter_slot(self, data_addr: int) -> int:
        """Index of this data block's counter within its counter block."""
        return block_index(data_addr) % self.blocks_per_counter_block

    def counter_block_addr(self, data_addr: int) -> int:
        return self.counter_block_addr_of_index(self.counter_block_index(data_addr))

    def counter_block_addr_of_index(self, cb_index: int) -> int:
        return self.counter_base + cb_index * BLOCK_SIZE

    def counter_block_index_of_addr(self, counter_addr: int) -> int:
        return (block_address(counter_addr) - self.counter_base) // BLOCK_SIZE

    def data_blocks_of_counter_block(self, cb_index: int) -> range:
        """Data-block indices covered by counter block ``cb_index``."""
        first = cb_index * self.blocks_per_counter_block
        return range(first, min(first + self.blocks_per_counter_block, self.num_data_blocks))

    def mac_addr(self, data_addr: int) -> int:
        """Address of the MAC word for a data block (8 bytes each)."""
        return self.decompose(data_addr)[2]

    # ------------------------------------------------------------------
    # Tree mapping
    # ------------------------------------------------------------------

    def node_index(self, level: int, cb_index: int) -> int:
        """Index of the level-``level`` tree node block on a counter block's
        verification path."""
        index = cb_index
        for geometry in self.levels[: level + 1]:
            index //= geometry.arity
        return index

    def node_addr(self, level: int, index: int) -> int:
        geometry = self.levels[level]
        if not 0 <= index < geometry.node_count:
            raise ValueError(
                f"node index {index} out of range for level {level} "
                f"({geometry.node_count} nodes)"
            )
        return geometry.base + index * BLOCK_SIZE

    def path_of(self, cb_index: int) -> tuple[tuple[int, int, int], ...]:
        """Verification path of counter block ``cb_index``.

        Returns ``((level, node_index, node_addr), ...)`` for every
        off-chip tree level, leaf level first.
        """
        nodes = []
        index = cb_index
        for geometry in self.levels:
            index //= geometry.arity
            nodes.append(
                (geometry.level, index, geometry.base + index * BLOCK_SIZE)
            )
        return tuple(nodes)

    def node_addr_for_data(self, data_addr: int, level: int) -> int:
        """Address of the tree node covering ``data_addr`` at ``level``."""
        return self.node_addr(level, self.node_index(level, self.counter_block_index(data_addr)))

    def node_of_addr(self, tree_addr: int) -> tuple[int, int]:
        """Reverse-map a tree-region address to its (level, index)."""
        block = block_address(tree_addr)
        for geometry in self.levels:
            if geometry.base <= block < geometry.base + geometry.size:
                return geometry.level, (block - geometry.base) // BLOCK_SIZE
        raise ValueError(f"address {tree_addr:#x} is not in a tree region")

    def parent_of(self, level: int, index: int) -> tuple[int, int] | None:
        """(level, index) of the parent node block, or None for root level."""
        if level + 1 >= len(self.levels):
            return None
        return level + 1, index // self.levels[level + 1].arity

    def child_slot(self, level: int, index: int) -> int:
        """Position of node (level, index) within its parent's children."""
        if level + 1 >= len(self.levels):
            return index  # slot within the on-chip root array
        return index % self.levels[level + 1].arity

    def children_of(self, level: int, index: int) -> range:
        """Child indices of node (level, index) at level-1 (level 0's
        children are counter-block indices)."""
        arity = self.levels[level].arity
        if level == 0:
            upper = self.num_counter_blocks
        else:
            upper = self.levels[level - 1].node_count
        first = index * arity
        return range(first, min(first + arity, upper))

    def counter_blocks_under_node(self, level: int, index: int) -> range:
        """Counter-block indices in the subtree rooted at (level, index)."""
        span = 1
        for geometry in self.levels[: level + 1]:
            span *= geometry.arity
        first = index * span
        return range(first, min(first + span, self.num_counter_blocks))

    def data_pages_under_node(self, level: int, index: int) -> range:
        """Physical page numbers whose data is covered by (level, index)."""
        cbs = self.counter_blocks_under_node(level, index)
        blocks_per_cb = self.blocks_per_counter_block
        first_block = cbs.start * blocks_per_cb
        last_block = cbs.stop * blocks_per_cb
        pages = PAGE_SIZE // BLOCK_SIZE
        return range(first_block // pages, -(-last_block // pages))

    def pages_sharing_node(self, page: int, level: int) -> range:
        """Pages that share an integrity-tree node block with ``page`` at
        ``level`` — the sharing-set formula of Section VIII-B."""
        data_addr = page * PAGE_SIZE
        index = self.node_index(level, self.counter_block_index(data_addr))
        return self.data_pages_under_node(level, index)

    def describe(self) -> str:
        """Human-readable region map (used by examples and docs)."""
        lines = [
            f"protected data : [{self.data_base:#x}, {self.data_base + self.data_size:#x})",
            f"counter blocks : {self.num_counter_blocks} @ {self.counter_base:#x}",
            f"MAC region     : @ {self.mac_base:#x}",
        ]
        for geometry in self.levels:
            lines.append(
                f"tree L{geometry.level:<2}       : {geometry.node_count} node blocks "
                f"(arity {geometry.arity}) @ {geometry.base:#x}"
            )
        lines.append(f"on-chip roots  : {self.root_entries}")
        return "\n".join(lines)
