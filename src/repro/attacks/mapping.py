"""Address mapping and metadata-cache eviction for MetaLeak.

Metadata cannot be named by software, but its addresses are pure functions
of data addresses (Section IV).  The :class:`MetadataMapper` computes those
functions in reverse: given a metadata-cache set, it finds *data* blocks an
attacker can touch so that their counter blocks land in that set.  The
:class:`MetadataEvictor` turns that into the mEvict primitive: filling a
target set with attacker metadata until the victim's tree node (or counter
block) is evicted — all through plain data reads the attacker is allowed to
perform on its own memory.
"""

from __future__ import annotations

from repro.config import BLOCK_SIZE
from repro.mem.block import block_address, page_index
from repro.os.page_alloc import PageAllocator
from repro.proc.batch import AccessBatch
from repro.proc.processor import SecureProcessor
from repro.secmem.engine import DOMAIN_SHIFT

# Extra eviction-set entries beyond the associativity: a single in-order
# pass over ways+slack blocks reliably pushes the target out under LRU.
_EVICTION_SLACK = 4


class MetadataMapper:
    """Derives metadata addresses and cache sets from data addresses."""

    def __init__(self, proc: SecureProcessor) -> None:
        self.proc = proc
        self.layout = proc.layout
        self.meta_cache = proc.metadata_cache

    # -- forward mapping ---------------------------------------------------

    def counter_addr(self, data_paddr: int) -> int:
        return self.layout.counter_block_addr(data_paddr)

    def tree_node_addr(self, data_paddr: int, level: int) -> int:
        return self.layout.node_addr_for_data(data_paddr, level)

    def cache_for(self, meta_addr: int):
        """The on-chip cache structure holding this metadata block."""
        return self.proc.mee.cache_for(meta_addr)

    def is_tree_target(self, meta_addr: int) -> bool:
        return self.layout.is_tree_addr(meta_addr & ((1 << DOMAIN_SHIFT) - 1))

    def meta_set_of(self, meta_addr: int) -> int:
        return self.cache_for(meta_addr).set_index_of(meta_addr)

    # -- reverse mapping ----------------------------------------------------

    def iter_data_blocks_with_counter_in_set(self, set_index: int):
        """Yield data-block addresses whose counter blocks map to a set.

        Counter block ``cb`` lives at ``counter_base + cb*64``; candidates
        are every ``cb`` with ``(base_block + cb) % num_sets == set_index``.
        """
        num_sets = self.meta_cache.num_sets
        base_block = self.layout.counter_base // BLOCK_SIZE
        cb = (set_index - base_block) % num_sets
        per_cb = self.layout.blocks_per_counter_block
        while cb < self.layout.num_counter_blocks:
            yield cb * per_cb * BLOCK_SIZE
            cb += num_sets

    def iter_data_blocks_with_leaf_in_set(self, set_index: int):
        """Yield data blocks whose *L0 tree node* maps to a tree-cache set.

        The split-cache variant of eviction-set construction: accessing
        such a block (with its counter missing) walks the tree and fills
        the target tree-cache set with its leaf node.  Consecutive
        candidates are one full tree-cache period apart, which also makes
        their counter blocks alias one counter-cache set — so the
        counter-side state self-churns and every access really walks.
        """
        tree_cache = self.proc.mee.tree_cache
        l0 = self.layout.levels[0]
        base_block = l0.base // BLOCK_SIZE
        node = (set_index - base_block) % tree_cache.num_sets
        per_cb = self.layout.blocks_per_counter_block
        while node < l0.node_count:
            cb_index = node * l0.arity
            if cb_index < self.layout.num_counter_blocks:
                yield cb_index * per_cb * BLOCK_SIZE
            node += tree_cache.num_sets

    def pages_under_node(self, level: int, index: int) -> range:
        return self.layout.data_pages_under_node(level, index)

    def node_of_data(self, data_paddr: int, level: int) -> tuple[int, int]:
        cb_index = self.layout.counter_block_index(data_paddr)
        return level, self.layout.node_index(level, cb_index)


class MetadataEvictor:
    """The mEvict primitive: evict metadata blocks via data accesses.

    For each target metadata block the evictor owns a set of attacker
    pages whose counter blocks alias into the same metadata-cache set.
    ``evict`` touches them (data-cache-cleansed) so their counter blocks
    fill the set and push the target out.
    """

    def __init__(
        self,
        proc: SecureProcessor,
        allocator: PageAllocator,
        *,
        core: int = 0,
        protect_pages: set[int] | frozenset[int] = frozenset(),
    ) -> None:
        self.proc = proc
        self.allocator = allocator
        self.core = core
        self.mapper = MetadataMapper(proc)
        self.protect_pages = set(protect_pages)
        # Frames this evictor claimed for its own eviction traffic.
        self._claimed: set[int] = set()
        # metadata-cache set -> attacker data blocks that fill it
        self._eviction_sets: dict[int, list[int]] = {}
        self.accesses = 0
        # Longest single read in the most recent evict() pass.  MetaLeak-C
        # watches this: an overflow burst triggered by a write-back during
        # the pass shows up as one dramatically delayed read.
        self.last_max_read_latency = 0

    def protect(self, pages: set[int] | frozenset[int] | range) -> None:
        """Extend the no-touch region (e.g. a newly monitored subtree).

        Cached eviction sets that stray into the new region are rebuilt.
        """
        new_pages = set(pages) - self.protect_pages
        if not new_pages:
            return
        self.protect_pages |= new_pages
        stale = [
            set_index
            for set_index, blocks in self._eviction_sets.items()
            if any(page_index(block) in new_pages for block in blocks)
        ]
        for set_index in stale:
            del self._eviction_sets[set_index]

    def _page_usable(self, frame: int) -> bool:
        """Eviction traffic may only touch attacker-claimable pages.

        Pages allocated to anyone else (the victim, probes, noise
        processes) are off limits — the attacker cannot read them, and
        touching a page inside a monitored group would reload the very
        node under observation.
        """
        if frame in self.protect_pages:
            return False
        if frame in self._claimed:
            return True
        return not self.allocator.is_allocated(frame)

    def _target_key(self, meta_addr: int) -> tuple[bool, int]:
        """(needs_tree_cache_fill, set_index) for one metadata target.

        With a combined metadata cache, counter-block fills evict tree
        nodes and vice versa, so everything uses the cheap counter-alias
        construction.  With split caches, tree-node targets need fills of
        the *tree* cache, which only tree walks produce.
        """
        split = self.proc.config.split_metadata_caches
        is_tree = split and self.mapper.is_tree_target(meta_addr)
        return is_tree, self.mapper.meta_set_of(meta_addr)

    def _eviction_set_for(self, key: tuple[bool, int]) -> list[int]:
        is_tree, set_index = key
        blocks = self._eviction_sets.get(key)
        if blocks is None:
            cache = (
                self.proc.mee.tree_cache if is_tree else self.proc.metadata_cache
            )
            needed = cache.ways + _EVICTION_SLACK
            candidates = (
                self.mapper.iter_data_blocks_with_leaf_in_set(set_index)
                if is_tree
                else self.mapper.iter_data_blocks_with_counter_in_set(set_index)
            )
            blocks = []
            for candidate in candidates:
                frame = page_index(candidate)
                if not self._page_usable(frame):
                    continue
                if frame not in self._claimed:
                    self.allocator.alloc_specific(frame)
                    self._claimed.add(frame)
                blocks.append(candidate)
                if len(blocks) == needed:
                    break
            if len(blocks) < needed:
                raise ValueError(
                    f"could not build an eviction set for metadata set "
                    f"{set_index}{' (tree cache)' if is_tree else ''}: only "
                    f"{len(blocks)}/{needed} usable pages"
                )
            self._eviction_sets[key] = blocks
        return blocks

    def evict(self, meta_addrs: list[int] | tuple[int, ...]) -> int:
        """Evict every given metadata block; returns attacker accesses used.

        The accesses are reads of attacker-owned data (flushed first so
        they reach the MEE); their counter-block fills displace the
        targets.  Distinct targets in the same set share one pass.
        """
        used = 0
        self.last_max_read_latency = 0
        for key in sorted({self._target_key(addr) for addr in meta_addrs}):
            # One flush+read pair per eviction block, submitted as a
            # single batch (same operation order as the scalar loop).
            batch = AccessBatch()
            for block in self._eviction_set_for(key):
                batch.flush(block)
                batch.read(block, core=self.core)
            result = self.proc.run_batch(batch)
            self.last_max_read_latency = max(
                self.last_max_read_latency, result.max_read_latency()
            )
            used += result.read_count()
        self.accesses += used
        return used

    def is_cached(self, meta_addr: int) -> bool:
        """Ground-truth probe used by tests (not available to attackers)."""
        return self.mapper.cache_for(meta_addr).contains(block_address(meta_addr))
