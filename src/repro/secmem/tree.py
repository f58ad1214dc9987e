"""Integrity trees: hash tree (HT), split-counter tree (SCT), SGX tree (SIT).

All three designs share the Section IV-C structure: node blocks arranged in
levels over the encryption-counter blocks, with the level above the last
off-chip level held on-chip (trusted roots, free to access).

* :class:`HashTree` — each node block stores the hashes of its children
  (8-ary Bonsai Merkle Tree [12]).  No counters, no overflow.
* :class:`CounterTree` — each node block holds a major counter, per-child
  minor counters and an embedded hash ``H(parent_minor ‖ major ‖ minors)``.
  With 7-bit minors this is the SCT of VAULT [14]; with 56-bit monolithic
  counters (no major) it is SGX's SIT [67].  Minor-counter overflow resets
  the whole subtree and re-hashes it — the long-latency event MetaLeak-C
  observes.

The trees are *functional*: hashes are really computed (keyed BLAKE2b), so
spoof/splice/replay of any memory-resident metadata is detected, and the
on-chip root counters/hashes are the anchors of trust.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.config import SecureProcessorConfig, TreeKind
from repro.core import Component
from repro.crypto.prf import node_hash
from repro.secmem.layout import MetadataLayout


class TreeIntegrityError(Exception):
    """A tree node failed verification against its parent / root."""


@dataclass(frozen=True)
class TreeOverflow:
    """A minor-counter overflow at one node (Section IV-C).

    ``node_blocks_affected`` counts the node and every materialised
    descendant node block that was reset and re-hashed;
    ``counter_blocks`` is the range of counter-block indices whose stored
    hash must be refreshed (their parent minors were reset).
    """

    level: int
    index: int
    node_blocks_affected: int
    counter_blocks: range


@dataclass
class TreeUpdate:
    """Effect of absorbing one counter-block update into the tree."""

    levels_touched: int = 0
    overflows: list[TreeOverflow] = field(default_factory=list)

    @property
    def overflowed(self) -> bool:
        return bool(self.overflows)


DefaultLeafImage = Callable[[int], tuple[int, ...]]


class IntegrityTree(Component, abc.ABC):
    """Common interface consumed by the memory encryption engine."""

    def __init__(self, config: SecureProcessorConfig, layout: MetadataLayout, key: bytes) -> None:
        self.config = config
        self.layout = layout
        self.key = bytes(key)
        self.updates = 0
        # Instrument slots are created detached; the MEE adopts each tree
        # into the component graph so late-built (per-domain) trees inherit
        # whatever is already attached.  Event cycles come from the
        # tracer's bound clock.
        self.init_component("tree")

    def _trace(self, kind: str, *, level: int, index: int) -> None:
        if self.tracer is not None:
            self.tracer.emit("tree", kind, addr=index, level=level)

    @abc.abstractmethod
    def on_counter_block_update(
        self, cb_index: int, cb_image: tuple[int, ...]
    ) -> TreeUpdate:
        """Absorb one update of counter block ``cb_index`` into the tree."""

    @abc.abstractmethod
    def verify_counter_block(self, cb_index: int) -> None:
        """Check counter block ``cb_index``, as loaded from memory, against
        the tree."""

    @abc.abstractmethod
    def verify_node(self, level: int, index: int) -> None:
        """Check a node block loaded from memory against its parent/root."""

    @abc.abstractmethod
    def leaf_parent_value(self, cb_index: int) -> int:
        """The tree counter a counter block's freshness hash binds."""

    def path_nodes(self, cb_index: int) -> list[tuple[int, int]]:
        """(level, index) of every off-chip node on a counter block's path
        (see :meth:`MetadataLayout.path_of`)."""
        return [(level, index) for level, index, _ in self.layout.path_of(cb_index)]

    @abc.abstractmethod
    def tamper_node(self, level: int, index: int, slot: int, value: int) -> int:
        """Corrupt one stored word of a memory-resident node block.

        Design-agnostic entry point for fault injection: a counter tree
        corrupts the ``slot``-th minor counter, a hash tree the ``slot``-th
        stored child hash.  Neither re-hashes anything — this is an
        off-chip bit flip.  Returns the previous value for undo.
        """


# ----------------------------------------------------------------------
# Counter tree (SCT and SIT)
# ----------------------------------------------------------------------


@dataclass
class _CounterNode:
    major: int
    minors: list[int]
    hash: int


class CounterTree(IntegrityTree):
    """Split-counter (SCT) or monolithic-counter (SIT) integrity tree."""

    def __init__(self, config: SecureProcessorConfig, layout: MetadataLayout, key: bytes) -> None:
        super().__init__(config, layout, key)
        tree = config.tree
        if tree.kind is TreeKind.SPLIT_COUNTER:
            self.has_major = True
            self.minor_max = tree.minor_max
        elif tree.kind is TreeKind.SGX:
            self.has_major = False
            self.minor_max = (1 << tree.monolithic_bits) - 1
        else:
            raise ValueError(f"CounterTree cannot implement {tree.kind}")
        self._nodes: dict[tuple[int, int], _CounterNode] = {}
        # On-chip trusted counters, one per top-level node block; unbounded
        # integers (roots never overflow — they are registers, not memory).
        self._root_counters: dict[int, int] = {}
        self.overflow_count = 0

    # -- state access ---------------------------------------------------

    def _node(self, level: int, index: int) -> _CounterNode:
        key = (level, index)
        state = self._nodes.get(key)
        if state is None:
            arity = self.layout.levels[level].arity
            state = _CounterNode(major=0, minors=[0] * arity, hash=0)
            state.hash = self._hash_node(level, index, state)
            self._nodes[key] = state
        return state

    def node_image(self, level: int, index: int) -> tuple[int, ...]:
        """Memory-resident content of a node block (for tests/tampering)."""
        state = self._node(level, index)
        return (state.major, *state.minors, state.hash)

    def parent_value(self, level: int, index: int) -> int:
        """The counter in this node's parent that tracks this node."""
        parent = self.layout.parent_of(level, index)
        if parent is None:
            return self._root_counters.get(index, 0)
        parent_level, parent_index = parent
        slot = self.layout.child_slot(level, index)
        return self._node(parent_level, parent_index).minors[slot]

    def leaf_parent_value(self, cb_index: int) -> int:
        """The L0 minor counter tracking counter block ``cb_index``."""
        arity = self.layout.levels[0].arity
        node = self._node(0, cb_index // arity)
        return node.minors[cb_index % arity]

    def root_counter(self, index: int) -> int:
        return self._root_counters.get(index, 0)

    def _hash_node(self, level: int, index: int, state: _CounterNode) -> int:
        if not self.config.functional_crypto:
            return 0
        return node_hash(
            self.key,
            "ctnode",
            level,
            index,
            self.parent_value(level, index),
            state.major,
            *state.minors,
        )

    # -- update path ------------------------------------------------------

    def on_counter_block_update(
        self, cb_index: int, cb_image: tuple[int, ...]
    ) -> TreeUpdate:
        """Bump every minor on the path from the leaf to the on-chip root.

        The parent minor of each path node is incremented; overflow of any
        7-bit minor triggers the Section IV-C subtree reset + re-hash.
        Hashes of path nodes are recomputed last, once all counters hold
        their final values.
        """
        self.updates += 1
        self._trace("update", level=len(self.layout.levels), index=cb_index)
        update = TreeUpdate()
        path = self.path_nodes(cb_index)
        child_slot = cb_index % self.layout.levels[0].arity
        for level, index in path:
            node = self._node(level, index)
            if node.minors[child_slot] < self.minor_max:
                node.minors[child_slot] += 1
            else:
                update.overflows.append(self._handle_overflow(level, index, child_slot))
            child_slot = self.layout.child_slot(level, index)
            update.levels_touched += 1
        top_level, top_index = path[-1]
        self._root_counters[top_index] = self._root_counters.get(top_index, 0) + 1
        # Re-hash bottom-up now that every counter on the path is final.
        for level, index in path:
            node = self._node(level, index)
            node.hash = self._hash_node(level, index, node)
        return update

    def _handle_overflow(self, level: int, index: int, trigger_slot: int) -> TreeOverflow:
        """Reset this node and its subtree (majors++, minors=0), re-hash."""
        self.overflow_count += 1
        self._trace("overflow", level=level, index=index)
        affected = 0
        for desc_level, desc_index in self._descendant_nodes(level, index):
            node = self._node(desc_level, desc_index)
            if self.has_major:
                node.major += 1
            node.minors = [0] * len(node.minors)
            affected += 1
        node = self._node(level, index)
        if self.has_major:
            node.major += 1
        node.minors = [0] * len(node.minors)
        node.minors[trigger_slot] = 1
        affected += 1
        # Re-hash the materialised subtree (path nodes above get re-hashed
        # by the caller after their counters settle).
        for desc_level, desc_index in self._descendant_nodes(level, index):
            desc = self._node(desc_level, desc_index)
            desc.hash = self._hash_node(desc_level, desc_index, desc)
        counter_blocks = self.layout.counter_blocks_under_node(level, index)
        return TreeOverflow(
            level=level,
            index=index,
            node_blocks_affected=affected,
            counter_blocks=counter_blocks,
        )

    # -- lazy-update entry points (Section V's lazy scheme) ---------------

    def bump_leaf(self, cb_index: int) -> TreeUpdate:
        """Absorb one counter-block write-back: bump its L0 minor.

        Called when a dirty encryption-counter block is evicted from the
        metadata cache (the lazy scheme's first propagation step).
        """
        self.updates += 1
        self._trace("bump_leaf", level=0, index=cb_index)
        update = TreeUpdate(levels_touched=1)
        arity = self.layout.levels[0].arity
        index = cb_index // arity
        slot = cb_index % arity
        node = self._node(0, index)
        if node.minors[slot] < self.minor_max:
            node.minors[slot] += 1
        else:
            update.overflows.append(self._handle_overflow(0, index, slot))
        node = self._node(0, index)
        node.hash = self._hash_node(0, index, node)
        return update

    def bump_node(self, level: int, index: int) -> TreeUpdate:
        """Absorb one node-block write-back: bump its parent counter.

        Called when a dirty level-``level`` node block is evicted from the
        metadata cache.  Re-hashes both the written-back node (its parent
        counter — part of its hash — changed) and the parent node.
        """
        self.updates += 1
        self._trace("bump_node", level=level, index=index)
        update = TreeUpdate(levels_touched=1)
        parent = self.layout.parent_of(level, index)
        if parent is None:
            self._root_counters[index] = self._root_counters.get(index, 0) + 1
        else:
            parent_level, parent_index = parent
            slot = self.layout.child_slot(level, index)
            parent_node = self._node(parent_level, parent_index)
            if parent_node.minors[slot] < self.minor_max:
                parent_node.minors[slot] += 1
            else:
                update.overflows.append(
                    self._handle_overflow(parent_level, parent_index, slot)
                )
            parent_node = self._node(parent_level, parent_index)
            parent_node.hash = self._hash_node(parent_level, parent_index, parent_node)
        node = self._node(level, index)
        node.hash = self._hash_node(level, index, node)
        return update

    def _descendant_nodes(self, level: int, index: int) -> Iterable[tuple[int, int]]:
        """Materialised node blocks strictly below (level, index)."""
        if level == 0:
            return
        ranges: dict[int, range] = {}
        span = range(index, index + 1)
        for child_level in range(level - 1, -1, -1):
            arity = self.layout.levels[child_level + 1].arity
            span = range(span.start * arity, span.stop * arity)
            ranges[child_level] = span
        for (node_level, node_index) in list(self._nodes.keys()):
            span = ranges.get(node_level)
            if span is not None and span.start <= node_index < span.stop:
                yield node_level, node_index

    # -- verification ------------------------------------------------------

    def verify_node(self, level: int, index: int) -> None:
        node = self._node(level, index)
        expected = self._hash_node(level, index, node)
        if node.hash != expected:
            raise TreeIntegrityError(
                f"tree node L{level}[{index}] failed verification"
            )

    def verify_counter_block(self, cb_index: int) -> None:
        """Counter blocks are authenticated by the engine's per-block hash
        bound to :meth:`leaf_parent_value`; the tree itself only needs the
        leaf minor, so this is a structural no-op kept for interface parity.
        It reads no counter state, so a counter miss creates none.
        """

    # -- tamper API (tests) -------------------------------------------------

    def tamper_minor(self, level: int, index: int, slot: int, value: int) -> None:
        """Corrupt a stored minor counter without re-hashing (spoofing)."""
        self._node(level, index).minors[slot] = value

    def tamper_node(self, level: int, index: int, slot: int, value: int) -> int:
        node = self._node(level, index)
        old = node.minors[slot]
        node.minors[slot] = value
        return old

    def tamper_replay(self, level: int, index: int, snapshot: tuple[int, ...]) -> None:
        """Overwrite a node block with an old snapshot (replay attack)."""
        major, *rest = snapshot
        minors, stored_hash = list(rest[:-1]), rest[-1]
        node = self._node(level, index)
        node.major, node.minors, node.hash = major, minors, stored_hash


# ----------------------------------------------------------------------
# Hash tree (Bonsai Merkle Tree)
# ----------------------------------------------------------------------


class HashTree(IntegrityTree):
    """8-ary hash tree over counter blocks (HT, [12])."""

    def __init__(
        self,
        config: SecureProcessorConfig,
        layout: MetadataLayout,
        key: bytes,
        default_leaf_image: DefaultLeafImage,
    ) -> None:
        super().__init__(config, layout, key)
        if config.tree.kind is not TreeKind.HASH:
            raise ValueError("HashTree requires TreeKind.HASH")
        self._current_leaf_image = default_leaf_image
        # Nodes materialise lazily against the *pristine* (all-zero) counter
        # image — the state the whole tree logically had at boot.  Using the
        # current image here would bless content that changed behind the
        # tree's back.  The tree is constructed before any write, so the
        # image shape captured now is the pristine one.  Timing-only mode
        # hashes no image, so it reads none: reading one creates the
        # block's counter state.
        self._initial_image = (
            tuple(0 for _ in default_leaf_image(0))
            if config.functional_crypto else ()
        )
        # (level, index) -> list of child hashes
        self._nodes: dict[tuple[int, int], list[int]] = {}
        self._root_hashes: dict[int, int] = {}

    # -- hashing -----------------------------------------------------------

    def _leaf_hash(self, cb_index: int, cb_image: tuple[int, ...]) -> int:
        if not self.config.functional_crypto:
            return 0
        return node_hash(self.key, "htleaf", cb_index, *cb_image)

    def _current_leaf_hash(self, cb_index: int) -> int:
        """Leaf hash of the counter block's current image.

        Timing-only mode hashes every leaf to 0, so it builds no image
        and creates no counter state for the block.
        """
        if not self.config.functional_crypto:
            return 0
        return self._leaf_hash(cb_index, self._current_leaf_image(cb_index))

    def _node_content_hash(self, level: int, index: int) -> int:
        if not self.config.functional_crypto:
            return 0
        return node_hash(self.key, "htnode", level, index, *self._node(level, index))

    def _node(self, level: int, index: int) -> list[int]:
        key = (level, index)
        content = self._nodes.get(key)
        if content is None:
            arity = self.layout.levels[level].arity
            if level == 0:
                children = self.layout.children_of(0, index)
                content = [
                    self._leaf_hash(cb, self._initial_image) for cb in children
                ]
                content += [0] * (arity - len(content))
            else:
                children = self.layout.children_of(level, index)
                content = [
                    self._node_content_hash(level - 1, child) for child in children
                ]
                content += [0] * (arity - len(content))
            self._nodes[key] = content
        return content

    def node_image(self, level: int, index: int) -> tuple[int, ...]:
        return tuple(self._node(level, index))

    def _root_hash(self, index: int) -> int:
        if index not in self._root_hashes:
            self._root_hashes[index] = self._node_content_hash(
                len(self.layout.levels) - 1, index
            )
        return self._root_hashes[index]

    # -- update -------------------------------------------------------------

    def on_counter_block_update(
        self, cb_index: int, cb_image: tuple[int, ...]
    ) -> TreeUpdate:
        """Recompute the hash chain from the updated leaf to the root."""
        self.updates += 1
        arity0 = self.layout.levels[0].arity
        node = self._node(0, cb_index // arity0)
        node[cb_index % arity0] = self._leaf_hash(cb_index, cb_image)
        level, index = 0, cb_index // arity0
        levels_touched = 1
        while True:
            parent = self.layout.parent_of(level, index)
            if parent is None:
                self._root_hashes[index] = self._node_content_hash(level, index)
                break
            parent_level, parent_index = parent
            slot = self.layout.child_slot(level, index)
            self._node(parent_level, parent_index)[slot] = self._node_content_hash(
                level, index
            )
            level, index = parent_level, parent_index
            levels_touched += 1
        return TreeUpdate(levels_touched=levels_touched)

    # -- lazy-update entry points ---------------------------------------------

    def bump_leaf(self, cb_index: int) -> TreeUpdate:
        """Refresh the leaf hash when a counter block writes back."""
        self.updates += 1
        arity0 = self.layout.levels[0].arity
        node = self._node(0, cb_index // arity0)
        node[cb_index % arity0] = self._current_leaf_hash(cb_index)
        return TreeUpdate(levels_touched=1)

    def bump_node(self, level: int, index: int) -> TreeUpdate:
        """Refresh the parent's stored hash when a node block writes back."""
        self.updates += 1
        parent = self.layout.parent_of(level, index)
        if parent is None:
            self._root_hashes[index] = self._node_content_hash(level, index)
        else:
            parent_level, parent_index = parent
            slot = self.layout.child_slot(level, index)
            self._node(parent_level, parent_index)[slot] = self._node_content_hash(
                level, index
            )
        return TreeUpdate(levels_touched=1)

    def leaf_parent_value(self, cb_index: int) -> int:
        return 0  # the leaf hash binds the counter block's whole image

    # -- verification --------------------------------------------------------

    def verify_counter_block(self, cb_index: int) -> None:
        """Check the counter block's current image against its leaf hash."""
        arity0 = self.layout.levels[0].arity
        node = self._node(0, cb_index // arity0)
        if node[cb_index % arity0] != self._current_leaf_hash(cb_index):
            raise TreeIntegrityError(
                f"counter block {cb_index} failed hash-tree verification"
            )

    def verify_node(self, level: int, index: int) -> None:
        content_hash = self._node_content_hash(level, index)
        parent = self.layout.parent_of(level, index)
        if parent is None:
            expected = self._root_hash(index)
        else:
            parent_level, parent_index = parent
            slot = self.layout.child_slot(level, index)
            expected = self._node(parent_level, parent_index)[slot]
        if content_hash != expected:
            raise TreeIntegrityError(
                f"hash-tree node L{level}[{index}] failed verification"
            )

    # -- tamper API (tests) ----------------------------------------------------

    def tamper_child_hash(self, level: int, index: int, slot: int, value: int) -> None:
        self._node(level, index)[slot] = value

    def tamper_node(self, level: int, index: int, slot: int, value: int) -> int:
        node = self._node(level, index)
        old = node[slot]
        node[slot] = value
        return old


def build_tree(
    config: SecureProcessorConfig,
    layout: MetadataLayout,
    key: bytes,
    default_leaf_image: DefaultLeafImage,
) -> IntegrityTree:
    """Instantiate the integrity tree named by the configuration."""
    if config.tree.kind is TreeKind.HASH:
        return HashTree(config, layout, key, default_leaf_image)
    return CounterTree(config, layout, key)
