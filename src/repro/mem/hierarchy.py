"""Three-level data-cache hierarchy shared by the simulated cores.

Private L1/L2 per core, one shared inclusive L3 per socket.  The hierarchy
reports where an access hit and what got written back, but defers actual
memory traffic to the memory controller (the caller).

The processor's executor probes L1 itself (``SetAssocCache.hit``), so the
hierarchy's access path starts at L2 with the L1 miss it is handed.
"""

from __future__ import annotations

from typing import Sequence

from repro.config import SecureProcessorConfig
from repro.core import Component
from repro.mem.block import BLOCK_MASK, block_address
from repro.mem.cache import SetAssocCache

#: The writebacks of a full miss, which installs nothing.
_NO_WRITEBACKS: tuple[int, ...] = ()


class CoreCaches(Component):
    """The private L1/L2 pair of one core."""

    def __init__(self, config: SecureProcessorConfig, index: int = 0) -> None:
        self.l1 = SetAssocCache(config.l1)
        self.l2 = SetAssocCache(config.l2)
        self.init_component(f"core{index}.caches")

    def children(self):
        return (self.l1, self.l2)


class DataCacheSystem(Component):
    """All data caches of the machine (cores x sockets).

    The hierarchy is kept inclusive: a fill installs the block at every
    level, and an L3 eviction back-invalidates the private caches of its
    socket.  Inclusivity keeps the coherence story trivial while preserving
    the property the attacks rely on: a flushed or evicted block's next
    access reaches the memory controller.

    Every operation derives a level's set index once from the block and
    acts on that set: a probe is one :meth:`SetAssocCache.hit` (plus
    :meth:`~SetAssocCache.miss`) call per level, a fill one
    :meth:`~SetAssocCache.install` call per level, and a drop one loop
    per level over the set maps of that level's caches.
    """

    def __init__(self, config: SecureProcessorConfig) -> None:
        self.config = config
        if config.cores % config.sockets != 0:
            raise ValueError("cores must divide evenly across sockets")
        self.cores_per_socket = config.cores // config.sockets
        self.core_caches = [CoreCaches(config, i) for i in range(config.cores)]
        self.l3s = [SetAssocCache(config.l3) for _ in range(config.sockets)]
        # Caches grouped by level, machine-wide and per socket.  The caches
        # of a group share one geometry, so ``_drop`` finds a block's set
        # once for the whole group.
        l1s = tuple(caches.l1 for caches in self.core_caches)
        l2s = tuple(caches.l2 for caches in self.core_caches)
        self._levels = (_group(l1s), _group(l2s), _group(self.l3s))
        # Each core's caches in one lookup: its L1, L2 and socket L3, and
        # the groups of its socket's L1s and L2s, which an L3 eviction
        # back-invalidates.
        per_socket = self.cores_per_socket
        self._paths = []
        for core, caches in enumerate(self.core_caches):
            first = core - core % per_socket
            self._paths.append((
                caches.l1, caches.l2, self.l3s[self.socket_of(core)],
                (
                    _group(l1s[first : first + per_socket]),
                    _group(l2s[first : first + per_socket]),
                ),
            ))
        # Timing table, precomputed once: cumulative lookup cost after
        # probing 1, 2 or 3 levels.  The functional probes above never
        # carry latency themselves (see the functional/timing split in
        # docs/architecture.md); all hierarchy cycles come from here.
        l1, l2, l3 = (
            config.l1.hit_latency,
            config.l2.hit_latency,
            config.l3.hit_latency,
        )
        self.hit_latency = (l1, l1 + l2, l1 + l2 + l3)
        self.miss_lookup_latency = l1 + l2 + l3
        self.init_component("caches")

    def children(self):
        return (*self.core_caches, *self.l3s)

    def socket_of(self, core: int) -> int:
        return core // self.cores_per_socket

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(
        self, core: int, block: int, l1_set: int, is_write: bool
    ) -> tuple[int, Sequence[int]]:
        """Serve ``core``'s L1 miss of ``block`` from L2 or L3.

        The caller has probed L1 (set ``l1_set``) and found the block
        absent; this counts and traces that miss, then probes L2 and the
        socket's L3.  A hit promotes the block into the levels above it.
        Returns ``(level, writebacks)``: the level that hit (2 or 3, or 0
        on a full miss, which installs nothing; see :meth:`fill`) and the
        dirty blocks the promotion pushed out to memory.
        """
        l1, l2, l3, _ = self._paths[core]
        l1.miss(block, l1_set)
        l2_set = (block >> l2.block_shift) % l2.num_sets
        if l2.hit(block, l2_set, False):
            return 2, self._install(core, block, l1_set, is_write, 2)
        l2.miss(block, l2_set)
        l3_set = (block >> l3.block_shift) % l3.num_sets
        if l3.hit(block, l3_set, False):
            return 3, self._install(core, block, l1_set, is_write, 3)
        l3.miss(block, l3_set)
        return 0, _NO_WRITEBACKS

    def fill(self, core: int, block: int, *, dirty: bool) -> list[int]:
        """Install a block fetched from memory in L3, then L2, then L1.

        Returns dirty blocks evicted to memory as a side effect.
        """
        l1 = self._paths[core][0]
        l1_set = (block >> l1.block_shift) % l1.num_sets
        return self._install(core, block, l1_set, dirty, 0)

    def _install(
        self, core: int, block: int, l1_set: int, dirty: bool, level: int
    ) -> list[int]:
        """Install ``block``, served by ``level`` (2, 3, or 0 for memory),
        in every level above it, L1 last; returns the memory writebacks.

        A dirty L2 or L1 victim folds into the next level that holds it;
        an L3 victim is dropped from the socket's private caches
        (inclusion) and written back if any copy of it was dirty.
        """
        l1, l2, l3, private = self._paths[core]
        writebacks: list[int] = []
        if not level:
            evicted = l3.install(block, (block >> l3.block_shift) % l3.num_sets)
            if evicted is not None:
                victim, victim_dirty = evicted
                if _drop(private, victim) or victim_dirty:
                    writebacks.append(victim)
        if level != 2:
            evicted = l2.install(block, (block >> l2.block_shift) % l2.num_sets)
            if evicted is not None and evicted[1]:
                _fold_dirty(evicted[0], (l3,), writebacks)
        evicted = l1.install(block, l1_set, dirty)
        if evicted is not None and evicted[1]:
            _fold_dirty(evicted[0], (l2, l3), writebacks)
        return writebacks

    # ------------------------------------------------------------------
    # Maintenance operations
    # ------------------------------------------------------------------

    def flush(self, addr: int) -> tuple[bool, list[int]]:
        """clflush analogue: drop the block machine-wide.

        Returns (was_dirty_anywhere, writebacks) — dirty copies must be
        written back (the processor routes them to the memory controller).
        """
        block = addr & BLOCK_MASK
        if _drop(self._levels, block):
            return True, [block]
        return False, []

    def contains(self, addr: int) -> bool:
        """True if any cache in the machine holds the block (no side effects)."""
        block = block_address(addr)
        if any(l3.contains(block) for l3 in self.l3s):
            return True
        return any(
            caches.l1.contains(block) or caches.l2.contains(block)
            for caches in self.core_caches
        )


def _group(caches: Sequence[SetAssocCache]) -> tuple[int, int, tuple]:
    """One level's caches, which share a geometry, as
    ``(block shift, set count, set maps)``."""
    first = caches[0]
    return first.block_shift, first.num_sets, tuple(c.sets for c in caches)


def _drop(groups, block: int) -> bool:
    """Pop ``block`` from every cache of ``groups`` (see :func:`_group`),
    finding its set once per group; True if any copy was dirty."""
    dirty = False
    for shift, num_sets, set_maps in groups:
        set_index = (block >> shift) % num_sets
        for sets in set_maps:
            lines = sets.get(set_index)
            if lines and lines.pop(block, False):
                dirty = True
    return dirty


def _fold_dirty(
    victim: int, lower: tuple[SetAssocCache, ...], writebacks: list[int]
) -> None:
    """Fold a dirty victim into the first ``lower`` level holding it.

    An L2 may have dropped the line already, but the inclusive L3 of the
    socket still holds it, so the dirty data stays on chip.  Only when no
    level does is ``victim`` appended to ``writebacks``: it must go to
    memory.
    """
    for cache in lower:
        lines = cache.sets.get((victim >> cache.block_shift) % cache.num_sets)
        if lines is not None and victim in lines:
            lines[victim] = True
            return
    writebacks.append(victim)
