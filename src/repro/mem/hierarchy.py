"""Three-level data-cache hierarchy shared by the simulated cores.

Private L1/L2 per core, one shared inclusive L3 per socket.  The hierarchy
reports where an access hit and what got written back, but defers actual
memory traffic to the memory controller (the caller).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SecureProcessorConfig
from repro.core import Component
from repro.mem.block import block_address
from repro.mem.cache import SetAssocCache, invalidate_level


@dataclass(slots=True)
class HierarchyResult:
    """Outcome of one data-cache access.

    ``hit_level`` is 1, 2 or 3, or ``None`` on a full miss; ``latency`` is
    the cycles spent in the hierarchy itself (lookup plus hit service);
    ``writebacks`` are dirty blocks pushed out to memory by this access.
    """

    hit_level: int | None
    latency: int
    writebacks: list[int] = field(default_factory=list)


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
    """

    def __init__(self, config: SecureProcessorConfig) -> None:
        self.config = config
        if config.cores % config.sockets != 0:
            raise ValueError("cores must divide evenly across sockets")
        self.cores_per_socket = config.cores // config.sockets
        self.core_caches = [CoreCaches(config, i) for i in range(config.cores)]
        self.l3s = [SetAssocCache(config.l3) for _ in range(config.sockets)]
        # Caches grouped by level, machine-wide and per socket: the caches
        # of a group share one geometry, so ``invalidate_level`` drops a
        # block from the whole group with one set-index computation.
        l1s = tuple(caches.l1 for caches in self.core_caches)
        l2s = tuple(caches.l2 for caches in self.core_caches)
        self._levels = (l1s, l2s, tuple(self.l3s))
        per_socket = self.cores_per_socket
        self._socket_private = [
            (l1s[first : first + per_socket], l2s[first : first + per_socket])
            for first in range(0, config.cores, per_socket)
        ]
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

    def _l3_of(self, core: int) -> SetAssocCache:
        return self.l3s[self.socket_of(core)]

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, core: int, addr: int, *, is_write: bool) -> HierarchyResult:
        """Look up ``addr`` for ``core``; no fill happens on a miss."""
        block = block_address(addr)
        caches = self.core_caches[core]
        l3 = self._l3_of(core)
        hit_latency = self.hit_latency

        if caches.l1.lookup(block):
            if is_write:
                caches.l1.mark_dirty(block)
            return HierarchyResult(hit_level=1, latency=hit_latency[0])

        if caches.l2.lookup(block):
            writebacks = self._fill_l1_only(core, block, dirty=is_write)
            return HierarchyResult(2, hit_latency[1], writebacks)

        if l3.lookup(block):
            writebacks = self._fill_private(core, block, dirty=is_write)
            return HierarchyResult(3, hit_latency[2], writebacks)

        return HierarchyResult(hit_level=None, latency=self.miss_lookup_latency)

    def fill(self, core: int, addr: int, *, dirty: bool) -> list[int]:
        """Install a block fetched from memory at all levels.

        Returns dirty blocks evicted to memory as a side effect.
        """
        block = block_address(addr)
        writebacks: list[int] = []
        l3 = self._l3_of(core)
        l3_evt = l3.insert(block)
        if l3_evt.evicted_addr is not None:
            # Inclusive L3: back-invalidate private copies in this socket.
            dirty_private = self._back_invalidate(core, l3_evt.evicted_addr)
            if l3_evt.evicted_dirty or dirty_private:
                writebacks.append(l3_evt.evicted_addr)
        writebacks.extend(self._fill_private(core, block, dirty=dirty))
        return writebacks

    def _fill_private(self, core: int, block: int, *, dirty: bool) -> list[int]:
        """Install ``block`` in ``core``'s L2 and L1."""
        writebacks: list[int] = []
        l2_evt = self.core_caches[core].l2.insert(block)
        if l2_evt.evicted_addr is not None and l2_evt.evicted_dirty:
            writebacks += self._fold_dirty(
                l2_evt.evicted_addr, (self._l3_of(core),)
            )
        return writebacks + self._fill_l1_only(core, block, dirty=dirty)

    def _fill_l1_only(self, core: int, block: int, *, dirty: bool) -> list[int]:
        """Install ``block`` in ``core``'s L1 (an L2-hit promotion)."""
        caches = self.core_caches[core]
        l1_evt = caches.l1.insert(block, dirty=dirty)
        if l1_evt.evicted_addr is None or not l1_evt.evicted_dirty:
            return []
        return self._fold_dirty(
            l1_evt.evicted_addr, (caches.l2, self._l3_of(core))
        )

    @staticmethod
    def _fold_dirty(victim: int, lower: tuple[SetAssocCache, ...]) -> list[int]:
        """Fold a dirty victim into the first ``lower`` level holding it.

        An L2 may have dropped the line already, but the inclusive L3 of
        the socket still holds it, so the dirty data stays on chip.
        Returns ``[victim]`` only when no level does: it must go to memory.
        """
        for cache in lower:
            if cache.contains(victim):
                cache.mark_dirty(victim)
                return []
        return [victim]

    def _back_invalidate(self, core: int, block: int) -> bool:
        """Remove ``block`` from all private caches in ``core``'s socket."""
        l1s, l2s = self._socket_private[self.socket_of(core)]
        dirty_l1 = invalidate_level(l1s, block)
        dirty_l2 = invalidate_level(l2s, block)
        return dirty_l1 or dirty_l2

    # ------------------------------------------------------------------
    # Maintenance operations
    # ------------------------------------------------------------------

    def flush(self, addr: int) -> tuple[bool, list[int]]:
        """clflush analogue: drop the block machine-wide.

        Returns (was_dirty_anywhere, writebacks) — dirty copies must be
        written back (the processor routes them to the memory controller).
        """
        block = block_address(addr)
        dirty_any = False
        for level in self._levels:
            if invalidate_level(level, block):
                dirty_any = True
        return dirty_any, ([block] if dirty_any else [])

    def contains(self, addr: int) -> bool:
        """True if any cache in the machine holds the block (no side effects)."""
        block = block_address(addr)
        if any(l3.contains(block) for l3 in self.l3s):
            return True
        return any(
            caches.l1.contains(block) or caches.l2.contains(block)
            for caches in self.core_caches
        )
