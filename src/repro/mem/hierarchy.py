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
from repro.mem.block import block_address
from repro.mem.cache import SetAssocCache, invalidate_level

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
        # Each core's caches in one lookup: its L1, L2 and socket L3, and
        # the L1s and L2s of its socket, which an L3 eviction invalidates.
        per_socket = self.cores_per_socket
        self._paths = []
        for core, caches in enumerate(self.core_caches):
            first = core - core % per_socket
            self._paths.append((
                caches.l1, caches.l2, self.l3s[self.socket_of(core)],
                l1s[first : first + per_socket], l2s[first : first + per_socket],
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
        l1, l2, l3, _, _ = self._paths[core]
        l1.miss(block, l1_set)
        if l2.lookup(block):
            writebacks: list[int] = []
            _install_l1(l1, l2, l3, block, is_write, writebacks)
            return 2, writebacks
        if l3.lookup(block):
            writebacks = []
            _install_private(l1, l2, l3, block, is_write, writebacks)
            return 3, writebacks
        return 0, _NO_WRITEBACKS

    def fill(self, core: int, block: int, *, dirty: bool) -> list[int]:
        """Install a block fetched from memory in L3, then L2, then L1.

        Returns dirty blocks evicted to memory as a side effect.
        """
        l1, l2, l3, l1s, l2s = self._paths[core]
        writebacks: list[int] = []
        l3_evt = l3.insert(block)
        victim = l3_evt.evicted_addr
        if victim is not None:
            # Inclusive L3: back-invalidate private copies in this socket.
            dirty_l1 = invalidate_level(l1s, victim)
            dirty_l2 = invalidate_level(l2s, victim)
            if l3_evt.evicted_dirty or dirty_l1 or dirty_l2:
                writebacks.append(victim)
        _install_private(l1, l2, l3, block, dirty, writebacks)
        return writebacks

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


def _install_private(l1, l2, l3, block, dirty, writebacks) -> None:
    """Install ``block`` in L2, then L1, appending memory writebacks."""
    l2_evt = l2.insert(block)
    if l2_evt.evicted_dirty:
        _fold_dirty(l2_evt.evicted_addr, (l3,), writebacks)
    _install_l1(l1, l2, l3, block, dirty, writebacks)


def _install_l1(l1, l2, l3, block, dirty, writebacks) -> None:
    """Install ``block`` in L1 (an L2-hit promotion, or the last step of
    a fill), appending memory writebacks."""
    l1_evt = l1.insert(block, dirty=dirty)
    if l1_evt.evicted_dirty:
        _fold_dirty(l1_evt.evicted_addr, (l2, l3), writebacks)


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
        if cache.contains(victim):
            cache.mark_dirty(victim)
            return
    writebacks.append(victim)
