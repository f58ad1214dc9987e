"""Set-associative write-back cache with pluggable replacement.

The model tracks block presence, dirtiness and recency; it does not store
data bytes (the simulator's backing store lives behind the memory
controller).  Both the data-cache hierarchy and the metadata cache at the
memory controller instantiate this class.  Replacement defaults to true
LRU (what the paper's mEvict analysis assumes); tree-PLRU and RANDOM are
available for the ablation sweeps (see ``repro.mem.replacement``).

Functional/timing split (docs/architecture.md): the cache is a purely
*functional* component — :meth:`decompose` is the pure address step
(block, set index), the probe, fill and drop below are the ``apply``
state transitions, and no latency lives here.  Hit/service cycles are
charged by the callers (the hierarchy and the MEE) from their config
tables.

Each operation has one entry, and the probe and the fill work on one
set, whose index the caller derives once and carries from the probe to
the fill: a probe is :meth:`hit`, then :meth:`miss` when it fails, a
fill is :meth:`install`, a drop is :meth:`invalidate`, and
:meth:`contains` looks without touching anything.  The data-cache
hierarchy and the MEE both probe and fill this way, and the hierarchy
drops a block from a whole level by popping it from every cache's set
(``sets``).

``config.replacement`` fixes how a set is represented:

* LRU: one insertion-ordered ``dict[block, dirty]`` kept
  least-recently-used first.  A hit is ``pop`` plus re-insert, the victim
  is the first key, and a fill or an invalidation is one dict operation.
* PLRU and RANDOM pick victims by way index, so a set is a
  :class:`_WaySlots`: the same ``block -> dirty`` dict plus a way-slot
  tag list and the set's policy object.

Sets are materialised lazily, on the first fill: a machine-sized L3 has
thousands of sets, but a typical workload touches a handful.
Materialising an LRU set costs one empty dict.  A PLRU/RANDOM set
allocates its way slots and its policy, seeded with its set index, so
replacement behaviour (including seeded RANDOM) does not depend on
when a set is first touched.
"""

from __future__ import annotations

from functools import partial

from repro.config import CacheConfig
from repro.core import Component
from repro.mem.replacement import make_policy
from repro.trace.counters import CounterRegistry
from repro.utils.bitops import log2_exact


class _WaySlots(dict):
    """One PLRU/RANDOM set: ``block -> dirty`` plus the way slots and the
    replacement-policy state that pick victims by way index.

    ``pop`` also frees the block's way, so invalidating a line is the
    same dict operation as on an LRU set.
    """

    __slots__ = ("tags", "policy")

    def __init__(self, ways: int, policy_name: str, seed: int) -> None:
        super().__init__()
        self.tags: list[int | None] = [None] * ways
        self.policy = make_policy(policy_name, ways, seed)

    def pop(self, block, *default):
        if block in self:
            self.tags[self.tags.index(block)] = None
        return super().pop(block, *default)

    def touch(self, block: int) -> None:
        self.policy.on_access(self.tags.index(block))

    def fill(self, block: int, dirty: bool) -> tuple[int | None, bool]:
        """Install an absent block; returns the (victim, victim dirty)."""
        tags = self.tags
        victim = None
        victim_dirty = False
        if None in tags:
            way = tags.index(None)
        else:
            way = self.policy.victim()
            victim = tags[way]
            victim_dirty = self.pop(victim)
        tags[way] = block
        self[block] = dirty
        self.policy.on_fill(way)
        return victim, victim_dirty


class SetAssocCache(Component):
    """A classic set-associative cache."""

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.replacement = config.replacement
        self._lru = config.replacement == "lru"
        # A block's set is ``(block >> block_shift) % num_sets``.
        self.block_shift = log2_exact(config.block_size)
        self._block_mask = ~(config.block_size - 1)
        # Lazily materialised sets: index -> lines, created on first fill
        # (probes of untouched sets never allocate).  Popping a block from
        # its set drops it, under every policy.
        self.sets: dict[int, dict[int, bool]] = {}
        self.counters = CounterRegistry()
        self._hits = self.counters.counter("hits")
        self._misses = self.counters.counter("misses")
        self._fills = self.counters.counter("fills")
        self._evictions = self.counters.counter("evictions")
        # Gauges read the state they report, not the cache, so the
        # machine graph stays acyclic (docs/architecture.md).
        self.counters.gauge("occupancy", partial(_resident_blocks, self.sets))
        # The tracer slot is created detached by the component graph;
        # attach via ``repro.core.attach``.
        self.init_component(f"cache.{config.name}")

    # ------------------------------------------------------------------
    # Address mapping (the pure ``decompose`` step)
    # ------------------------------------------------------------------

    def decompose(self, addr: int) -> tuple[int, int]:
        """Pure address decomposition: (block address, set index)."""
        block = addr & self._block_mask
        return block, (block >> self.block_shift) % self.num_sets

    def set_index_of(self, addr: int) -> int:
        """Cache set that the block containing ``addr`` maps to."""
        return (addr >> self.block_shift) % self.num_sets

    # ------------------------------------------------------------------
    # Operations (the ``apply`` state transitions)
    # ------------------------------------------------------------------

    def hit(self, block: int, set_index: int, dirty: bool) -> bool:
        """Serve a hit on an already decomposed address, if it is one.

        When ``block`` is resident in set ``set_index`` this refreshes
        recency, counts the hit, ORs in ``dirty`` and emits a ``hit``
        trace event, and returns True.  Otherwise it changes and emits
        nothing, not even the miss, and returns False: the caller then
        records the miss with :meth:`miss`.  The processor's executor
        probes L1 this way, and only this way, traced or not; the
        hierarchy probes L2 and L3, and the MEE its metadata caches, the
        same way (``dirty`` False).
        """
        lines = self.sets.get(set_index)
        if lines is None or block not in lines:
            return False
        if self._lru:
            lines[block] = lines.pop(block) or dirty
        else:
            lines.touch(block)
            if dirty:
                lines[block] = True
        self._hits.value += 1
        if self.tracer is not None:
            self.tracer.emit(
                self.component_name, "hit", addr=block, set_index=set_index
            )
        return True

    def miss(self, block: int, set_index: int) -> None:
        """Count and trace the miss a failed :meth:`hit` probe found,
        without probing again."""
        self._misses.value += 1
        if self.tracer is not None:
            self.tracer.emit(
                self.component_name, "miss", addr=block, set_index=set_index
            )

    def contains(self, addr: int) -> bool:
        """Presence check with no side effects (no LRU update, no stats)."""
        block, set_index = self.decompose(addr)
        lines = self.sets.get(set_index)
        return lines is not None and block in lines

    def install(
        self, block: int, set_index: int, dirty: bool = False
    ) -> tuple[int, bool] | None:
        """Fill ``block`` into set ``set_index``, both already derived
        (:meth:`decompose`), evicting a victim if the set is full.

        Returns ``(victim, victim_dirty)`` when a line was evicted, else
        None.  A resident block is refreshed instead (recency, dirty bit
        ORed in), with no count and no trace event.  The one fill: the
        data-cache hierarchy and the MEE's metadata fills all come here,
        for every replacement policy.
        """
        lines = self.sets.get(set_index)
        if lines is None:
            lines = {} if self._lru else _WaySlots(
                self.ways, self.replacement, set_index
            )
            self.sets[set_index] = lines
        if block in lines:
            if self._lru:
                lines[block] = lines.pop(block) or dirty
            else:
                lines[block] = lines[block] or dirty
                lines.touch(block)
            return None
        victim = None
        victim_dirty = False
        if self._lru:
            if len(lines) >= self.ways:
                victim = next(iter(lines))
                victim_dirty = lines.pop(victim)
            lines[block] = dirty
        else:
            victim, victim_dirty = lines.fill(block, dirty)
        self._fills.value += 1
        if self.tracer is not None:
            self.tracer.emit(
                self.component_name, "fill", addr=block, set_index=set_index
            )
            if victim is not None:
                self.tracer.emit(
                    self.component_name,
                    "evict",
                    addr=victim,
                    set_index=set_index,
                    value=float(victim_dirty),
                )
        if victim is None:
            return None
        self._evictions.value += 1
        return victim, victim_dirty

    def mark_dirty(self, addr: int) -> None:
        """Set the dirty bit of a resident block (no-op if absent)."""
        block, set_index = self.decompose(addr)
        lines = self.sets.get(set_index)
        if lines is not None and block in lines:
            lines[block] = True

    def is_dirty(self, addr: int) -> bool:
        block, set_index = self.decompose(addr)
        lines = self.sets.get(set_index)
        return lines is not None and lines.get(block, False)

    def invalidate(self, addr: int) -> tuple[bool, bool]:
        """Remove the block at ``addr``; returns (was_present, was_dirty)."""
        block = addr & self._block_mask
        lines = self.sets.get((block >> self.block_shift) % self.num_sets)
        if lines is None or block not in lines:
            return False, False
        return True, lines.pop(block)

    def blocks_in_set(self, set_index: int) -> list[int]:
        """Resident block addresses of one set (eviction-priority first
        under LRU; fill order otherwise)."""
        lines = self.sets.get(set_index)
        if lines is None:
            return []
        if self._lru:
            return list(lines)
        return [tag for tag in lines.tags if tag is not None]

    def occupancy(self) -> int:
        """Total resident blocks across all sets."""
        return _resident_blocks(self.sets)

    def state_snapshot(self) -> dict[int, tuple[tuple[int, bool], ...]]:
        """Canonical functional state: set index -> ordered (block, dirty).

        Ordering within a set is the eviction-priority order of
        :meth:`blocks_in_set`, so two caches with identical snapshots
        behave identically under future fills — the batch-vs-scalar
        equivalence property compares exactly this.
        """
        snapshot: dict[int, tuple[tuple[int, bool], ...]] = {}
        for set_index in sorted(self.sets):
            lines = self.sets[set_index]
            if lines:
                snapshot[set_index] = tuple(
                    (block, lines[block])
                    for block in self.blocks_in_set(set_index)
                )
        return snapshot

    def __iter__(self):
        for lines in self.sets.values():
            yield from lines

    def clear(self) -> None:
        # Emptied in place: the occupancy gauge and the hierarchy hold the
        # set map.
        self.sets.clear()


def _resident_blocks(sets: dict[int, dict[int, bool]]) -> int:
    return sum(map(len, sets.values()))
