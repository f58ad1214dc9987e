"""MetaLeak-T: mEvict+mReload over shared integrity-tree nodes (Sec. VI-A).

The attacker monitors a victim page's activity through the integrity-tree
node block ``N_s`` that the victim's counter block hangs off.  Because the
tree is one logical structure per memory controller, ``N_s`` is shared with
every other page in its subtree — including an attacker page placed there
via OS page-placement — even though no data is shared.

One monitoring round:

1. **mEvict** — evict ``N_s`` (and the counter blocks of the probe and the
   victim page) from the metadata cache using curated data accesses;
2. **idle**  — let the victim run; a victim access to ``D_V`` walks the
   tree and re-loads ``N_s``;
3. **mReload** — time a read of the attacker's probe block ``D_A`` whose
   verification path goes through ``N_s``: fast ⇒ ``N_s`` cached ⇒ the
   victim accessed; slow ⇒ it did not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import PAGE_SIZE
from repro.attacks.mapping import MetadataEvictor, MetadataMapper
from repro.attacks.resilience import Calibration, score_calibration
from repro.os.page_alloc import PageAllocator
from repro.proc.processor import SecureProcessor


@dataclass
class MonitorStats:
    rounds: int = 0
    hits: int = 0
    evict_accesses: int = 0
    latencies: list[int] = field(default_factory=list)


class TreeNodeMonitor:
    """Monitors one shared tree node block with mEvict+mReload."""

    def __init__(
        self,
        proc: SecureProcessor,
        evictor: MetadataEvictor,
        *,
        node_addr: int,
        probe_block: int,
        extra_evict: tuple[int, ...] = (),
        core: int = 0,
    ) -> None:
        self.proc = proc
        self.evictor = evictor
        self.node_addr = node_addr
        self.probe_block = probe_block
        self.core = core
        mapper = evictor.mapper
        self._evict_list = (
            node_addr,
            mapper.counter_addr(probe_block),
            *extra_evict,
        )
        # Same list minus the monitored node: evicting only the probe's
        # counter (and lower path) while the node stays cached produces the
        # fast band for self-calibration.
        self._evict_list_keep_node = tuple(
            addr
            for addr in self._evict_list
            if mapper.meta_set_of(addr) != mapper.meta_set_of(node_addr)
        )
        self.stats = MonitorStats()
        self.last_confidence = 0.0
        # The reload threshold is the midpoint of the bands profiled on
        # this very probe; bands that do not separate score quality 0,
        # and every reload scored against them reports zero confidence.
        self.calibration: Calibration = score_calibration(*self._band_samples())
        self.threshold = self.calibration.threshold

    def _band_samples(self) -> tuple[list[int], list[int]]:
        """Self-profile the fast/slow reload bands on this very probe,
        eight reloads each.

        The attacker produces both node states itself: a full mEvict makes
        the next reload slow (node fetched from memory); a reload right
        after — with only the probe's counter re-evicted — is fast (node
        just cached).  Profiling on the actual probe block keeps
        machine-specific effects (bank conflicts on this address, row
        state) inside the calibration.
        """
        fast: list[int] = []
        slow: list[int] = []
        for _ in range(8):
            self.evictor.evict(self._evict_list)
            self.proc.flush(self.probe_block)
            self.proc.quiesce()
            slow.append(self.proc.read(self.probe_block, core=self.core).latency)
            self.evictor.evict(self._evict_list_keep_node)
            self.proc.flush(self.probe_block)
            self.proc.quiesce()
            fast.append(self.proc.read(self.probe_block, core=self.core).latency)
        return fast, slow

    def m_evict(self) -> None:
        """Step 1: push the shared node (and probe counter) off-chip."""
        self.stats.evict_accesses += self.evictor.evict(self._evict_list)
        # The probe data block itself must miss the data caches too.
        self.proc.flush(self.probe_block)

    def m_reload(self) -> tuple[int, bool]:
        """Step 3: timed probe read; returns (latency, victim_accessed)."""
        self.proc.quiesce()
        latency = self.proc.read(self.probe_block, core=self.core).latency
        hit = latency < self.threshold
        self.stats.rounds += 1
        self.stats.hits += int(hit)
        self.stats.latencies.append(latency)
        self.last_confidence = self.calibration.confidence(latency)
        return latency, hit


class MetaLeakT:
    """Factory wiring mappers, evictors and calibration for MetaLeak-T."""

    def __init__(
        self,
        proc: SecureProcessor,
        allocator: PageAllocator,
        *,
        core: int = 0,
    ) -> None:
        self.proc = proc
        self.allocator = allocator
        self.core = core
        self.mapper = MetadataMapper(proc)
        # One evictor shared by all monitors: its protected region grows as
        # monitors are added, so eviction traffic for one monitored node
        # never strays under another monitored node's subtree.
        self.evictor = MetadataEvictor(proc, allocator, core=core)

    def claim_probe_page(self, victim_frame: int, level: int) -> int:
        """Allocate an attacker page sharing the victim's level-``level``
        tree node (Section VIII-B co-location).  Returns the frame number.
        """
        group = self.proc.layout.pages_sharing_node(victim_frame, level)
        for frame in group:
            if frame == victim_frame:
                continue
            if not self.allocator.is_allocated(frame):
                return self.allocator.alloc_specific(frame)
        raise RuntimeError(
            f"no free frame shares a level-{level} node with frame {victim_frame}"
        )

    def monitor_for_page(
        self,
        victim_frame: int,
        *,
        level: int = 0,
        probe_frame: int | None = None,
    ) -> TreeNodeMonitor:
        """Build a monitor for victim activity on one physical page.

        ``probe_frame`` may be supplied when co-location was already
        arranged; otherwise a frame in the shared group is claimed.
        """
        if probe_frame is None:
            probe_frame = self.claim_probe_page(victim_frame, level)
        victim_paddr = victim_frame * PAGE_SIZE
        probe_paddr = probe_frame * PAGE_SIZE
        node_addr = self.mapper.tree_node_addr(victim_paddr, level)
        if self.mapper.tree_node_addr(probe_paddr, level) != node_addr:
            raise ValueError(
                f"probe frame {probe_frame} does not share the level-{level} "
                f"node with victim frame {victim_frame}"
            )
        self.evictor.protect(
            self.mapper.pages_under_node(
                *self.mapper.node_of_data(victim_paddr, level)
            )
        )
        evictor = self.evictor
        # The victim's own counter block must miss as well so its access
        # actually walks the tree and touches N_s.
        extra = (self.mapper.counter_addr(victim_paddr),)
        # Evicting intermediate path nodes below the monitored level keeps
        # both the victim's walk and the probe's reload walk reaching N_s
        # when monitoring above the leaf.
        for lower in range(level):
            extra += (
                self.mapper.tree_node_addr(victim_paddr, lower),
                self.mapper.tree_node_addr(probe_paddr, lower),
            )
        return TreeNodeMonitor(
            self.proc,
            evictor,
            node_addr=node_addr,
            probe_block=probe_paddr,
            extra_evict=extra,
            core=self.core,
        )

