"""MetaLeak-C: mPreset+mOverflow write monitoring (Section VI-B).

The attacker shares a tree minor counter with the victim: the counter in
node block ``(level, n)`` that tracks one child subtree containing both
attacker- and victim-owned pages.  Write activity under that subtree —
once it propagates into the tree via counter/node write-backs — increments
the shared minor.  The attack:

1. **mPreset** — reset the counter to a known state by bumping it until an
   overflow is observed, then bump it to the desired preset value;
2. **idle**   — the victim runs; its write(s) advance the counter;
3. **mOverflow** — bump while timing until the overflow fires; the number
   of attacker bumps reveals how many victim writes happened.

A *bump* is one unit of counter advance.  Under the lazy update policy
(the paper's design) it is a data write followed by the chain of metadata
write-backs that carries it to the target level: evict the counter block
(leaf minor++), evict the L0 node (L1 minor++), and so on.  Bump writes
rotate across data blocks/pages of the attacker's share of the subtree to
avoid overflowing encryption counters or tree minors *below* the target
level, exactly as Section VIII-A2 prescribes.

Overflow is observed through timing only: the subtree reset + re-hash
burst occupies DRAM banks, so one of the attacker's timed reads lands in a
dramatically higher latency band (Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BLOCK_SIZE, PAGE_SIZE, TreeKind, TreeUpdatePolicy
from repro.attacks.mapping import MetadataEvictor, MetadataMapper
from repro.os.page_alloc import PageAllocator
from repro.proc.processor import SecureProcessor
from repro.utils.watchdog import CycleBudget, ensure_budget

# A quiet metadata-path read stays under ~1000 cycles even with queueing;
# the smallest overflow burst (leaf level: 33 blocks re-hashed) exceeds it
# comfortably.
OVERFLOW_THRESHOLD = 1400


@dataclass
class CounterAttackStats:
    bumps: int = 0
    overflows_observed: int = 0
    resets: int = 0
    presets: int = 0


@dataclass(frozen=True)
class OverflowScan:
    """Structured outcome of one bump-until-overflow scan.

    ``fired`` distinguishes a real overflow from a scan that gave up —
    either because the bump limit was reached (the counter is not shared
    as expected, or noise swallowed the tell) or because the cycle
    budget expired mid-scan (``aborted``).  Callers that cannot tolerate
    a miss keep using the raising wrappers; resilient callers branch on
    ``fired`` and degrade instead of dying.
    """

    fired: bool
    bumps: int
    aborted: bool = False


class SharedCounterHandle:
    """Drives one shared tree minor counter from the attacker side."""

    def __init__(
        self,
        proc: SecureProcessor,
        evictor: MetadataEvictor,
        *,
        level: int,
        node_index: int,
        bump_pages: list[int],
        core: int = 0,
    ) -> None:
        self.proc = proc
        self.evictor = evictor
        self.mapper = evictor.mapper
        self.level = level
        self.node_index = node_index
        self.bump_pages = list(bump_pages)
        self.core = core
        self.minor_max = (1 << proc.config.tree.minor_bits) - 1
        self._rotation = 0
        self.stats = CounterAttackStats()
        # Largest timed-read latency observed during the latest bump — the
        # raw Figure-8 observable (quiet band vs overflow band).
        self.last_bump_latency = 0
        if proc.config.tree.kind is TreeKind.HASH:
            raise ValueError("MetaLeak-C requires a counter tree (SCT)")

    # ------------------------------------------------------------------

    def _next_bump_block(self) -> int:
        """Rotate writes across pages and blocks to spare lower counters."""
        page = self.bump_pages[self._rotation % len(self.bump_pages)]
        block = (self._rotation // len(self.bump_pages)) % (PAGE_SIZE // BLOCK_SIZE)
        self._rotation += 1
        return page * PAGE_SIZE + block * BLOCK_SIZE

    def bump(self) -> bool:
        """Advance the shared counter by one; True if an overflow fired."""
        self.stats.bumps += 1
        addr = self._next_bump_block()
        self.proc.write_through(addr, b"\xA5", core=self.core)
        self.proc.drain_writes()
        if self.proc.config.tree_update_policy is TreeUpdatePolicy.EAGER:
            # The drain itself carried the update to every level; probe by
            # timing one uncached read against the possible burst.
            return self._timed_probe()
        max_latency = self._propagate(addr)
        self.last_bump_latency = max_latency
        overflowed = max_latency > OVERFLOW_THRESHOLD
        if overflowed:
            self.stats.overflows_observed += 1
        return overflowed

    def _propagate(self, data_addr: int) -> int:
        """Carry the pending update up to the target level via evictions.

        Returns the largest single read latency seen — the overflow tell.
        """
        max_latency = 0
        self.evictor.evict((self.mapper.counter_addr(data_addr),))
        max_latency = max(max_latency, self.evictor.last_max_read_latency)
        for lower in range(self.level):
            node_addr = self.mapper.tree_node_addr(data_addr, lower)
            self.evictor.evict((node_addr,))
            max_latency = max(max_latency, self.evictor.last_max_read_latency)
        # One trailing timed read: a burst triggered by the very last
        # write-back of the final pass would otherwise delay nothing the
        # attacker measures.
        probe = self.bump_pages[0] * PAGE_SIZE + (PAGE_SIZE - BLOCK_SIZE)
        self.proc.flush(probe)
        max_latency = max(
            max_latency, self.proc.read(probe, core=self.core).latency
        )
        return max_latency

    def _timed_probe(self) -> bool:
        probe = self.bump_pages[0] * PAGE_SIZE + (PAGE_SIZE - BLOCK_SIZE)
        self.proc.read(probe, core=self.core)
        self.proc.flush(probe)
        latency = self.proc.read(probe, core=self.core).latency
        overflowed = latency > OVERFLOW_THRESHOLD
        if overflowed:
            self.stats.overflows_observed += 1
        return overflowed

    # ------------------------------------------------------------------
    # The three attack steps
    # ------------------------------------------------------------------

    def scan_to_overflow(
        self,
        *,
        max_bumps: int | None = None,
        budget: "CycleBudget | int | None" = None,
    ) -> OverflowScan:
        """Bump until overflow, a bump limit, or budget expiry.

        The non-raising core of :meth:`reset` / :meth:`count_to_overflow`:
        always returns an :class:`OverflowScan` so resilient callers can
        degrade gracefully when the overflow tell never shows (and never
        livelock — the bump limit and the cycle budget both bound the
        scan).
        """
        budget = ensure_budget(self.proc, budget)
        limit = max_bumps or (self.minor_max + 2)
        for spent in range(1, limit + 1):
            if budget.expired:
                return OverflowScan(fired=False, bumps=spent - 1, aborted=True)
            if self.bump():
                return OverflowScan(fired=True, bumps=spent)
        return OverflowScan(fired=False, bumps=limit)

    def reset(self) -> int:
        """mPreset phase 1: bump until overflow; counter is then known.

        After the observed overflow the minor holds exactly 1 (the
        overflow-triggering update is recounted from zero).  Returns the
        number of bumps spent.
        """
        self.stats.resets += 1
        scan = self.scan_to_overflow()
        if not scan.fired:
            raise RuntimeError(
                f"no overflow after {scan.bumps} bumps: counter not shared "
                "as expected"
            )
        return scan.bumps

    def preset(self, value: int) -> None:
        """mPreset phase 2: move the (just-reset) counter to ``value``."""
        if not 1 <= value <= self.minor_max:
            raise ValueError(f"preset value must be in 1..{self.minor_max}")
        self.stats.presets += 1
        for _ in range(value - 1):  # reset leaves the counter at 1
            if self.bump():
                raise RuntimeError("unexpected overflow during preset")

    def arm_for_writes(self, expected_writes: int = 1) -> None:
        """Convenience: reset then preset so ``expected_writes`` victim
        writes saturate the counter (Figure 13's `2^n - x + 1` rule)."""
        self.reset()
        self.preset(self.minor_max - expected_writes)

    def count_victim_writes(self, *, armed_for: int) -> int:
        """Generalised mOverflow: how many times did the victim write?

        Requires the counter to have been armed with
        ``preset(minor_max - armed_for)`` (Figure 13's ``2^n - x + 1``
        rule).  After the victim runs (and its updates are collected),
        ``m`` attacker bumps to overflow mean the victim wrote
        ``armed_for - m + 1`` times.  The overflow leaves the counter at
        1, ready for re-arming.
        """
        if not 1 <= armed_for <= self.minor_max - 1:
            raise ValueError(f"armed_for must be in 1..{self.minor_max - 1}")
        extra = self.count_to_overflow(max_bumps=armed_for + 2)
        victim_writes = armed_for - extra + 1
        if victim_writes < 0:
            raise RuntimeError(
                "more attacker bumps than armed for: counter not in the "
                "expected state (was it armed?)"
            )
        return victim_writes

    def count_to_overflow(self, *, max_bumps: int | None = None) -> int:
        """mOverflow: additional attacker bumps needed to fire the overflow.

        Fewer bumps than armed for means the victim wrote; the difference
        is the victim's write count.
        """
        scan = self.scan_to_overflow(max_bumps=max_bumps)
        if not scan.fired:
            raise RuntimeError(f"no overflow after {scan.bumps} bumps")
        return scan.bumps

    # -- ground truth for tests (not attacker-visible) ---------------------

    def true_value(self) -> int:
        node = self.proc.mee.tree._node(self.level, self.node_index)
        slot = self._observed_slot()
        return node.minors[slot]

    def _observed_slot(self) -> int:
        data_addr = self.bump_pages[0] * PAGE_SIZE
        cb_index = self.proc.layout.counter_block_index(data_addr)
        if self.level == 0:
            return cb_index % self.proc.layout.levels[0].arity
        child_index = self.proc.layout.node_index(self.level - 1, cb_index)
        return self.proc.layout.child_slot(self.level - 1, child_index)


class MetaLeakC:
    """Factory for shared-counter handles."""

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
        self._collect_evictor: MetadataEvictor | None = None

    def handle_for_page(
        self,
        victim_frame: int,
        *,
        level: int = 1,
    ) -> SharedCounterHandle:
        """Build a handle on the tree minor shared with ``victim_frame``.

        The target is the level-``level`` minor tracking the victim's
        level-``level - 1`` subtree (its counter block for level 1).  The
        attacker claims up to 8 free pages *inside that same child
        subtree* so its writes advance the very counter the victim's
        writes advance.
        """
        if level < 1:
            raise ValueError(
                "MetaLeak-C needs level >= 1: a leaf minor tracks exactly "
                "one page's counter block, which cannot be shared across "
                "domains (same argument as SGX L0 in Section VIII-B)"
            )
        victim_paddr = victim_frame * PAGE_SIZE
        layout = self.proc.layout
        cb_index = layout.counter_block_index(victim_paddr)
        child_level = level - 1
        child_index = layout.node_index(child_level, cb_index)
        node_index = layout.node_index(level, cb_index)
        # Pages under the child subtree (the counter-sharing group).
        if child_level == 0:
            group = layout.data_pages_under_node(0, child_index)
        else:
            group = layout.data_pages_under_node(child_level, child_index)
        bump_pages = []
        for frame in group:
            if frame == victim_frame or self.allocator.is_allocated(frame):
                continue
            bump_pages.append(self.allocator.alloc_specific(frame))
            if len(bump_pages) == 8:
                break
        if not bump_pages:
            raise RuntimeError("no free pages share the target subtree")
        protect = set()  # eviction traffic may touch anything: values, not
        # caching state, carry the channel here.
        evictor = MetadataEvictor(
            self.proc, self.allocator, core=self.core, protect_pages=protect
        )
        return SharedCounterHandle(
            self.proc,
            evictor,
            level=level,
            node_index=node_index,
            bump_pages=bump_pages,
            core=self.core,
        )

    def collect_victim_updates(self, victim_frame: int, *, level: int = 1) -> None:
        """Push the victim's pending metadata updates into the tree.

        After the victim's writes, its dirty counter block (and any dirty
        intermediate nodes) may still sit in the metadata cache; the
        attacker evicts them so the shared counter reflects the victim's
        activity before mOverflow runs.
        """
        victim_paddr = victim_frame * PAGE_SIZE
        # The victim's stores may still be posted in the MC write queue;
        # flushing it (redundant-write trick of Section VI-B) makes the
        # counters absorb them before the eviction chain runs.
        self.proc.drain_writes()
        if self._collect_evictor is None:
            self._collect_evictor = MetadataEvictor(
                self.proc, self.allocator, core=self.core
            )
        evictor = self._collect_evictor
        evictor.evict((self.mapper.counter_addr(victim_paddr),))
        for lower in range(level):
            evictor.evict((self.mapper.tree_node_addr(victim_paddr, lower),))
