"""Empirical eviction-set discovery (no layout knowledge required).

The main framework computes metadata addresses analytically — fine for a
simulator, and for real attackers on documented layouts.  This module
implements the harder, more portable variant: starting from a large pool
of candidate pages, *measure* which subset evicts the target's metadata,
using only reload timing.  It is the standard group-testing reduction
used by cache-attack tooling, applied to the metadata cache through the
data-access indirection of Section VI-A.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import PAGE_SIZE
from repro.os.page_alloc import PageAllocator
from repro.proc.processor import SecureProcessor


@dataclass
class SearchStats:
    tests: int = 0
    accesses: int = 0


class EvictionSetSearch:
    """Group-testing search for a metadata eviction set.

    ``target_block`` is an attacker-owned data block whose *tree-leaf*
    caching state the attacker can sense via reload timing (fast = leaf
    cached).  The search finds a minimal subset of candidate pages whose
    accesses evict that leaf node — without ever computing a metadata
    address.
    """

    def __init__(
        self,
        proc: SecureProcessor,
        allocator: PageAllocator,
        *,
        target_block: int,
        core: int = 0,
    ) -> None:
        self.proc = proc
        self.allocator = allocator
        self.target_block = target_block
        self.core = core
        self.stats = SearchStats()
        # Reload-latency bands are address-specific (bank conflicts between
        # the data fetch and metadata fetches), so calibrate on the actual
        # target.
        self.threshold = self._calibrate()

    def _calibrate(self) -> float:
        """Midpoint of the fast and slow reload bands, six samples each."""
        fast, slow = [], []
        leaf_addr = self.proc.layout.node_addr_for_data(self.target_block, 0)
        for _ in range(6):
            self._prime_target()
            self.proc.flush(self.target_block)
            self.proc.quiesce()
            fast.append(self.proc.read(self.target_block, core=self.core).latency)
            self._prime_target()
            self.proc.mee.invalidate_metadata(leaf_addr)
            self.proc.flush(self.target_block)
            self.proc.quiesce()
            slow.append(self.proc.read(self.target_block, core=self.core).latency)
        return (sum(fast) / len(fast) + sum(slow) / len(slow)) / 2

    # -- measurement primitives -------------------------------------------

    def _prime_target(self) -> None:
        """Load the target's full verification path into the metadata cache."""
        self.proc.flush(self.target_block)
        self.proc.mee.flush_metadata_cache(self.proc.cycle)
        self.proc.read(self.target_block, core=self.core)
        self.proc.flush(self.target_block)
        # Counter must miss on reload so the walk reaches the leaf node.
        counter_addr = self.proc.layout.counter_block_addr(self.target_block)
        self.proc.mee.invalidate_metadata(counter_addr)

    def _reload_is_slow(self) -> bool:
        self.proc.flush(self.target_block)
        self.proc.quiesce()
        latency = self.proc.read(self.target_block, core=self.core).latency
        return latency >= self.threshold

    def evicts(self, candidate_pages: list[int]) -> bool:
        """Does accessing this candidate set evict the target's leaf?"""
        self.stats.tests += 1
        self._prime_target()
        for frame in candidate_pages:
            addr = frame * PAGE_SIZE
            self.proc.flush(addr)
            self.proc.read(addr, core=self.core)
            self.stats.accesses += 1
        return self._reload_is_slow()

    # -- group-testing reduction --------------------------------------------

    def find_minimal_set(self, candidate_pages: list[int]) -> list[int]:
        """Reduce a working candidate pool to a minimal eviction set.

        Classic one-out reduction: repeatedly drop a chunk and keep the
        remainder if it still evicts, for at most 200 rounds.  Raises if
        the initial pool does not evict the target.
        """
        pool = list(candidate_pages)
        if not self.evicts(pool):
            raise ValueError(
                "candidate pool does not evict the target metadata; "
                "grow the pool"
            )
        index = 0
        chunk = max(1, len(pool) // 8)
        for _ in range(200):
            if index >= len(pool):
                if chunk == 1:
                    break
                chunk = max(1, chunk // 2)
                index = 0
                continue
            trial = pool[:index] + pool[index + chunk :]
            if trial and self.evicts(trial):
                pool = trial
            else:
                index += chunk
        return pool

    def verify(self, eviction_set: list[int], trials: int = 5) -> float:
        """Fraction of trials in which the set evicts the target."""
        if trials <= 0:
            raise ValueError(
                f"trials must be positive, got {trials}: verifying over "
                "zero trials would claim certainty from no evidence"
            )
        hits = sum(self.evicts(eviction_set) for _ in range(trials))
        return hits / trials
