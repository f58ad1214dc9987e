"""Background interference for attack-accuracy experiments.

Real machines run other workloads whose memory traffic shares the metadata
cache and DRAM banks with the attacker.  :class:`NoiseProcess` models one:
a co-running process on another core that reads its own pages at a
configurable intensity.  Its counter-block and tree-node fills randomly
pressure metadata-cache sets, occasionally evicting the attacker's target
between the victim's access and the attacker's reload — the error source
behind the paper's 90–97%% (rather than 100%%) accuracies.
"""

from __future__ import annotations

from repro.config import PAGE_SIZE
from repro.os.page_alloc import PageAllocator
from repro.proc.processor import SecureProcessor
from repro.utils.rng import DeterministicRng, derive_rng


class NoiseProcess:
    """A co-running process issuing random cleansed reads."""

    def __init__(
        self,
        proc: SecureProcessor,
        allocator: PageAllocator,
        *,
        core: int = 2,
        pages: int = 128,
        reads_per_step: int = 4,
        rng: DeterministicRng | None = None,
        seed: int = 7,
    ) -> None:
        if reads_per_step < 0:
            raise ValueError("reads_per_step must be non-negative")
        if pages <= 0:
            # An empty working set would make step()'s rng.choice blow up
            # long after construction; fail at the call site instead.
            raise ValueError("pages must be positive")
        if not 0 <= core < proc.config.cores:
            raise ValueError(
                f"core {core} out of range for a {proc.config.cores}-core machine"
            )
        self.proc = proc
        self.core = core
        self.reads_per_step = reads_per_step
        self.rng = rng or derive_rng(seed, "noise")
        self._frames = allocator.alloc_many(pages, core)
        self.steps = 0
        self.reads_issued = 0

    def step(self) -> None:
        """Run one quantum of background work."""
        self.steps += 1
        for _ in range(self.reads_per_step):
            frame = self.rng.choice(self._frames)
            offset = self.rng.randrange(0, PAGE_SIZE, 64)
            addr = frame * PAGE_SIZE + offset
            self.proc.flush(addr)
            self.proc.read(addr, core=self.core)
            self.reads_issued += 1


class ConflictingNoiseProcess(NoiseProcess):
    """A co-runner whose working set conflicts with chosen metadata sets.

    A generic :class:`NoiseProcess` working set rarely lands in the one
    metadata-cache set a monitor depends on, so its interference is
    mostly queueing delay.  The worst-case neighbour is one whose
    metadata footprint *collides*: each of its accesses has a 5% chance
    of evicting a monitored tree node between the victim's access and
    the attacker's reload, flipping observed 1-bits to 0 (the sweep of a
    conflicting set is modelled with the mEvict primitive, since only the
    caching side-effect matters); the rest of the step is ordinary
    random reads.  Error intensity therefore grows smoothly with
    ``reads_per_step`` — the knob the noise sweeps turn.
    """

    def __init__(
        self,
        proc: SecureProcessor,
        allocator: PageAllocator,
        *,
        conflict_addrs: tuple[int, ...],
        **kwargs: object,
    ) -> None:
        super().__init__(proc, allocator, **kwargs)
        if not conflict_addrs:
            raise ValueError("conflict_addrs must name at least one address")
        # Deferred import: mapping imports noise's sibling modules.
        from repro.attacks.mapping import MetadataEvictor

        self.conflict_addrs = tuple(conflict_addrs)
        self.conflicts_issued = 0
        self._evictor = MetadataEvictor(proc, allocator, core=self.core)

    def step(self) -> None:
        self.steps += 1
        for _ in range(self.reads_per_step):
            if self.rng.random() < 0.05:
                self._evictor.evict(self.conflict_addrs)
                self.conflicts_issued += 1
                continue
            frame = self.rng.choice(self._frames)
            offset = self.rng.randrange(0, PAGE_SIZE, 64)
            addr = frame * PAGE_SIZE + offset
            self.proc.flush(addr)
            self.proc.read(addr, core=self.core)
            self.reads_issued += 1


def co_located_noise(
    channel: object,
    allocator: PageAllocator,
    *,
    reads_per_step: int,
) -> ConflictingNoiseProcess:
    """Worst-case co-runner for a ``CovertChannelT``: its working set
    of 32 pages, read from core 2, conflicts with the channel's
    transmission node.

    The boundary node is left alone, so frame synchronisation survives
    while payload bits degrade — exactly the regime the ECC framing
    layer is built for.
    """
    return ConflictingNoiseProcess(
        channel.proc,  # type: ignore[attr-defined]
        allocator,
        conflict_addrs=(channel.tx_monitor.node_addr,),  # type: ignore[attr-defined]
        reads_per_step=reads_per_step,
        pages=32,
    )
