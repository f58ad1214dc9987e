"""Process and address-space abstractions over the secure processor.

A :class:`Process` owns an :class:`AddressSpace` (virtual-page -> physical-
frame map) and issues reads/writes on a fixed core.  Victim programs are
written against this interface so the same code runs on any machine
configuration (SCT / HT / SGX presets).

The ``cleanse`` flag models the threat-model assumption of Section III that
the victim's accesses of interest reach the LLC/memory controller (cache
cleansing between security-domain switches, or persistent-memory style
write-through): when set, a read is followed by a flush of the line and a
write is a write-through.  :class:`ProcessBatch` applies that rule, and
the scalar :meth:`Process.read`/``write``/``flush`` calls are one-op
batches, as the processor's scalar calls are.
"""

from __future__ import annotations

from repro.config import PAGE_SIZE
from repro.os.page_alloc import PageAllocator
from repro.proc.batch import AccessBatch, BatchResult
from repro.proc.processor import AccessResult, SecureProcessor


class AddressSpace:
    """A sparse virtual -> physical page map."""

    def __init__(self, allocator: PageAllocator, core: int = 0) -> None:
        self.allocator = allocator
        self.core = core
        self._map: dict[int, int] = {}
        self._next_vpage = 0x100  # arbitrary non-zero base

    def map_page(self, vpage: int | None = None, frame: int | None = None) -> int:
        """Map a virtual page; returns the virtual page number.

        ``frame`` pins a specific physical frame (attacker/OS-controlled
        placement); otherwise the per-core allocator decides.
        """
        if vpage is None:
            vpage = self._next_vpage
            self._next_vpage += 1
        if vpage in self._map:
            raise ValueError(f"virtual page {vpage:#x} already mapped")
        if frame is None:
            frame = self.allocator.alloc(self.core)
        else:
            frame = self.allocator.alloc_specific(frame)
        self._map[vpage] = frame
        return vpage

    def alloc(self, pages: int = 1) -> int:
        """Map ``pages`` consecutive virtual pages; returns base vaddr."""
        base = self._next_vpage
        for i in range(pages):
            self.map_page(base + i)
        self._next_vpage = base + pages
        return base * PAGE_SIZE

    def translate(self, vaddr: int) -> int:
        vpage, offset = divmod(vaddr, PAGE_SIZE)
        frame = self._map.get(vpage)
        if frame is None:
            raise KeyError(f"virtual address {vaddr:#x} not mapped")
        return frame * PAGE_SIZE + offset

    def frame_of(self, vaddr: int) -> int:
        return self.translate(vaddr) // PAGE_SIZE


class Process:
    """A software context: address space + core + cleansing policy."""

    def __init__(
        self,
        proc: SecureProcessor,
        allocator: PageAllocator,
        *,
        core: int = 0,
        cleanse: bool = False,
        name: str = "proc",
    ) -> None:
        self.proc = proc
        self.address_space = AddressSpace(allocator, core)
        self.core = core
        self.cleanse = cleanse
        self.name = name

    def alloc(self, pages: int = 1) -> int:
        return self.address_space.alloc(pages)

    def map_page(self, vpage: int | None = None, frame: int | None = None) -> int:
        return self.address_space.map_page(vpage, frame)

    def read(self, vaddr: int) -> AccessResult:
        return self.batch().read(vaddr).run()[0]

    def write(self, vaddr: int, data: bytes | None = None) -> AccessResult:
        return self.batch().write(vaddr, data).run()[0]

    def flush(self, vaddr: int) -> None:
        self.batch().flush(vaddr).run()

    def paddr(self, vaddr: int) -> int:
        return self.address_space.translate(vaddr)

    def batch(self) -> "ProcessBatch":
        """Start recording a batched access sequence for this process."""
        return ProcessBatch(self)


class ProcessBatch:
    """A recorded access sequence of one :class:`Process`, which its
    scalar calls run as one-op batches.

    Translation happens at record time, and the process's ``cleanse``
    policy expands each access into its access+flush (or write-through)
    form, here and only here; ``run()`` submits everything through
    ``SecureProcessor.run_batch`` in one call and returns the
    :class:`BatchResult`.
    """

    __slots__ = ("process", "batch")

    def __init__(self, process: Process) -> None:
        self.process = process
        self.batch = AccessBatch()

    def __len__(self) -> int:
        return len(self.batch)

    def read(self, vaddr: int) -> "ProcessBatch":
        process = self.process
        paddr = process.address_space.translate(vaddr)
        self.batch.read(paddr, core=process.core)
        if process.cleanse:
            self.batch.flush(paddr)
        return self

    def write(self, vaddr: int, data: bytes | None = None) -> "ProcessBatch":
        process = self.process
        paddr = process.address_space.translate(vaddr)
        if process.cleanse:
            # Cleansed/persistent writes go straight to the MC.
            self.batch.write_through(paddr, data, core=process.core)
        else:
            self.batch.write(paddr, data, core=process.core)
        return self

    def flush(self, vaddr: int) -> "ProcessBatch":
        self.batch.flush(self.process.address_space.translate(vaddr))
        return self

    def drain(self) -> "ProcessBatch":
        self.batch.drain()
        return self

    def run(self) -> BatchResult:
        return self.process.proc.run_batch(self.batch)
