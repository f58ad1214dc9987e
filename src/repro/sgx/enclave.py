"""Enclaves: processes whose EPC frame placement the (malicious) OS picks.

SGX protects enclave memory contents but leaves page-to-frame assignment to
the untrusted OS.  The paper's attacker uses that to create integrity-tree
co-location at a chosen level: it simply maps the victim's sensitive pages
into EPC frames that share a SIT node block with attacker frames
(Section VIII-B, "Attack Setup").
"""

from __future__ import annotations

from repro.config import PAGE_SIZE
from repro.os.page_alloc import PageAllocator
from repro.os.process import Process
from repro.proc.processor import SecureProcessor


class Enclave(Process):
    """An SGX enclave: cleansed accesses inside attacker-scheduled frames.

    Enclave code runs with ``cleanse=True`` — the privileged attacker can
    interrupt at will (SGX-Step) and cleanse caches across AEX events, so
    the victim's accesses of interest reach the memory controller, matching
    the Section III threat model.
    """

    def __init__(
        self,
        proc: SecureProcessor,
        allocator: PageAllocator,
        *,
        core: int = 0,
        name: str = "enclave",
    ) -> None:
        super().__init__(proc, allocator, core=core, cleanse=True, name=name)

    def load_page_at_frame(self, frame: int) -> int:
        """OS-controlled EADD: back the next enclave page with ``frame``.

        Returns the virtual address of the mapped page.
        """
        vpage = self.map_page(frame=frame)
        return vpage * PAGE_SIZE

    def frame_of_vaddr(self, vaddr: int) -> int:
        return self.address_space.frame_of(vaddr)
