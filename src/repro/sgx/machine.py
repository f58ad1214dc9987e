"""Convenience wrapper assembling the full SGX attack environment."""

from __future__ import annotations

from repro.config import SecureProcessorConfig
from repro.os.page_alloc import PageAllocator
from repro.proc.processor import SecureProcessor
from repro.sgx.enclave import Enclave


class SgxMachine:
    """An SGX system: one processor, an EPC allocator, enclaves on demand.

    The allocator hands out EPC frames; because the OS is attacker-
    controlled, callers may pin any enclave page to any free frame via
    :meth:`Enclave.load_page_at_frame` to achieve SIT-node co-location.
    """

    def __init__(self, config: SecureProcessorConfig | None = None) -> None:
        self.config = config or SecureProcessorConfig.sgx_default()
        self.proc = SecureProcessor(self.config)
        self.allocator = PageAllocator.for_machine(self.proc)
        self.enclaves: list[Enclave] = []

    def create_enclave(self, *, core: int = 0, name: str | None = None) -> Enclave:
        enclave = Enclave(
            self.proc,
            self.allocator,
            core=core,
            name=name or f"enclave{len(self.enclaves)}",
        )
        self.enclaves.append(enclave)
        return enclave
