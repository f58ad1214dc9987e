"""SGX machine model: enclaves and SGX-Step style execution control.

Models the commercially-relevant configuration of Section VIII-B: the MEE
maintains an 8-ary 4-level counter tree (SIT) with 56-bit monolithic
counters over the Enclave Page Cache, the OS is attacker-controlled (frame
placement, interrupt-driven single stepping), and the latency profile is
the slower one of Figure 7.  The machine is the ``sgx`` preset
(``preset_config("sgx")``, whose ``protected_size`` is the EPC); an
:class:`Enclave` runs on it over a page allocator of its frames::

    proc = SecureProcessor(preset_config("sgx"))
    allocator = PageAllocator.for_machine(proc)
    enclave = Enclave(proc, allocator, name="victim")
"""

from repro.sgx.enclave import Enclave
from repro.sgx.sgx_step import SgxStep

__all__ = ["Enclave", "SgxStep"]
