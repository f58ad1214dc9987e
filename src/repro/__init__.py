"""MetaLeak reproduction: metadata side channels in secure processors.

A from-scratch implementation of the system evaluated in *MetaLeak:
Uncovering Side Channels in Secure Processor Architectures Exploiting
Metadata* (ISCA 2024): a cycle-accounting secure-processor simulator
(counter-mode encryption, MACs, HT/SCT/SIT integrity trees, metadata
cache), the MetaLeak-T / MetaLeak-C attack framework, victim
applications, defenses, and a harness regenerating every paper figure.

Quick start::

    from repro import MetaLeakT, PageAllocator, SecureProcessor
    from repro.config import MIB, SecureProcessorConfig

    proc = SecureProcessor(SecureProcessorConfig.sct_default(protected_size=256 * MIB))
    alloc = PageAllocator.for_machine(proc)
    monitor = MetaLeakT(proc, alloc, core=1).monitor_for_page(alloc.alloc_specific(100))
    monitor.m_evict()
    # ... victim runs ...
    latency, victim_accessed = monitor.m_reload()

See DESIGN.md for the system inventory, EXPERIMENTS.md for paper-vs-
measured results, and ``python -m repro list`` for the figure harness.
"""

from repro.config import SecureProcessorConfig
from repro.os.page_alloc import PageAllocator
from repro.proc.processor import SecureProcessor

__version__ = "1.0.0"

__all__ = ["PageAllocator", "SecureProcessor", "SecureProcessorConfig", "__version__"]


def __getattr__(name):
    """Lazy access to the attack framework (avoids import cycles/cost)."""
    if name in ("MetaLeakT", "MetaLeakC", "CovertChannelT", "CovertChannelC"):
        import repro.attacks as attacks

        return getattr(attacks, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
