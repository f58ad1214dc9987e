"""``repro.core`` — the component graph and per-access transactions.

The two structural primitives the whole memory path is built on:

* :class:`Component` / :func:`attach` / :func:`adopt` — every simulated
  component is a node in one graph rooted at the processor; one generic
  walk installs (or removes) an instrument everywhere, and late-created
  components inherit instruments from their parent.  There are three
  instrument slots (:data:`KNOWN_SLOTS`): ``tracer`` on every component,
  ``fault_hook`` on the MEE and the memory controller, and ``profiler``
  on the processor;
* :class:`Txn` — the per-access latency attribution (per-component
  cycles and the critical/shadowed overlap split) charged down the
  proc→MEE→memctrl→DRAM path.  A ``Txn`` exists only while a profiler
  is attached; otherwise every layer is handed ``None`` and makes no
  attribution call.  Trace events and fault hooks go through each
  component's own instrument slots.

See ``docs/architecture.md`` for the graph shape, the ``Txn`` lifecycle
and how to add a new instrument or component.
"""

from repro.core.component import (
    FAULT_HOOK,
    KNOWN_SLOTS,
    PROFILER,
    TRACER,
    Component,
    adopt,
    attach,
    detach,
    slot_of,
    walk,
)
from repro.core.txn import Txn

__all__ = [
    "Component",
    "FAULT_HOOK",
    "KNOWN_SLOTS",
    "PROFILER",
    "TRACER",
    "Txn",
    "adopt",
    "attach",
    "detach",
    "slot_of",
    "walk",
]
