"""The component graph: one uniform observation interface over the machine.

Every simulated component — the processor, the data-cache hierarchy and
its caches, the memory encryption engine, the memory controller, DRAM,
the crypto engine, the counter store and the integrity trees — derives
from :class:`Component`.  A component contributes three things:

* ``component_name`` — a short dotted label (``"mee"``, ``"cache.l1"``);
* ``children()`` — the components it owns, making the machine a graph
  rooted at :class:`~repro.proc.processor.SecureProcessor`;
* *instrument slots* — named attributes (``tracer``, ``fault_hook``,
  ``profiler``) that hold the currently attached instruments, ``None``
  when detached.  Every component has a ``tracer`` slot; only the layers
  that dispatch a fault event (the MEE and the memory controller) have
  ``fault_hook``, and only the processor has ``profiler``.

:func:`attach` walks the graph once and installs one instrument into the
matching slot of every component that declares it, so no layer
re-enumerates the proc→hierarchy→MEE→memctrl→DRAM→crypto→tree layering
to wire an instrument through.  Components created *after* an attach — per-domain integrity trees, most notably — inherit
their parent's current instruments through :func:`adopt`.

Two rules keep the hot paths honest:

* slot **assignment** happens only here (and in :mod:`repro.core.txn`);
  a CI guard rejects new manual ``.tracer = `` / ``.fault_hook = ``
  threading anywhere else, so the old pattern cannot creep back;
* slot **reads** stay where they always were: a detached component pays
  exactly one ``is None`` test per instrumented event, and nothing else.
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: Canonical instrument slots, in the order docs discuss them.
TRACER = "tracer"
FAULT_HOOK = "fault_hook"
PROFILER = "profiler"

KNOWN_SLOTS = (TRACER, FAULT_HOOK, PROFILER)


class Component:
    """Base class for nodes of the simulated machine's component graph.

    Subclasses call :meth:`init_component` from ``__init__`` (it creates
    every declared instrument slot as ``None``) and override
    :meth:`children` to enumerate owned components.  ``children()`` is
    read live on every walk, so structures that grow — the MEE's
    per-domain tree map — are picked up without re-registration.
    """

    #: Slots this component accepts; subclasses may extend (the
    #: processor adds ``profiler``, the MEE and the memory controller
    #: ``fault_hook``).
    instrument_slots: tuple[str, ...] = (TRACER,)

    component_name: str = "component"

    def init_component(self, name: str) -> None:
        """Name the component and create its instrument slots (detached)."""
        self.component_name = name
        for slot in self.instrument_slots:
            setattr(self, slot, None)

    def children(self) -> Iterable["Component"]:
        """Components owned by this one; leaves return nothing."""
        return ()


def walk(root: Component) -> Iterator[Component]:
    """Every component reachable from ``root``, each exactly once.

    Deduplication is by identity, so a component reachable through two
    owners (shared metadata cache, say) is still visited once.
    """
    seen: set[int] = set()
    stack: list[Component] = [root]
    while stack:
        component = stack.pop()
        if id(component) in seen:
            continue
        seen.add(id(component))
        yield component
        stack.extend(component.children())


def slot_of(instrument: object) -> str:
    """The slot an instrument declares via its ``instrument_slot`` attr."""
    slot = getattr(instrument, "instrument_slot", None)
    if slot is None:
        raise ValueError(
            "cannot infer the instrument slot: give the instrument class an "
            f"'instrument_slot' attribute (one of {KNOWN_SLOTS}) or pass "
            "slot= explicitly"
        )
    return slot


def attach(root: Component, instrument: object, *, slot: str | None = None) -> int:
    """Install ``instrument`` into its slot across the whole graph.

    Walks ``root`` and every reachable component, assigning the slot on
    each component that declares it; returns how many were reached.  The
    walk is idempotent — attaching the same instrument twice leaves the
    graph unchanged.  Passing ``instrument=None`` (with an explicit
    ``slot``) detaches everywhere, restoring the no-op fast path.
    """
    if slot is None:
        slot = slot_of(instrument)
    count = 0
    for component in walk(root):
        if slot in component.instrument_slots:
            setattr(component, slot, instrument)
            count += 1
    return count


def detach(root: Component, slot: str) -> int:
    """Clear one instrument slot across the whole graph."""
    return attach(root, None, slot=slot)


def adopt(parent: Component, child: Component) -> None:
    """A late-created ``child`` inherits ``parent``'s current instruments.

    Called at the point a component joins the graph after construction
    (e.g. the MEE building a new security domain's integrity tree), so
    instruments attached earlier keep observing the whole machine without
    per-call-site re-wiring.  The child's own subtree is walked too.
    """
    parent_slots = parent.instrument_slots
    for component in walk(child):
        for slot in component.instrument_slots:
            if slot in parent_slots:
                setattr(component, slot, getattr(parent, slot))
