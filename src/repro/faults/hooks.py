"""The observer protocol of the two layers where faults are injected.

The memory encryption engine and the memory controller each carry a
``fault_hook`` attribute (``None`` by default, so the hot paths pay one
attribute test); no other component has the slot.
``repro.core.attach(proc.mee, hook)`` wires a single hook object into
both at once.  The lower layers never import this module — any object
with these methods works — but :class:`FaultHook` is the canonical base
class: subclass it and override the events you care about.

Events
------

``on_write_drain(entries) -> entries``
    A memory-controller drain burst is about to service ``entries``
    (list of ``WriteQueueEntry``).  Return the (possibly reordered or
    shortened) list actually serviced — the drop/reorder fault surface.

``on_meta_fetch(kind, level, index)``
    The engine fetched metadata from memory and is about to verify it:
    ``kind`` is ``"node"`` (tree node ``level``/``index``) or
    ``"counter"`` (counter block ``index``).  Corrupting state here
    models a corrupted metadata-cache fill.

How often DRAM, the caches and the counter store are exercised is
already in the machine's counter registry (``dram.reads``/``writes``,
each cache's ``fills``, ``mee.writes_serviced``).
"""

from __future__ import annotations


class FaultHook:
    """No-op base observer; subclass and override selectively."""

    #: Component-graph slot this instrument occupies (``repro.core``).
    instrument_slot = "fault_hook"

    def on_write_drain(self, entries: list) -> list:
        """A drain burst is about to service ``entries``; return the list
        to actually service (same list for a no-op)."""
        return entries

    def on_meta_fetch(self, kind: str, level: int, index: int) -> None:
        """Fetched metadata is about to be verified."""
