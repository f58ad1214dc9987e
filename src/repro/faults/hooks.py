"""The observer protocol threaded through the memory and security layers.

``repro.mem`` and ``repro.secmem`` components each carry a ``fault_hook``
attribute (``None`` by default, so the hot paths pay one attribute test).
``repro.core.attach(proc.mee, hook)`` wires a single hook object into
every memory-side layer at once.  The lower layers never import this
module — any object with these methods works — but :class:`FaultHook` is
the canonical base class: subclass it and override the events you care
about.

Events
------

``on_dram_access(addr, now, is_write)``
    Every DRAM block access (data, counters, MACs, tree nodes).

``on_write_drain(entries) -> entries``
    A memory-controller drain burst is about to service ``entries``
    (list of ``WriteQueueEntry``).  Return the (possibly reordered or
    shortened) list actually serviced — the drop/reorder fault surface.

``on_cache_fill(cache_name, block_addr)``
    A set-associative cache filled a block on a miss.

``on_counter_increment(block)``
    An encryption counter is about to be bumped for a serviced write.

``on_meta_fetch(kind, level, index)``
    The engine fetched metadata from memory and is about to verify it:
    ``kind`` is ``"node"`` (tree node ``level``/``index``) or
    ``"counter"`` (counter block ``index``).  Corrupting state here
    models a corrupted metadata-cache fill.
"""

from __future__ import annotations


class FaultHook:
    """No-op base observer; subclass and override selectively."""

    #: Component-graph slot this instrument occupies (``repro.core``).
    instrument_slot = "fault_hook"

    def on_dram_access(self, addr: int, now: int, *, is_write: bool) -> None:
        """One DRAM access is being performed."""

    def on_write_drain(self, entries: list) -> list:
        """A drain burst is about to service ``entries``; return the list
        to actually service (same list for a no-op)."""
        return entries

    def on_cache_fill(self, cache_name: str, block_addr: int) -> None:
        """A cache filled ``block_addr`` on a miss."""

    def on_counter_increment(self, block: int) -> None:
        """The encryption counter of data block ``block`` is being bumped."""

    def on_meta_fetch(self, kind: str, level: int, index: int) -> None:
        """Fetched metadata is about to be verified."""
