"""The structured metadata event bus (``repro.trace``).

A :class:`Tracer` is a bounded ring buffer of event records.
Components hold a ``tracer`` attribute that is ``None`` by default — the
zero-overhead-when-off contract is a single ``is not None`` test on every
instrumented path — and :meth:`SecureProcessor.attach
<repro.proc.processor.SecureProcessor.attach>` threads one tracer
through every layer (caches, memory controller, DRAM, encryption engine,
integrity trees, crypto engine).

Events carry the fields the MetaLeak analyses care about: simulation
cycle, issuing core (when known), emitting component, event kind, block
address, cache set and tree level.  ``value`` is a kind-specific scalar
(latency in cycles, walk depth, burst size).

The ring holds each event as an exact ``tuple`` in :class:`TraceEvent`
field order.  A traced run emits hundreds of events per access batch,
and the garbage collector can drop exact tuples of scalars: the
interpreter reuses them through its tuple free list, so a reused one
does not count toward the gen-0 threshold, and a collection untracks
them.  An instance of a tuple subclass gets neither: each new one counts
toward the threshold and stays tracked.  :meth:`Tracer.events` and
:meth:`Tracer.raw_events` build the named :class:`TraceEvent` view on
read-out; :meth:`Tracer.streams` hands the records themselves, split per
(component, kind), to the leakage detector.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from collections import defaultdict, deque
from functools import partial
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple


class TraceEvent(NamedTuple):
    """One structured metadata event."""

    cycle: int
    component: str
    kind: str
    core: int = -1
    addr: int | None = None
    set_index: int | None = None
    level: int | None = None
    value: float | None = None

    def to_dict(self) -> dict[str, object]:
        return self._asdict()

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "TraceEvent":
        """Inverse of :meth:`to_dict`; absent optional fields default.

        Raises ``ValueError`` naming any missing required field.
        """
        missing = [key for key in _REQUIRED_FIELDS if key not in payload]
        if missing:
            raise ValueError(f"event lacks required field(s) {missing}")
        return cls(**{key: payload[key] for key in cls._fields if key in payload})


_REQUIRED_FIELDS = tuple(
    key for key in TraceEvent._fields if key not in TraceEvent._field_defaults
)

#: A ring record: the fields of a :class:`TraceEvent`, in order, in an
#: exact tuple.
TraceRecord = tuple

# ``tuple.__new__`` builds the named view of a record without the
# Python-level ``__new__`` the NamedTuple generates.
_named = partial(tuple.__new__, TraceEvent)
_by_cycle = itemgetter(0)
_kind_key = itemgetter(1, 2)


class Tracer:
    """Ring-buffered event sink shared by every instrumented component.

    The buffer holds the most recent ``capacity`` events as
    :data:`TraceRecord` tuples; older events are dropped oldest-first.
    ``emitted`` counts every event offered since construction or the
    last :meth:`clear`, and :attr:`dropped` is how many of them the ring
    no longer holds: ``emitted - len(self)``.
    """

    #: Component-graph slot this instrument occupies (``repro.core``).
    instrument_slot = "tracer"

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.capacity = capacity
        # A full bounded deque drops its oldest event on append, in C.
        self._buffer: deque[TraceRecord] = deque(maxlen=capacity)
        self.emitted = 0
        self._clock: Callable[[], int] | None = None

    @property
    def dropped(self) -> int:
        """Events emitted but since pushed out of the ring."""
        return self.emitted - len(self._buffer)

    # -- wiring ------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Install the cycle source used when ``emit`` gets no cycle.

        ``SecureProcessor.attach`` binds a weak proxy of the machine's
        clock, so the tracer does not keep its machine alive.  Once that
        machine is gone, an ``emit`` without a cycle raises
        ``ReferenceError``; buffered events stay readable.
        """
        self._clock = clock

    # -- emission ----------------------------------------------------------

    def emit(
        self,
        component: str,
        kind: str,
        *,
        cycle: int | None = None,
        core: int = -1,
        addr: int | None = None,
        set_index: int | None = None,
        level: int | None = None,
        value: float | None = None,
    ) -> None:
        """Record one event (components call this behind a ``None`` guard)."""
        if cycle is None:
            cycle = self._clock() if self._clock is not None else 0
        self.emitted += 1
        self._buffer.append(
            (cycle, component, kind, core, addr, set_index, level, value)
        )

    # -- inspection --------------------------------------------------------

    def events(self) -> list[TraceEvent]:
        """Buffered events in nondecreasing cycle order.

        Emission order and cycle order can disagree locally — posted-write
        drains run "into the future" while the issuing core's clock stays
        put — so the buffer is stably sorted by cycle on the way out.
        """
        return list(map(_named, sorted(self._buffer, key=_by_cycle)))

    def raw_events(self) -> list[TraceEvent]:
        """Buffered events in emission order (for drop-order tests)."""
        return list(map(_named, self._buffer))

    def streams(self) -> dict[tuple[str, str], list[TraceRecord]]:
        """Buffered records split per (component, kind), each in cycle order.

        Grouped in emission order, then each stream stably sorted by
        cycle: stream for stream, this is the per-kind split of
        :meth:`events`, without building a :class:`TraceEvent`.
        """
        grouped: defaultdict[tuple[str, str], list[TraceRecord]] = (
            defaultdict(list)
        )
        for record in self._buffer:
            # record[1], record[2] are (component, kind).
            grouped[record[1], record[2]].append(record)
        for stream in grouped.values():
            stream.sort(key=_by_cycle)
        return dict(grouped)

    def counts(self) -> dict[tuple[str, str], int]:
        """Buffered event tally keyed by (component, kind)."""
        return dict(_TallyCounter(map(_kind_key, self._buffer)))

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def clear(self) -> None:
        """Drop all buffered events and reset the tallies."""
        self._buffer.clear()
        self.emitted = 0
