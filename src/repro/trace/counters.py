"""Hierarchical counter/gauge registry for simulator observability.

Every component owns a small :class:`CounterRegistry` holding its counters
(monotonic tallies: hits, misses, drains, ...) and gauges (sampled values:
occupancy, queue depth).  The processor mounts the component registries
under dotted prefixes (``proc``, ``mee``, ``core0.l1``, ``memctrl``, ...)
so one :meth:`CounterRegistry.snapshot` call yields the whole machine's
state as a flat ``{"memctrl.drains": 3, ...}`` mapping.

Counters are plain attribute-bearing objects: hot paths bump
``counter.value += 1`` directly, one attribute store per tally.
"""

from __future__ import annotations

from typing import Callable


class Counter:
    """A monotonic (but resettable) integer tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def incr(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A sampled value, read through a callback when snapshotted."""

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[], float]) -> None:
        self.name = name
        self.fn = fn

    def read(self) -> float:
        return self.fn()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.read()})"


class CounterRegistry:
    """A tree of counters/gauges; children mount under dotted prefixes."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._children: dict[str, CounterRegistry] = {}
        # Intermediate registries this registry created itself while
        # resolving dotted mount prefixes.  Only these may be recursed into
        # by later mounts; grafting into an externally mounted child would
        # silently rewire someone else's registry.
        self._owned_mounts: set[str] = set()

    # -- registration ------------------------------------------------------

    def _check_name(self, name: str) -> None:
        if not name or "." in name:
            raise ValueError(f"registry names are non-empty and dot-free: {name!r}")
        taken = (
            name in self._counters or name in self._gauges or name in self._children
        )
        if taken:
            raise ValueError(f"registry name already in use: {name!r}")

    def counter(self, name: str) -> Counter:
        """Return the counter called ``name``, creating it on first use."""
        existing = self._counters.get(name)
        if existing is not None:
            return existing
        self._check_name(name)
        created = Counter(name)
        self._counters[name] = created
        return created

    def gauge(self, name: str, fn: Callable[[], float]) -> Gauge:
        """Return the gauge called ``name``, creating it on first use.

        ``fn`` is called on every read; bind it to the state it reports,
        not to its owner, so the machine graph stays acyclic.
        """
        existing = self._gauges.get(name)
        if existing is not None:
            return existing
        self._check_name(name)
        created = Gauge(name, fn)
        self._gauges[name] = created
        return created

    def mount(self, prefix: str, child: "CounterRegistry") -> None:
        """Expose ``child``'s counters under ``prefix.*`` in snapshots.

        A dotted prefix (``core0.l1``) creates intermediate registries as
        needed, so callers can mount leaf components at any depth.

        Every collision raises :class:`ValueError`: a prefix segment that is
        already a counter or gauge name, a remount over an existing child,
        and a dotted mount that would recurse into a child mounted
        externally (grafting into a component's own registry).
        """
        if child is self:
            raise ValueError("cannot mount a registry under itself")
        head, _, rest = prefix.partition(".")
        if rest:
            node = self._children.get(head)
            if node is None:
                self._check_name(head)
                node = CounterRegistry()
                self._children[head] = node
                self._owned_mounts.add(head)
            elif head not in self._owned_mounts:
                raise ValueError(
                    f"cannot mount under {prefix!r}: {head!r} is an "
                    "externally mounted registry, not a mount-created "
                    "intermediate"
                )
            node.mount(rest, child)
            return
        self._check_name(prefix)
        self._children[prefix] = child

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Flatten the whole registry tree into dotted-path -> value."""
        flat: dict[str, float] = {}
        for name, counter in self._counters.items():
            flat[name] = counter.value
        for name, gauge in self._gauges.items():
            flat[name] = gauge.read()
        for prefix, child in self._children.items():
            for path, value in child.snapshot().items():
                flat[f"{prefix}.{path}"] = value
        return flat

    def items(self):
        """Yield ``(dotted-path, kind, value)``; kind is "counter"/"gauge".

        Like :meth:`snapshot` but typed, so exporters that must distinguish
        monotonic tallies from sampled values (e.g. the Prometheus text
        format's ``# TYPE`` lines) do not have to guess from the name.
        """
        for name, counter in self._counters.items():
            yield name, "counter", counter.value
        for name, gauge in self._gauges.items():
            yield name, "gauge", gauge.read()
        for prefix, child in self._children.items():
            for path, kind, value in child.items():
                yield f"{prefix}.{path}", kind, value

    def get(self, path: str) -> float:
        """Resolve one dotted path (``memctrl.drains``) to its value."""
        head, _, rest = path.partition(".")
        if rest:
            child = self._children.get(head)
            if child is None:
                raise KeyError(f"no registry mounted at {head!r}")
            return child.get(rest)
        if head in self._counters:
            return self._counters[head].value
        if head in self._gauges:
            return self._gauges[head].read()
        raise KeyError(f"no counter or gauge named {head!r}")

    def __contains__(self, path: str) -> bool:
        try:
            self.get(path)
        except KeyError:
            return False
        return True
