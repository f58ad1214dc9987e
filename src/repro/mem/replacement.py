"""Way-indexed replacement policies for the set-associative caches.

LRU is the default everywhere (and what the paper's mEvict analysis
assumes), but it needs no policy object: an LRU set in
``repro.mem.cache`` is a dict kept in recency order.  The policies here
pick victims by way index: tree-PLRU approximates real L2/LLC hardware;
RANDOM is the classic obfuscation knob.  The metadata-cache sweep in
``repro.analysis.sweeps`` uses these to show that MetaLeak-T survives
replacement-policy changes — eviction sets just need a few more entries.
"""

from __future__ import annotations

import abc

from repro.utils.rng import DeterministicRng, derive_rng


class ReplacementPolicy(abc.ABC):
    """Per-set victim selection over a fixed number of ways."""

    def __init__(self, ways: int) -> None:
        self.ways = ways

    @abc.abstractmethod
    def on_access(self, way: int) -> None:
        """A resident way was touched."""

    @abc.abstractmethod
    def on_fill(self, way: int) -> None:
        """A way was (re)filled."""

    @abc.abstractmethod
    def victim(self) -> int:
        """Choose the way to evict (all ways occupied)."""


class TreePlruPolicy(ReplacementPolicy):
    """Binary-tree pseudo-LRU (the common hardware approximation)."""

    def __init__(self, ways: int) -> None:
        super().__init__(ways)
        if ways & (ways - 1):
            raise ValueError("tree-PLRU needs a power-of-two way count")
        self._bits = [0] * max(1, ways - 1)

    def _walk_update(self, way: int) -> None:
        node = 0
        span = self.ways
        while span > 1:
            half = span // 2
            go_right = way % span >= half
            # Point away from the touched half.
            self._bits[node] = 0 if go_right else 1
            node = 2 * node + (2 if go_right else 1)
            way %= span
            if go_right:
                way -= half
            span = half

    def on_access(self, way: int) -> None:
        self._walk_update(way)

    def on_fill(self, way: int) -> None:
        self._walk_update(way)

    def victim(self) -> int:
        node = 0
        base = 0
        span = self.ways
        while span > 1:
            half = span // 2
            go_right = self._bits[node] == 1
            node = 2 * node + (2 if go_right else 1)
            if go_right:
                base += half
            span = half
        return base


class RandomPolicy(ReplacementPolicy):
    """Uniform random victim (deterministic under the experiment seed)."""

    def __init__(self, ways: int, rng: DeterministicRng | None = None) -> None:
        super().__init__(ways)
        self._rng = rng or derive_rng(0, "random-repl")

    def on_access(self, way: int) -> None:  # pragma: no cover - trivial
        pass

    def on_fill(self, way: int) -> None:  # pragma: no cover - trivial
        pass

    def victim(self) -> int:
        return self._rng.randrange(self.ways)


def make_policy(name: str, ways: int, seed: int = 0) -> ReplacementPolicy:
    """Instantiate a way-indexed policy by config name."""
    if name == "plru":
        return TreePlruPolicy(ways)
    if name == "random":
        return RandomPolicy(ways, derive_rng(seed, "random-repl"))
    raise ValueError(f"unknown replacement policy {name!r}")
