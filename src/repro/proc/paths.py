"""The data access paths of Figure 5."""

from __future__ import annotations

import enum


class AccessPath(enum.Enum):
    """Where a read was satisfied, and how much metadata work it took.

    The first three are Path-1 of the paper (on-chip cache hit, no security
    machinery involved); the final three are Paths 2-4, distinguished by
    how far into the metadata hierarchy the MEE had to reach.
    """

    L1_HIT = "L1 hit"
    L2_HIT = "L2 hit"
    L3_HIT = "L3 hit"
    MEM_COUNTER_HIT = "Path-2: memory, counter cached"
    MEM_TREE_HIT = "Path-3: memory, counter miss, tree leaf cached"
    MEM_TREE_MISS = "Path-4: memory, tree node miss(es)"

    # Members are singletons (pickle, deepcopy and payload decoding all
    # return the same one), so identity is equality and the identity
    # hash serves the per-path tallies' dict in C, where
    # ``Enum.__hash__`` is a Python call per lookup.
    __hash__ = object.__hash__

    @property
    def is_cache_hit(self) -> bool:
        return self in (AccessPath.L1_HIT, AccessPath.L2_HIT, AccessPath.L3_HIT)

    @property
    def paper_name(self) -> str:
        if self.is_cache_hit:
            return "Path-1"
        return self.value.split(":")[0]
