"""Figure-18 study: MetaLeak-style eviction vs a MIRAGE randomized cache.

MIRAGE defeats eviction-*set* construction (Prime+Probe), but MetaLeak-T
only needs the target metadata block gone from the cache.  With global
random eviction, every fill evicts a uniformly random resident block, so
``P(target evicted after N fills) = 1 - (1 - 1/capacity)^N`` — thousands of
arbitrary accesses suffice, no eviction set required.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mem.mirage import MirageCache
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class EvictionPoint:
    accesses: int
    accuracy: float


def mirage_eviction_curve(
    access_counts: tuple[int, ...] = (1000, 3000, 5000, 7000, 9000, 12000),
    *,
    trials: int = 40,
    cache_size: int = 256 * 1024,
) -> list[EvictionPoint]:
    """Probability the target block is evicted after N random accesses.

    Mirrors the paper's experiment against the MIRAGE open-source model:
    default secure configuration, two skews, 8+6 ways per skew, 256 KiB.
    """
    rng = derive_rng(3, "mirage-study")
    points = []
    for accesses in access_counts:
        evicted = 0
        for trial in range(trials):
            cache = MirageCache(cache_size, seed=3000 + trial)
            # Warm the data store to capacity (a cold cache absorbs fills
            # without evicting anything).
            for _ in range(cache.data_capacity + 64):
                cache.access(rng.randrange(1, 1 << 34) * 64)
            target = 0x123400
            cache.access(target)
            for _ in range(accesses):
                cache.access(rng.randrange(1, 1 << 34) * 64)
            if not cache.contains(target):
                evicted += 1
        points.append(EvictionPoint(accesses=accesses, accuracy=evicted / trials))
    return points
