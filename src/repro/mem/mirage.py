"""MIRAGE-style randomized cache (Saileshwar & Qureshi, USENIX Sec'21).

Used for the Figure-18 defense study: MIRAGE gives a fully-associative-
equivalent cache via (i) a tag store split into two skews with extra
invalid tags and keyed randomized set indexing, and (ii) a decoupled data
store with *global random eviction*.  Conflict-based eviction-set attacks
(Prime+Probe) are defeated, but — as the paper argues — an attacker that
only needs the *target* block evicted can still do so with enough random
accesses, since global random eviction touches every resident block with
equal probability.
"""

from __future__ import annotations

import hashlib

from repro.config import BLOCK_SIZE
from repro.utils.bitops import log2_exact
from repro.utils.rng import derive_rng

#: MIRAGE's default secure configuration: two skews of 8 base ways plus
#: 6 extra (invalid-tag) ways each.
SKEWS = 2
BASE_WAYS = 8
EXTRA_WAYS = 6

_BLOCK_SHIFT = log2_exact(BLOCK_SIZE)


class MirageCache:
    """Two-skew randomized tag store over a globally-evicted data store."""

    def __init__(self, size_bytes: int = 256 * 1024, *, seed: int = 1) -> None:
        self.data_capacity = size_bytes // BLOCK_SIZE
        self.ways_per_skew = BASE_WAYS + EXTRA_WAYS
        # Tag capacity per skew equals data capacity (so the provisioned
        # extra ways show up as extra sets' worth of invalid tags).
        sets_total = self.data_capacity // BASE_WAYS
        self.sets_per_skew = max(1, sets_total // SKEWS)
        self._skew_keys = [
            derive_rng(seed, f"skew-{i}").getrandbits(64) for i in range(SKEWS)
        ]
        self._rng = derive_rng(seed, "gle")
        # skew -> set -> {addr}
        self._tags: list[list[set[int]]] = [
            [set() for _ in range(self.sets_per_skew)] for _ in range(SKEWS)
        ]
        self._resident: set[int] = set()
        # Parallel list + index map for O(1) uniform random eviction.
        self._resident_list: list[int] = []
        self._resident_index: dict[int, int] = {}
        self._location: dict[int, tuple[int, int]] = {}
        self.hits = 0
        self.misses = 0
        self.set_assoc_evictions = 0
        self.global_evictions = 0

    # ------------------------------------------------------------------

    def _block(self, addr: int) -> int:
        return addr >> _BLOCK_SHIFT

    def _set_index(self, skew: int, block: int) -> int:
        digest = hashlib.blake2b(
            block.to_bytes(8, "little"),
            digest_size=8,
            key=self._skew_keys[skew].to_bytes(8, "little"),
        ).digest()
        return int.from_bytes(digest, "little") % self.sets_per_skew

    # ------------------------------------------------------------------

    def contains(self, addr: int) -> bool:
        return self._block(addr) in self._resident

    def access(self, addr: int) -> bool:
        """Access a block; install on miss. Returns True on hit."""
        block = self._block(addr)
        if block in self._resident:
            self.hits += 1
            return True
        self.misses += 1
        self._install(block)
        return False

    def _install(self, block: int) -> None:
        # Data store full? Global random eviction first.
        if len(self._resident) >= self.data_capacity:
            victim = self._resident_list[
                self._rng.randrange(len(self._resident_list))
            ]
            self._remove(victim)
            self.global_evictions += 1
        # Power-of-two-choices skew selection: prefer the emptier set.
        candidates = [
            (skew, self._set_index(skew, block)) for skew in range(SKEWS)
        ]
        loads = [len(self._tags[skew][s]) for skew, s in candidates]
        best = min(range(SKEWS), key=lambda i: loads[i])
        skew, set_index = candidates[best]
        tag_set = self._tags[skew][set_index]
        if len(tag_set) >= self.ways_per_skew:
            # Set-associative eviction — MIRAGE engineers this to be
            # astronomically rare; we count it to prove the model behaves.
            victim = self._rng.choice(tuple(tag_set))
            self._remove(victim)
            self.set_assoc_evictions += 1
        tag_set.add(block)
        self._resident.add(block)
        self._resident_index[block] = len(self._resident_list)
        self._resident_list.append(block)
        self._location[block] = (skew, set_index)

    def _remove(self, block: int) -> None:
        skew, set_index = self._location.pop(block)
        self._tags[skew][set_index].discard(block)
        self._resident.discard(block)
        # Swap-pop from the eviction list.
        index = self._resident_index.pop(block)
        last = self._resident_list.pop()
        if last != block:
            self._resident_list[index] = last
            self._resident_index[last] = index

    def occupancy(self) -> int:
        return len(self._resident)
