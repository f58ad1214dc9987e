"""Physical page allocator with per-core LIFO free lists.

Linux's per-CPU page caches hand a freshly freed frame back to the next
allocation from the same core.  The paper's attacks exploit exactly this to
co-locate victim data with attacker-chosen frames: the attacker frees a
crafted frame on the victim's core immediately before the victim allocates
(Section VIII-A1).  :meth:`stage_for_next_alloc` models that primitive.
"""

from __future__ import annotations

from repro.config import PAGE_SIZE
from repro.proc.processor import SecureProcessor


class PageAllocator:
    """Tracks frames of a protected region; LIFO per-core free lists."""

    def __init__(self, total_pages: int, cores: int = 4) -> None:
        if total_pages <= 0 or cores <= 0:
            raise ValueError("total_pages and cores must be positive")
        self.total_pages = total_pages
        self.cores = cores
        self._free_lists: list[list[int]] = [[] for _ in range(cores)]
        self._allocated: set[int] = set()
        self._next_fresh = 0

    @classmethod
    def for_machine(cls, proc: SecureProcessor) -> PageAllocator:
        """An allocator over every protected data frame of ``proc``, with
        one free list per core."""
        return cls(proc.layout.data_size // PAGE_SIZE, cores=proc.config.cores)

    # ------------------------------------------------------------------

    def alloc(self, core: int = 0) -> int:
        """Allocate one frame for ``core`` (per-core LIFO, else fresh)."""
        free_list = self._free_lists[core]
        while free_list:
            frame = free_list.pop()
            if frame not in self._allocated:
                self._allocated.add(frame)
                return frame
        while self._next_fresh < self.total_pages:
            frame = self._next_fresh
            self._next_fresh += 1
            if frame not in self._allocated:
                self._allocated.add(frame)
                return frame
        # Fall back to stealing from any other core's free list.
        for other in range(self.cores):
            while self._free_lists[other]:
                frame = self._free_lists[other].pop()
                if frame not in self._allocated:
                    self._allocated.add(frame)
                    return frame
        raise MemoryError("out of physical pages")

    def alloc_many(self, count: int, core: int = 0) -> list[int]:
        return [self.alloc(core) for _ in range(count)]

    def alloc_specific(self, frame: int) -> int:
        """Claim one specific frame (privileged / OS-assisted placement).

        Under the SGX threat model the attacker controls the OS and can
        assign any EPC frame; under the unprivileged model the same effect
        is achieved through free-list massaging, which this shortcuts.
        """
        self._check_frame(frame)
        if frame in self._allocated:
            raise ValueError(f"frame {frame} already allocated")
        self._allocated.add(frame)
        return frame

    def free(self, frame: int, core: int = 0) -> None:
        """Return a frame to ``core``'s free list (LIFO head)."""
        self._check_frame(frame)
        if frame not in self._allocated:
            raise ValueError(f"frame {frame} is not allocated")
        self._allocated.discard(frame)
        self._free_lists[core].append(frame)

    def stage_for_next_alloc(self, frame: int, core: int) -> None:
        """Attacker primitive: make ``frame`` the next frame ``core`` gets.

        Models freeing a crafted page on the victim's core right before the
        victim allocates (the per-core free-list attack of [58], [90]).
        """
        self._check_frame(frame)
        if frame in self._allocated:
            self._allocated.discard(frame)
        elif frame in self._free_lists[core]:
            self._free_lists[core].remove(frame)
        self._free_lists[core].append(frame)

    # ------------------------------------------------------------------

    def is_allocated(self, frame: int) -> bool:
        return frame in self._allocated

    def _check_frame(self, frame: int) -> None:
        if not 0 <= frame < self.total_pages:
            raise ValueError(
                f"frame {frame} out of range (0..{self.total_pages - 1})"
            )
