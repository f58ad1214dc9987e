"""Tests for the OS model: page allocator and address spaces."""

import pytest

from repro.config import MIB, PAGE_SIZE, preset_config
from repro.os import AddressSpace, PageAllocator, Process
from repro.proc import SecureProcessor


class TestPageAllocator:
    def test_fresh_allocation_sequential(self):
        alloc = PageAllocator(100)
        assert alloc.alloc() == 0
        assert alloc.alloc() == 1

    def test_free_list_is_lifo_per_core(self):
        alloc = PageAllocator(100, cores=2)
        frames = alloc.alloc_many(3, core=0)
        for frame in frames:
            alloc.free(frame, core=0)
        assert alloc.alloc(core=0) == frames[-1]  # LIFO

    def test_cores_have_separate_lists(self):
        alloc = PageAllocator(100, cores=2)
        frame = alloc.alloc(core=0)
        alloc.free(frame, core=0)
        # Core 1 gets a fresh frame, not core 0's freed one.
        assert alloc.alloc(core=1) != frame

    def test_stage_for_next_alloc(self):
        """The paper's page-colocation primitive (Section VIII-A1)."""
        alloc = PageAllocator(100, cores=2)
        alloc.stage_for_next_alloc(42, core=1)
        assert alloc.alloc(core=1) == 42

    def test_alloc_specific(self):
        alloc = PageAllocator(100)
        assert alloc.alloc_specific(77) == 77
        with pytest.raises(ValueError):
            alloc.alloc_specific(77)

    def test_double_free_rejected(self):
        alloc = PageAllocator(100)
        frame = alloc.alloc()
        alloc.free(frame)
        with pytest.raises(ValueError):
            alloc.free(frame)

    def test_exhaustion(self):
        alloc = PageAllocator(2)
        alloc.alloc()
        alloc.alloc()
        with pytest.raises(MemoryError):
            alloc.alloc()

    def test_steals_from_other_core_when_exhausted(self):
        alloc = PageAllocator(2, cores=2)
        a = alloc.alloc(core=0)
        alloc.alloc(core=0)
        alloc.free(a, core=0)
        assert alloc.alloc(core=1) == a

    def test_bad_frame_rejected(self):
        alloc = PageAllocator(10)
        with pytest.raises(ValueError):
            alloc.free(10)
        with pytest.raises(ValueError):
            alloc.alloc_specific(-1)

    def test_is_allocated(self):
        alloc = PageAllocator(10)
        frame = alloc.alloc()
        assert alloc.is_allocated(frame)
        alloc.free(frame)
        assert not alloc.is_allocated(frame)

    def test_staged_frame_not_double_allocated(self):
        alloc = PageAllocator(100)
        frame = alloc.alloc()  # frame 0 allocated
        alloc.stage_for_next_alloc(frame, core=0)  # attacker re-stages it
        assert alloc.alloc(core=0) == frame
        # Fresh allocations skip the re-claimed frame.
        assert alloc.alloc(core=0) != frame


class TestAddressSpace:
    def make(self):
        return AddressSpace(PageAllocator(100), core=0)

    def test_translate_roundtrip(self):
        space = self.make()
        base = space.alloc(2)
        paddr = space.translate(base + 5)
        assert paddr % PAGE_SIZE == 5

    def test_consecutive_vpages(self):
        space = self.make()
        base = space.alloc(3)
        for i in range(3):
            space.translate(base + i * PAGE_SIZE)  # all mapped

    def test_unmapped_rejected(self):
        space = self.make()
        with pytest.raises(KeyError):
            space.translate(0xDEAD000)

    def test_pinned_frame(self):
        space = self.make()
        vpage = space.map_page(frame=33)
        assert space.frame_of(vpage * PAGE_SIZE) == 33

    def test_double_map_rejected(self):
        space = self.make()
        vpage = space.map_page()
        with pytest.raises(ValueError):
            space.map_page(vpage=vpage)


class TestProcess:
    def setup_method(self):
        self.proc = SecureProcessor(
            preset_config("sct", protected_size=64 * MIB)
        )
        self.alloc = PageAllocator(self.proc.layout.data_size // PAGE_SIZE)

    def test_read_write_through_va(self):
        process = Process(self.proc, self.alloc)
        base = process.alloc()
        process.write(base, b"hello")
        assert process.read(base).data[:5] == b"hello"

    def test_cleanse_reaches_memory_controller(self):
        process = Process(self.proc, self.alloc, cleanse=True)
        base = process.alloc()
        process.read(base)
        result = process.read(base)
        assert not result.path.is_cache_hit  # flushed between accesses

    def test_no_cleanse_caches(self):
        process = Process(self.proc, self.alloc, cleanse=False)
        base = process.alloc()
        process.read(base)
        assert process.read(base).path.is_cache_hit

    def test_processes_get_distinct_frames(self):
        p1 = Process(self.proc, self.alloc, name="a")
        p2 = Process(self.proc, self.alloc, name="b")
        assert p1.paddr(p1.alloc()) != p2.paddr(p2.alloc())
