"""Tests for DRAM timing, the memory controller, and address helpers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DramConfig, MemCtrlConfig
from repro.mem.block import bank_of, block_address, block_index, page_index
from repro.mem.dram import DramModel
from repro.mem.memctrl import MemoryController


class TestBlockHelpers:
    def test_block_decomposition(self):
        assert block_address(0x1234) == 0x1200
        assert block_index(0x1234) == 0x48

    def test_page_decomposition(self):
        assert page_index(0x12345) == 0x12

    @given(st.integers(min_value=0, max_value=2**40))
    def test_block_roundtrip(self, addr):
        assert block_address(addr) <= addr < block_address(addr) + 64
        assert block_address(addr) == block_index(addr) * 64

    def test_bank_range(self):
        for addr in range(0, 1 << 16, 64):
            assert 0 <= bank_of(addr, 16) < 16

    def test_consecutive_blocks_stripe_banks(self):
        banks = {bank_of(i * 64, 16) for i in range(16)}
        assert len(banks) == 16

    def test_page_aligned_structures_do_not_alias(self):
        # Regions at different page-aligned bases should not all map to the
        # same bank (the XOR fold must break simple modulo aliasing).
        banks = {bank_of(base << 20, 16) for base in range(1, 64)}
        assert len(banks) > 4


def dram_latency(dram, addr, now):
    """One read's whole latency: the bank wait plus the service."""
    return sum(dram.access_parts(addr, now))


class TestDram:
    def test_row_hit_faster_than_miss(self):
        dram = DramModel(DramConfig())
        first = dram_latency(dram, 0x0, 0)
        # Same bank (block 0 and block 16 both fold to bank 0), same row.
        assert dram.bank_of(0x0) == dram.bank_of(0x400)
        second = dram_latency(dram, 0x400, first)
        assert second < first  # row now open

    def test_row_conflict_reopens(self):
        config = DramConfig()
        dram = DramModel(config)
        dram.access_parts(0x0, 0)
        far = config.row_size * config.banks  # same bank, different row
        latency = dram_latency(dram, far, 1000)
        assert latency == config.row_miss_latency + config.bus_latency

    def test_busy_bank_delays_access(self):
        dram = DramModel(DramConfig())
        dram.occupy_bank(0x1000, 0, 5000)
        latency = dram_latency(dram, 0x1000, 100)
        assert latency > 4000

    def test_occupy_all_blocks_every_bank(self):
        config = DramConfig(banks=4)
        dram = DramModel(config)
        dram.occupy_all(0, 9999)
        for block in range(4):
            assert dram_latency(dram, block * 64, 0) > 9000

    def test_idle_bank_not_delayed(self):
        dram = DramModel(DramConfig())
        dram.occupy_bank(0x0, 0, 5000)
        other = next(
            a for a in range(64, 1 << 16, 64) if dram.bank_of(a) != dram.bank_of(0)
        )
        assert dram_latency(dram, other, 0) < 1000

    def test_stats(self):
        dram = DramModel(DramConfig())
        dram.access_parts(0, 0)
        dram.access_parts(64, 0, is_write=True)
        assert dram.counters.get("reads") == 1
        assert dram.counters.get("writes") == 1


class _RecordingSink:
    def __init__(self) -> None:
        self.serviced: list[int] = []

    def service(self, addr: int, now: int) -> int:
        self.serviced.append(addr)
        return 7


class TestMemoryController:
    def make(self, **kwargs):
        return MemoryController(MemCtrlConfig(**kwargs), DramConfig())

    def test_read_latency_positive(self):
        mc = self.make()
        assert mc.read_block(0x1000, 0) > 0
        assert mc.counters.get("reads_serviced") == 1

    def test_write_is_posted(self):
        mc = self.make()
        latency = mc.enqueue_write(0x1000, 0)
        assert latency < 10
        assert mc.pending_writes() == 1
        assert mc.counters.get("writes_serviced") == 0

    def test_write_merging(self):
        mc = self.make()
        mc.enqueue_write(0x1000, 0)
        mc.enqueue_write(0x1000, 10)
        assert mc.pending_writes() == 1
        assert mc.counters.get("writes_merged") == 1

    def test_no_merge_mode_forces_drain(self):
        mc = self.make(write_merge=False)
        mc.enqueue_write(0x1000, 0)
        mc.enqueue_write(0x1000, 10)
        assert mc.counters.get("writes_serviced") == 1

    def test_read_forwarding_from_write_queue(self):
        mc = self.make()
        mc.enqueue_write(0x1000, 0)
        latency = mc.read_block(0x1000, 10)
        assert latency < 30  # forwarded, no DRAM access
        assert mc.counters.get("reads_serviced") == 0

    def test_drain_services_all(self):
        mc = self.make()
        for i in range(10):
            mc.enqueue_write(i * 64, 0)
        end = mc.drain(100)
        assert mc.pending_writes() == 0
        assert mc.counters.get("writes_serviced") == 10
        assert end > 100

    def test_drain_empty_is_noop(self):
        mc = self.make()
        assert mc.drain(100) == 100
        assert mc.counters.get("drains") == 0

    def test_watermark_triggers_drain(self):
        mc = self.make(write_queue_entries=8, drain_watermark=0.5)
        for i in range(6):
            mc.enqueue_write(i * 64, 0)
        assert mc.counters.get("drains") >= 1

    def test_write_sink_invoked_per_serviced_write(self):
        mc = self.make()
        sink = _RecordingSink()
        mc.set_write_sink(sink.service)
        mc.enqueue_write(0x40, 0)
        mc.enqueue_write(0x80, 0)
        mc.drain(0)
        assert sink.serviced == [0x40, 0x80]

    def test_write_sink_is_held_weakly(self):
        """The sink's owner (the engine) owns the controller, so the
        controller must not keep it alive; once the owner is gone a drain
        services writes with no security work."""
        mc = self.make()
        sink = _RecordingSink()
        serviced = sink.serviced
        mc.set_write_sink(sink.service)
        mc.enqueue_write(0x40, 0)
        del sink
        mc.drain(0)
        assert mc.counters.get("writes_serviced") == 1
        assert serviced == []

    def test_drain_occupies_banks(self):
        mc = self.make()
        for i in range(16):
            mc.enqueue_write(i * 64, 0)
        mc.drain(0)
        # A read right after the drain burst starts must wait.
        assert mc.read_block(0x0, 1) > 100

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_queue_never_exceeds_capacity(self, blocks):
        mc = self.make(write_queue_entries=16, drain_watermark=0.75)
        for block in blocks:
            mc.enqueue_write(block * 64, 0)
            assert mc.pending_writes() <= 16

    def test_write_pending_for(self):
        mc = self.make()
        mc.enqueue_write(0x1000, 0)
        assert mc.write_pending_for(0x1020)
        assert not mc.write_pending_for(0x2000)
