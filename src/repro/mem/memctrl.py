"""Memory controller: read servicing plus a merging write queue.

Writes are *posted*: the issuing core pays only the enqueue cost, and the
queue drains in the background, occupying DRAM banks.  Two properties the
paper's MetaLeak-C analysis (Section VI-B) depends on are modelled
explicitly:

* writes to a block already pending in the queue are **merged** — the block
  is written (and its encryption counter bumped) once, not twice;
* the queue drains when it passes its high watermark, or when the attacker
  forces a drain (redundant writes / explicit flush), and the drain burst
  makes banks busy, delaying concurrently timed reads.

Reads and writes take block addresses: every caller has already
aligned the address it sends (the MEE aligns the classical design's MAC
word, the one address on the memory path that is not a block address),
so the controller aligns nothing.

Security work done at write-service time (encryption, counter increment,
possible overflow handling) is delegated to a ``write_sink`` callback
installed by the memory encryption engine, keeping this module free of
metadata knowledge.  The engine owns this controller, so the sink is
held weakly: a machine that is dropped is freed by reference counting
(docs/architecture.md).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

from repro.config import DramConfig, MemCtrlConfig
from repro.core import FAULT_HOOK, TRACER, Component, Txn
from repro.mem.block import block_address
from repro.mem.dram import DramModel
from repro.trace.counters import CounterRegistry

# Cycles to place a request into a controller queue.
_ENQUEUE_LATENCY = 4
# Cycles to forward read data straight out of the write queue.
_FORWARD_LATENCY = 20

WriteSink = Callable[[int, int], int]
"""(block_addr, service_cycle) -> extra engine cycles for this write."""


@dataclass
class WriteQueueEntry:
    addr: int
    enqueued_at: int
    merged: int = 0


class MemoryController(Component):
    """FR-FCFS-flavoured controller front-ending one DRAM rank."""

    instrument_slots = (TRACER, FAULT_HOOK)

    def __init__(self, config: MemCtrlConfig, dram_config: DramConfig) -> None:
        self.config = config
        self.dram = DramModel(dram_config)
        self._write_queue: dict[int, WriteQueueEntry] = {}
        # Queue depth at which a posted write first forces a drain.
        self._watermark = int(
            config.write_queue_entries * config.drain_watermark
        )
        self._write_sink: weakref.WeakMethod | None = None
        self.counters = CounterRegistry()
        self._reads_serviced = self.counters.counter("reads_serviced")
        self._writes_serviced = self.counters.counter("writes_serviced")
        self._writes_merged = self.counters.counter("writes_merged")
        self._drains = self.counters.counter("drains")
        self._writes_dropped = self.counters.counter("writes_dropped")
        # Bound to the queue, not the controller: no back-reference.
        self.counters.gauge("write_queue_depth", self._write_queue.__len__)
        # Instrument slots (tracer, fault_hook — the latter may drop or
        # reorder drain bursts) are created detached by the component graph.
        self.init_component("memctrl")

    def children(self):
        return (self.dram,)

    def set_write_sink(self, sink: WriteSink) -> None:
        """Install the security-engine callback run when a write services.

        ``sink`` must be a bound method.  It is held weakly, since its
        owner normally owns this controller; once the owner is gone,
        drains service writes with no security work.
        """
        self._write_sink = weakref.WeakMethod(sink)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_block(self, block: int, now: int, txn: Txn | None = None) -> int:
        """Service a read of the block at address ``block`` (block-aligned)
        at cycle ``now``; return its latency.

        This is the timing (``charge``) step of the memory path: the DRAM
        model decomposes the address (bank, row) and mutates bank
        state, while every cycle the core observes is charged here.  Given
        a transaction (only while profiling), the latency is charged into
        it in parts whose sum equals the return value: ``queue`` (enqueue
        plus bank wait), ``service`` (DRAM row service plus bus transfer)
        and ``forward`` (store-to-load forward out of the write queue).
        """
        if block in self._write_queue:
            if txn is not None:
                txn.charge("forward", _FORWARD_LATENCY)
            if self.tracer is not None:
                self.tracer.emit(
                    "memctrl", "read_forward", cycle=now, addr=block,
                    value=_FORWARD_LATENCY,
                )
            return _FORWARD_LATENCY
        self._reads_serviced.value += 1
        wait, service = self.dram.access_parts(block, now + _ENQUEUE_LATENCY)
        if txn is not None:
            txn.charge("queue", _ENQUEUE_LATENCY + wait)
            txn.charge("service", service)
        latency = _ENQUEUE_LATENCY + wait + service
        if self.tracer is not None:
            self.tracer.emit(
                "memctrl", "read", cycle=now, addr=block, value=latency
            )
        return latency

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def enqueue_write(self, block: int, now: int) -> int:
        """Post a write of the block at address ``block`` (block-aligned);
        returns the (small) cycles the core observes."""
        entry = self._write_queue.get(block)
        if entry is not None:
            if self.config.write_merge:
                entry.merged += 1
                self._writes_merged.value += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        "memctrl", "write_merge", cycle=now, addr=block
                    )
                return _ENQUEUE_LATENCY
            # Without merging, an in-queue duplicate forces ordering: drain.
            self.drain(now)
        if len(self._write_queue) >= self._watermark:
            self.drain(now)
        self._write_queue[block] = WriteQueueEntry(addr=block, enqueued_at=now)
        if self.tracer is not None:
            self.tracer.emit(
                "memctrl", "write_enqueue", cycle=now, addr=block,
                value=len(self._write_queue),
            )
        return _ENQUEUE_LATENCY

    def drain(self, now: int) -> int:
        """Service every queued write starting at ``now``.

        Banks are left busy until the drain burst completes; the caller's
        own clock does not advance (posted writes), so a concurrently timed
        read observes the burst as extra wait — the Figure-8 signal.
        Returns the cycle at which the drain finishes.
        """
        if not self._write_queue:
            return now
        self._drains.value += 1
        t = now
        sink = self._write_sink() if self._write_sink is not None else None
        entries = list(self._write_queue.values())
        self._write_queue.clear()
        if self.fault_hook is not None:
            kept = self.fault_hook.on_write_drain(entries)
            self._writes_dropped.value += len(entries) - len(kept)
            entries = kept
        if self.tracer is not None:
            self.tracer.emit(
                "memctrl", "drain", cycle=now, value=len(entries)
            )
        for entry in entries:
            t += sum(self.dram.access_parts(entry.addr, t, is_write=True))
            self._writes_serviced.value += 1
            if sink is not None:
                t += sink(entry.addr, t)
            if self.tracer is not None:
                self.tracer.emit(
                    "memctrl", "write_service", cycle=t, addr=entry.addr
                )
        return t

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def pending_writes(self) -> int:
        return len(self._write_queue)

    def write_pending_for(self, addr: int) -> bool:
        return block_address(addr) in self._write_queue
