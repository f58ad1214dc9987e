"""Open-row DRAM bank timing model.

Latency of an access = bus transfer + (row hit | row miss) + any wait for
the bank to become free.  :meth:`DramModel.access_parts` is the one
access and returns that latency as two parts, the wait and the rest, for
the memory controller to charge.  Banks can be marked *busy* for long
stretches — that is how counter-overflow re-encryption bursts (Section
V, Figure 8) delay concurrent reads and become observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.config import DramConfig
from repro.core import Component
from repro.mem.block import bank_of
from repro.trace.counters import CounterRegistry


@dataclass
class _BankState:
    open_row: int | None = None
    busy_until: int = 0


class DramModel(Component):
    """A rank of open-row banks with per-bank busy tracking."""

    def __init__(self, config: DramConfig) -> None:
        self.config = config
        self._banks = [_BankState() for _ in range(config.banks)]
        self.counters = CounterRegistry()
        self._reads = self.counters.counter("reads")
        self._writes = self.counters.counter("writes")
        self._row_hits = self.counters.counter("row_hits")
        self._row_misses = self.counters.counter("row_misses")
        # Bound to the bank list, not the model: no back-reference.
        self.counters.gauge("max_busy_until", partial(_latest_busy, self._banks))
        # The tracer slot is created detached by the component graph.
        self.init_component("dram")

    def bank_of(self, addr: int) -> int:
        return bank_of(addr, self.config.banks)

    def access_parts(
        self, addr: int, now: int, *, is_write: bool = False
    ) -> tuple[int, int]:
        """Perform one block access starting at cycle ``now``; return its
        latency split into (bank-queue wait, service + bus).

        The one DRAM access: the wait is any stall for the target bank to
        finish earlier work (e.g. a re-encryption burst), and the memory
        controller charges the two parts separately to a read and adds
        them up on a write drain.  The bank comes from the bank hash
        (``repro.mem.block.bank_of``), the row from the address divided
        by the row size.
        """
        bank_index = bank_of(addr, self.config.banks)
        bank = self._banks[bank_index]
        wait = max(0, bank.busy_until - now)
        row = addr // self.config.row_size
        if bank.open_row == row:
            service = self.config.row_hit_latency
            self._row_hits.value += 1
        else:
            service = self.config.row_miss_latency
            self._row_misses.value += 1
            bank.open_row = row
        service += self.config.bus_latency
        bank.busy_until = now + wait + service
        if is_write:
            self._writes.value += 1
        else:
            self._reads.value += 1
        if self.tracer is not None:
            self.tracer.emit(
                "dram",
                "write" if is_write else "read",
                cycle=now,
                addr=addr,
                set_index=bank_index,
                value=wait + service,
            )
        return wait, service

    def occupy_bank(self, addr: int, now: int, duration: int) -> None:
        """Keep the bank serving ``addr`` busy for ``duration`` extra cycles."""
        bank = self._banks[self.bank_of(addr)]
        bank.busy_until = max(bank.busy_until, now) + duration

    def occupy_all(self, now: int, duration: int) -> None:
        """Keep every bank busy (whole-rank burst, e.g. group re-encryption)."""
        for bank in self._banks:
            bank.busy_until = max(bank.busy_until, now) + duration

    def max_busy_until(self) -> int:
        """Cycle by which every bank is idle again."""
        return _latest_busy(self._banks)


def _latest_busy(banks: list[_BankState]) -> int:
    return max(bank.busy_until for bank in banks)
