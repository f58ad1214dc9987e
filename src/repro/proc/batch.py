"""Access batches: vectors of processor operations submitted in one call.

An :class:`AccessBatch` is a recorded sequence of the processor's
``read``/``write``/``write_through``/``flush``/``drain_writes``
operations.  ``SecureProcessor.run_batch`` hands it to the processor's
one executor, the same code a scalar call runs as a one-op batch, so a
batch is *semantically identical* to replaying its operations through
the scalar calls — same simulated cycles, cache/counter state, RNG
draws, trace events and cycle attribution, instrumented or not.  The
batch-vs-scalar property suite (tests/test_batch.py) locks this in.  See
"Executor" under "Functional/timing split & batching" in
docs/architecture.md.
"""

from __future__ import annotations

from typing import Iterator

# Operation kinds, small ints so the hot dispatch loop compares cheaply.
OP_READ = 0
OP_WRITE = 1
OP_WRITE_THROUGH = 2
OP_FLUSH = 3
OP_DRAIN = 4

#: One recorded operation: (kind, addr, data, core).  ``addr`` is None
#: for drains; ``data`` is only meaningful for the write kinds.
BatchOp = tuple[int, int | None, bytes | None, int]


class AccessBatch:
    """A recorded vector of processor operations.

    Builder methods return ``self`` so sequences chain; the batch is
    inert until handed to ``SecureProcessor.run_batch``.
    """

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops: list[BatchOp] = []

    def __len__(self) -> int:
        return len(self.ops)

    # -- builders ----------------------------------------------------------

    def read(self, addr: int, *, core: int = 0) -> "AccessBatch":
        self.ops.append((OP_READ, addr, None, core))
        return self

    def write(
        self, addr: int, data: bytes | None = None, *, core: int = 0
    ) -> "AccessBatch":
        self.ops.append((OP_WRITE, addr, data, core))
        return self

    def write_through(
        self, addr: int, data: bytes | None = None, *, core: int = 0
    ) -> "AccessBatch":
        self.ops.append((OP_WRITE_THROUGH, addr, data, core))
        return self

    def flush(self, addr: int) -> "AccessBatch":
        self.ops.append((OP_FLUSH, addr, None, -1))
        return self

    def drain(self) -> "AccessBatch":
        self.ops.append((OP_DRAIN, None, None, -1))
        return self


class BatchResult:
    """Per-operation outcomes of one executed batch, aligned with its ops.

    Read/write/write-through slots hold the scalar ``AccessResult``;
    flush slots hold the flush latency (int); drain slots hold ``None``
    — exactly what the corresponding scalar call would have returned.
    """

    __slots__ = ("ops", "results")

    def __init__(self, ops: list[BatchOp], results: list) -> None:
        self.ops = ops
        self.results = results

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator:
        return iter(self.results)

    def __getitem__(self, index: int):
        return self.results[index]

    # -- read-side helpers (what attacks and victims consume) --------------

    def read_results(self) -> list:
        """The ``AccessResult`` of every OP_READ, in submission order."""
        return [
            result
            for op, result in zip(self.ops, self.results)
            if op[0] == OP_READ
        ]

    def read_latencies(self) -> list[int]:
        return [result.latency for result in self.read_results()]

    def max_read_latency(self) -> int:
        """Largest observed read latency (0 for a batch with no reads)."""
        latencies = self.read_latencies()
        return max(latencies) if latencies else 0

    def read_count(self) -> int:
        return sum(1 for op in self.ops if op[0] == OP_READ)
