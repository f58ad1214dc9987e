"""Access batches: vectors of processor operations submitted in one call.

The scalar ``SecureProcessor.read``/``write``/... operations stay the
reference implementation; an :class:`AccessBatch` is just a recorded
sequence of those operations that ``SecureProcessor.run_batch`` can
execute with per-batch precomputed address decompositions and L1 hits
served by ``SetAssocCache.hit``.  Batch execution is *semantically identical* to replaying
the same operations through the scalar calls — same simulated cycles,
same cache/counter state, same RNG draws — which the batch-vs-scalar
equivalence property test (tests/test_batch.py) locks in.

Whenever any instrument is attached (tracer, profiler, sampler, fault
hook), ``run_batch`` falls back to the scalar loop outright, so
instruments observe byte-identical event streams by construction.  See
the "Functional/timing split & batching" section of docs/architecture.md.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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

    @classmethod
    def reads(cls, addrs: Iterable[int], *, core: int = 0) -> "AccessBatch":
        """A batch that reads every address in ``addrs`` in order."""
        batch = cls()
        ops = batch.ops
        for addr in addrs:
            ops.append((OP_READ, addr, None, core))
        return batch


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

    def paths(self) -> list:
        """AccessPath of every read/write result, in submission order."""
        return [
            result.path
            for op, result in zip(self.ops, self.results)
            if op[0] in (OP_READ, OP_WRITE)
        ]
