"""A persistent key-value store victim (MetaLeak-C's natural prey).

The paper's threat model points at persistent-memory applications whose
"critical sections are written back to memory immediately" — every store
reaches the memory controller, bumping encryption and tree counters with
no cache-eviction games needed.  This victim models a small PM hash table
with write-ahead logging: a ``put`` appends a log record (one write to the
log page) and updates the bucket page of the key's hash.  Observing
*which bucket pages get written* through shared tree counters leaks the
keys' hash distribution; observing the *number* of log writes leaks the
operation count — both pure MetaLeak-C write-monitoring targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.config import BLOCK_SIZE, PAGE_SIZE
from repro.crypto.prf import keyed_prf
from repro.os.process import Process


@dataclass(frozen=True)
class KvStep:
    """One persisted write performed by the store (generator payload)."""

    operation: str  # "log" | "bucket"
    bucket: int | None
    key: str


class PersistentKvStore:
    """A write-through hash table with a write-ahead log."""

    def __init__(self, process: Process, *, buckets: int = 8) -> None:
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.process = process
        self.buckets = buckets
        self.log_vaddr = process.alloc(1)
        self.bucket_vaddrs = [process.alloc(1) for _ in range(buckets)]
        self._data: dict[str, bytes] = {}
        self._log_cursor = 0
        self.puts = 0

    # -- page identity (what an attacker co-locates against) --------------

    @property
    def log_frame(self) -> int:
        return self.process.paddr(self.log_vaddr) // PAGE_SIZE

    def bucket_frame(self, bucket: int) -> int:
        return self.process.paddr(self.bucket_vaddrs[bucket]) // PAGE_SIZE

    def bucket_of(self, key: str) -> int:
        digest = keyed_prf(b"kv-bucket", key, out_len=8)
        return int.from_bytes(digest, "little") % self.buckets

    # -- operations ---------------------------------------------------------

    def put(self, key: str, value: bytes) -> Generator[KvStep, None, None]:
        """Persist one key/value pair: log append, then bucket update.

        Yields after each persisted write so stepping frameworks can probe.
        """
        self.puts += 1
        # Write-ahead log append (rotating cursor within the log page).
        log_offset = (self._log_cursor % (PAGE_SIZE // BLOCK_SIZE)) * BLOCK_SIZE
        self._log_cursor += 1
        self.process.write(self.log_vaddr + log_offset, value[:BLOCK_SIZE])
        yield KvStep(operation="log", bucket=None, key=key)
        # Bucket update: the key's hash picks the page that gets written.
        bucket = self.bucket_of(key)
        self.process.write(self.bucket_vaddrs[bucket], value[:BLOCK_SIZE])
        self._data[key] = bytes(value)
        yield KvStep(operation="bucket", bucket=bucket, key=key)

    def get(self, key: str) -> bytes | None:
        """Read back a value (reads the bucket page)."""
        if key not in self._data:
            return None
        self.process.read(self.bucket_vaddrs[self.bucket_of(key)])
        return self._data[key]

    def __len__(self) -> int:
        return len(self._data)
