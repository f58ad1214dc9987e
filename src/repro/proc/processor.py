"""`SecureProcessor` — the machine the victims run on and attacks target.

The processor composes the data-cache hierarchy, memory controller and
memory encryption engine, and exposes the software-visible operations the
paper's threat model assumes:

* ``read`` / ``write`` — ordinary accesses (write-allocate, write-back);
* ``write_through`` — a persisted store (clwb+fence style) that reaches the
  memory controller immediately, as in the persistent-memory applications
  and cache-cleansed victims of Section III;
* ``flush`` — clflush of one's own lines (cache cleansing);
* ``drain_writes`` — force the MC write queue to service, the primitive
  MetaLeak-C uses to control counter state;
* a global cycle clock advanced by every operation, so concurrently
  "running" attacker and victim calls observe each other through DRAM bank
  busy state (overflow bursts) and shared metadata-cache state.

Every operation runs through one executor, ``SecureProcessor._execute``:
a scalar call is a one-op batch and ``run_batch`` submits a recorded
:class:`~repro.proc.batch.AccessBatch`, traced or not.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import partial

from repro.config import BLOCK_SIZE, SecureProcessorConfig
from repro.core import PROFILER, TRACER, Component, Txn, slot_of
from repro.core import attach as graph_attach
from repro.mem.block import BLOCK_MASK, block_address
from repro.mem.hierarchy import DataCacheSystem
from repro.mem.memctrl import MemoryController
from repro.proc.batch import (
    OP_DRAIN,
    OP_FLUSH,
    OP_READ,
    OP_WRITE,
    OP_WRITE_THROUGH,
    AccessBatch,
    BatchResult,
)
from repro.proc.paths import AccessPath
from repro.secmem.engine import MemoryEncryptionEngine
from repro.trace.counters import CounterRegistry
from repro.utils.rng import DeterministicRng, derive_rng

_FLUSH_LATENCY = 40
_STORE_BUFFER_LATENCY = 6
_ZERO_BLOCK = bytes(BLOCK_SIZE)
_OP_NAMES = ("read", "write")
_L1_HIT = AccessPath.L1_HIT
_HIT_PATHS = (AccessPath.L1_HIT, AccessPath.L2_HIT, AccessPath.L3_HIT)
_HIT_KEYS = ("cache.l1_hit", "cache.l2_hit", "cache.l3_hit")
#: Registry name of each path's tally (``path_mem_tree_miss``), built
#: once so machine set-up does not re-derive it.
_PATH_COUNTER_NAMES = tuple(
    (path, f"path_{path.name.lower()}") for path in AccessPath
)


@dataclass(slots=True)
class AccessResult:
    """What one processor-level access did and how long it took.

    * ``latency`` — cycles as software measures it: a read's carries the
      modelled timer jitter, a write's is the simulated latency;
    * ``path`` — where the access was served (:class:`AccessPath`);
    * ``cycle`` — the machine clock once the access completed;
    * ``counter_hit`` and ``tree_levels_missed`` — the MEE's counter and
      tree outcome, set only on a full miss (False and 0 otherwise);
    * ``data`` — the block's 64 bytes, set on reads only;
    * ``breakdown`` — component -> cycles, summing exactly to the
      pre-jitter latency, set only while a profiler is attached (see
      ``repro.perf`` and docs/performance.md).
    """

    latency: int
    path: AccessPath
    cycle: int
    counter_hit: bool = False
    tree_levels_missed: int = 0
    data: bytes = b""
    breakdown: dict[str, int] | None = None


class SecureProcessor(Component):
    """A multi-core secure processor per Table I.

    The processor is the root of the component graph (``repro.core``):
    ``attach`` installs an instrument — tracer, fault hook or cycle
    attributor — across the whole machine in one walk.
    While a profiler is attached, every software-visible operation runs
    under a per-access :class:`~repro.core.Txn` opened by :meth:`_begin`.
    """

    instrument_slots = (TRACER, PROFILER)

    def __init__(self, config: SecureProcessorConfig | None = None) -> None:
        self.config = config or SecureProcessorConfig.sct_default()
        self.caches = DataCacheSystem(self.config)
        # Each core's L1 probe, bound once per machine rather than once
        # per executor call, so a scalar access does not pay for it.
        self._l1_hits = tuple(core.l1.hit for core in self.caches.core_caches)
        self.memctrl = MemoryController(self.config.memctrl, self.config.dram)
        self.mee = MemoryEncryptionEngine(self.config, self.memctrl)
        self.layout = self.mee.layout
        self.cycle = 0
        # Software-visible operations, and the path each read (or write
        # miss to memory) took: ``path_l1_hit`` ... ``path_mem_tree_miss``.
        self.counters = CounterRegistry()
        self._reads = self.counters.counter("reads")
        self._writes = self.counters.counter("writes")
        self._flushes = self.counters.counter("flushes")
        self._path_counters = {
            path: self.counters.counter(name)
            for path, name in _PATH_COUNTER_NAMES
        }
        # One machine-wide view over every component's counter registry,
        # mounted under dotted prefixes (``proc.reads``, ``mee.counter_hits``,
        # ``core0.l1.hits``, ``dram.reads``…).
        self.registry = CounterRegistry()
        self.registry.mount("proc", self.counters)
        self.registry.mount("mee", self.mee.registry)
        for i, core in enumerate(self.caches.core_caches):
            self.registry.mount(f"core{i}.l1", core.l1.counters)
            self.registry.mount(f"core{i}.l2", core.l2.counters)
        for s, l3 in enumerate(self.caches.l3s):
            self.registry.mount(f"l3.socket{s}", l3.counters)
        self.registry.mount("memctrl", self.memctrl.counters)
        self.registry.mount("dram", self.memctrl.dram.counters)
        self.registry.mount("meta_cache", self.mee.meta_cache.counters)
        if self.mee.tree_cache is not self.mee.meta_cache:
            self.registry.mount("tree_cache", self.mee.tree_cache.counters)
        self.registry.mount("crypto", self.mee.cipher.counters)
        # Instrument slots (tracer, profiler) start detached; None keeps
        # every instrumented path down to a single attribute test.
        self.init_component("proc")
        # Architectural (software-visible) values of written blocks.
        self._plain: dict[int, bytes] = {}
        # Timer noise, seeded on the first jittered read: most machines
        # run with ``timer_jitter_sigma`` 0 and never draw from it.
        self._timer_rng: DeterministicRng | None = None

    def children(self):
        return (self.caches, self.mee)

    # ------------------------------------------------------------------
    # Instrument attachment (component graph root)
    # ------------------------------------------------------------------

    def attach(self, instrument, *, slot: str | None = None) -> int:
        """Install an instrument across the whole machine in one walk.

        The slot is inferred from the instrument's ``instrument_slot``
        class attribute (``repro.trace.Tracer`` → ``tracer``,
        ``repro.faults.FaultHook`` → ``fault_hook``,
        ``repro.perf.CycleAttributor`` → ``profiler``) unless given
        explicitly.  Tracers get their clock bound to this processor's
        cycle counter through a weak proxy, so the tracer does not keep
        the machine alive.  Returns the number of components reached;
        :func:`repro.core.detach` restores the no-op fast path.
        """
        slot = slot if slot is not None else slot_of(instrument)
        if slot == TRACER and instrument is not None:
            instrument.bind_clock(partial(getattr, weakref.proxy(self), "cycle"))
        return graph_attach(self, instrument, slot=slot)

    # ------------------------------------------------------------------
    # Per-access transactions
    # ------------------------------------------------------------------

    def _begin(self, op: str, core: int, addr: int | None) -> Txn | None:
        """Open the transaction for one software-visible operation.

        A transaction only collects latency attribution, so it exists
        only while a profiler is attached; otherwise this returns None,
        traced or not, and no layer makes an attribution call.
        """
        if self.profiler is None:
            return None
        return Txn(op, core, addr)

    def _finish(self, txn: Txn, *, path: AccessPath | None, latency: int) -> None:
        """Close a transaction: report its attribution to the profiler."""
        self.profiler.on_access(
            op=txn.op, path=path, core=txn.core, addr=txn.addr,
            cycle=self.cycle, latency=latency, parts=txn.parts,
            shadowed=txn.shadowed or None,
        )

    def _observed(self, latency: int) -> int:
        """Latency as software measures it (with modeled timer noise)."""
        sigma = self.config.timer_jitter_sigma
        if sigma <= 0:
            return latency
        if self._timer_rng is None:
            self._timer_rng = derive_rng(self.config.seed, "timer")
        return max(1, round(latency + self._timer_rng.gauss(0, sigma)))

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def advance(self, cycles: int) -> None:
        """Let wall-clock time pass without issuing an access."""
        if cycles < 0:
            raise ValueError("cannot advance backwards")
        self.cycle += cycles

    def quiesce(self) -> int:
        """Idle until all DRAM banks are free; returns cycles waited.

        Attackers do this before a timed read so the measurement reflects
        only the access path under test, not leftover bank occupancy from
        their own earlier traffic.  (It deliberately does not drain the
        write queue — that would perturb counter state.)
        """
        waited = max(0, self.memctrl.dram.max_busy_until() - self.cycle)
        self.cycle += waited
        return waited

    # ------------------------------------------------------------------
    # Core operations (each one a one-op batch through the executor)
    # ------------------------------------------------------------------

    def read(self, addr: int, *, core: int = 0) -> AccessResult:
        """Load the block containing ``addr``."""
        return self._execute(((OP_READ, addr, None, core),))[0]

    def write(
        self, addr: int, data: bytes | None = None, *, core: int = 0
    ) -> AccessResult:
        """Store to the block containing ``addr`` (write-allocate/back)."""
        return self._execute(((OP_WRITE, addr, data, core),))[0]

    def write_through(
        self, addr: int, data: bytes | None = None, *, core: int = 0
    ) -> AccessResult:
        """Persisted store: bypasses the caches and posts to the MC now."""
        return self._execute(((OP_WRITE_THROUGH, addr, data, core),))[0]

    def flush(self, addr: int) -> int:
        """clflush: drop the block from every cache; write back if dirty."""
        return self._execute(((OP_FLUSH, addr, None, -1),))[0]

    def drain_writes(self) -> None:
        """Fence: force the MC write queue to service everything queued."""
        self._execute(((OP_DRAIN, None, None, -1),))

    def run_batch(self, batch: AccessBatch) -> BatchResult:
        """Execute a recorded operation vector in one call."""
        return BatchResult(batch.ops, self._execute(batch.ops))

    # ------------------------------------------------------------------
    # The executor: the one implementation of every operation
    # ------------------------------------------------------------------

    def _execute(self, ops) -> list:
        """Run recorded ops in order; one result per op (see BatchResult).

        Per-call lookups are hoisted out of the loop: the L1 block shift
        and set count, from which each access's set index is computed
        inline (every core builds its L1 from the one ``config.l1``),
        each core's ``SetAssocCache.hit`` (bound once per machine), the
        latency constants, and two instrument tests.  The profiler test
        opens a transaction per op (``_begin``), and every attribution
        call, here and below, runs only on a transaction; the tracer
        test gates the ``proc`` trace event.  Traced and bare runs
        execute the same code.  The ``hit`` probe is the only L1 lookup:
        it serves a hit, and any other access continues in
        :meth:`_below_l1`.
        """
        caches = self.caches
        core_caches = caches.core_caches
        l1_shift = core_caches[0].l1.block_shift
        l1_sets = core_caches[0].l1.num_sets
        l1_hits = self._l1_hits
        l1_latency = caches.hit_latency[0]
        data_size = self.layout.data_size
        cores = len(core_caches)
        mee = self.mee
        reads = self._reads
        writes = self._writes
        path_counters = self._path_counters
        plain = self._plain
        jitter = self.config.timer_jitter_sigma > 0
        tracer = self.tracer
        profiling = self.profiler is not None
        txn = None
        results: list = []
        append = results.append
        for kind, addr, data, core in ops:
            if kind <= OP_WRITE:
                if not (0 <= addr < data_size and 0 <= core < cores):
                    self._check_access(addr, core)
                block = addr & BLOCK_MASK
                set_index = (block >> l1_shift) % l1_sets
                is_write = kind == OP_WRITE
                if is_write:
                    # Coerced before any cache sees the store, so a
                    # rejected write leaves the machine untouched.
                    plain[block] = self._coerce_data(block, data)
                    writes.value += 1
                else:
                    reads.value += 1
                if profiling:
                    txn = self._begin(_OP_NAMES[kind], core, block)
                if l1_hits[core](block, set_index, is_write):
                    self.cycle += l1_latency
                    latency, path, fetched = l1_latency, _L1_HIT, None
                    if txn is not None:
                        txn.charge("cache.l1_hit", l1_latency)
                else:
                    latency, path, fetched = self._below_l1(
                        core, block, set_index, is_write, txn
                    )
                if tracer is not None:
                    tracer.emit(
                        "proc", _OP_NAMES[kind], core=core, addr=block,
                        value=float(latency),
                    )
                if fetched is None:
                    result = AccessResult(latency, path, self.cycle)
                else:
                    result = AccessResult(
                        latency, path, self.cycle, fetched.counter_hit,
                        fetched.tree_levels_missed,
                    )
                if txn is not None:
                    self._finish(txn, path=path, latency=latency)
                    result.breakdown = txn.parts
                # Writes report no timer jitter, and write hits add no
                # path count.
                if not is_write:
                    path_counters[path].value += 1
                    result.data = (
                        plain.get(block, _ZERO_BLOCK)
                        if fetched is None else fetched.plaintext
                    )
                    if jitter:
                        result.latency = self._observed(latency)
                elif fetched is not None:
                    path_counters[path].value += 1
                append(result)
            elif kind == OP_WRITE_THROUGH:
                if not (0 <= addr < data_size and 0 <= core < cores):
                    self._check_access(addr, core)
                block = addr & BLOCK_MASK
                value = plain[block] = self._coerce_data(block, data)
                writes.value += 1
                if profiling:
                    txn = self._begin("write_through", core, block)
                caches.flush(block)  # drop any stale cached copy
                enqueue = mee.write_data(block, value, self.cycle)
                latency = _STORE_BUFFER_LATENCY + enqueue
                self.cycle += latency
                if tracer is not None:
                    tracer.emit(
                        "proc", "write_through", core=core, addr=block,
                        value=float(latency),
                    )
                result = AccessResult(latency, _L1_HIT, self.cycle)
                if txn is not None:
                    txn.charge("op.store_buffer", _STORE_BUFFER_LATENCY)
                    txn.charge("op.enqueue", enqueue)
                    self._finish(txn, path=None, latency=latency)
                    result.breakdown = txn.parts
                append(result)
            elif kind == OP_FLUSH:
                self._flushes.value += 1
                block = addr & BLOCK_MASK
                if profiling:
                    txn = self._begin("flush", -1, block)
                was_dirty, writebacks = caches.flush(block)
                for writeback in writebacks:
                    self._enqueue_data_writeback(writeback)
                self.cycle += _FLUSH_LATENCY
                if tracer is not None:
                    tracer.emit(
                        "proc", "flush", addr=block, value=float(was_dirty)
                    )
                if txn is not None:
                    txn.charge("op.flush", _FLUSH_LATENCY)
                    self._finish(txn, path=None, latency=_FLUSH_LATENCY)
                append(_FLUSH_LATENCY)
            else:
                if profiling:
                    txn = self._begin("drain", -1, None)
                if tracer is not None:
                    tracer.emit("proc", "drain")
                self.memctrl.drain(self.cycle)
                self.cycle += _STORE_BUFFER_LATENCY
                if txn is not None:
                    # The drain burst itself is posted background work;
                    # only the fence's store-buffer cost lands on the
                    # issuing core.
                    txn.charge("op.store_buffer", _STORE_BUFFER_LATENCY)
                    self._finish(txn, path=None, latency=_STORE_BUFFER_LATENCY)
                append(None)
        return results

    def _below_l1(
        self, core: int, block: int, set_index: int, is_write: bool,
        txn: Txn | None,
    ):
        """An access that missed L1 (set ``set_index``): the rest of the
        hierarchy, then memory.

        Advances the clock and returns ``(latency, path, fetched)``, where
        ``fetched`` is the engine's ``ReadOutcome`` on a full miss and
        None when L2 or L3 hit.  Dirty victims the hierarchy pushes out
        go to the memory controller on every path.
        """
        caches = self.caches
        level, writebacks = caches.access(core, block, set_index, is_write)
        for writeback in writebacks:
            self._enqueue_data_writeback(writeback)
        if level:
            latency = caches.hit_latency[level - 1]
            self.cycle += latency
            if txn is not None:
                txn.charge(_HIT_KEYS[level - 1], latency)
            return latency, _HIT_PATHS[level - 1], None
        lookup = caches.miss_lookup_latency
        if txn is not None:
            txn.charge("cache.lookup", lookup)
        # A write miss fetches the block first: the same path as a read.
        fetched = self.mee.read_data(block, self.cycle + lookup, txn)
        for writeback in caches.fill(core, block, dirty=is_write):
            self._enqueue_data_writeback(writeback)
        latency = lookup + fetched.latency
        self.cycle += latency
        path = self._classify(fetched.counter_hit, fetched.tree_levels_missed)
        return latency, path, fetched

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _check_access(self, addr: int, core: int) -> None:
        """Reject an access outside protected data or to a missing core."""
        if not self.layout.is_protected_data(addr):
            raise ValueError(
                f"address {addr:#x} outside protected data region "
                f"(size {self.layout.data_size:#x})"
            )
        if not 0 <= core < self.config.cores:
            raise ValueError(
                f"core {core} out of range (the machine has "
                f"{self.config.cores} cores)"
            )

    def _coerce_data(self, block: int, data: bytes | None) -> bytes:
        if data is None:
            return self._plain.get(block, _ZERO_BLOCK)
        if len(data) > BLOCK_SIZE:
            raise ValueError("data exceeds one block")
        return bytes(data).ljust(BLOCK_SIZE, b"\0")

    def _enqueue_data_writeback(self, block: int) -> None:
        self.mee.write_data(block, self._plain.get(block, _ZERO_BLOCK), self.cycle)

    @staticmethod
    def _classify(counter_hit: bool, tree_levels_missed: int) -> AccessPath:
        if counter_hit:
            return AccessPath.MEM_COUNTER_HIT
        if tree_levels_missed == 0:
            return AccessPath.MEM_TREE_HIT
        return AccessPath.MEM_TREE_MISS

    # ------------------------------------------------------------------
    # Introspection used by examples, tests and the analysis layer
    # ------------------------------------------------------------------

    def architectural_value(self, addr: int) -> bytes:
        """Software-visible value of a block (for test oracles)."""
        return self._plain.get(block_address(addr), _ZERO_BLOCK)

    @property
    def metadata_cache(self):
        return self.mee.meta_cache

    @property
    def tree_metadata_cache(self):
        """The tree-node cache (same object unless split_metadata_caches)."""
        return self.mee.tree_cache
