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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import BLOCK_SIZE, SecureProcessorConfig
from repro.core import (
    FAULT_HOOK,
    NULL_TXN,
    PROFILER,
    SAMPLER,
    TRACER,
    Component,
    Txn,
    slot_of,
)
from repro.core import attach as graph_attach
from repro.core import detach as graph_detach
from repro.mem.block import block_address
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

_FLUSH_LATENCY = 40
_STORE_BUFFER_LATENCY = 6


@dataclass(slots=True)
class AccessResult:
    """What one processor-level access did and how long it took."""

    latency: int
    path: AccessPath
    cycle: int
    counter_hit: bool = False
    tree_levels_missed: int = 0
    data: bytes = b""
    # Critical-path cycle attribution (populated only while a profiler is
    # attached): component -> cycles, summing exactly to the access's
    # pre-jitter latency.  See ``repro.perf`` / docs/performance.md.
    breakdown: dict[str, int] | None = None


@dataclass
class ProcessorStats:
    reads: int = 0
    writes: int = 0
    flushes: int = 0
    path_counts: dict[AccessPath, int] = field(default_factory=dict)

    def count(self, path: AccessPath) -> None:
        self.path_counts[path] = self.path_counts.get(path, 0) + 1


class SecureProcessor(Component):
    """A multi-core secure processor per Table I.

    The processor is the root of the component graph (``repro.core``):
    ``attach`` installs an instrument — tracer, fault hook, cycle
    attributor, metrics sampler — across the whole machine in one walk,
    and every software-visible operation runs under a per-access
    :class:`~repro.core.Txn` created by :meth:`_begin`.
    """

    instrument_slots = (TRACER, FAULT_HOOK, PROFILER, SAMPLER)

    def __init__(self, config: SecureProcessorConfig | None = None) -> None:
        self.config = config or SecureProcessorConfig.sct_default()
        self.caches = DataCacheSystem(self.config)
        self.memctrl = MemoryController(self.config.memctrl, self.config.dram)
        self.mee = MemoryEncryptionEngine(self.config, self.memctrl)
        self.layout = self.mee.layout
        self.cycle = 0
        self.stats = ProcessorStats()
        # One machine-wide view over every component's counter registry,
        # mounted under dotted prefixes (``core0.l1.hits``, ``dram.reads``…).
        self.registry = CounterRegistry()
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
        # Instrument slots (tracer, fault hook, profiler, sampler) start
        # detached; None keeps every instrumented path down to a single
        # attribute test.
        self.init_component("proc")
        # Architectural (software-visible) values of written blocks.
        self._plain: dict[int, bytes] = {}
        from repro.utils.rng import derive_rng

        self._timer_rng = derive_rng(self.config.seed, "timer")

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
        ``repro.perf.CycleAttributor`` → ``profiler``,
        ``repro.perf.MetricsSampler`` → ``sampler``) unless given
        explicitly.  Tracers get their clock bound to this processor's
        cycle counter; samplers take an initial snapshot.  Returns the
        number of components reached; :func:`repro.core.detach` (or the
        legacy ``attach_*(None)`` shims) restores the no-op fast path.
        """
        slot = slot if slot is not None else slot_of(instrument)
        if slot == TRACER and instrument is not None:
            instrument.bind_clock(lambda: self.cycle)
        count = graph_attach(self, instrument, slot=slot)
        if slot == SAMPLER and instrument is not None:
            instrument.on_cycle(self.cycle)
        return count

    def attach_tracer(self, tracer) -> None:
        """Thread one trace sink through the whole machine.

        Deprecated shim over :meth:`attach`.  Binds the tracer's clock to
        this processor's cycle counter (so components that have no notion
        of time stamp events correctly) and attaches it to every cache,
        the memory controller, DRAM and the memory encryption engine.
        ``None`` detaches everywhere.
        """
        if tracer is None:
            graph_detach(self, TRACER)
        else:
            self.attach(tracer, slot=TRACER)

    def attach_profiler(self, profiler) -> None:
        """Attach a cycle attributor (``repro.perf.CycleAttributor``).

        Deprecated shim over :meth:`attach`.  While attached, every
        software-visible operation reports its latency as a per-component
        breakdown whose sum equals the access's pre-jitter latency (the
        conservation guarantee).  ``None`` detaches and restores the
        zero-overhead path.
        """
        if profiler is None:
            graph_detach(self, PROFILER)
        else:
            self.attach(profiler, slot=PROFILER)

    def attach_sampler(self, sampler) -> None:
        """Attach a metrics sampler (``repro.perf.MetricsSampler``).

        Deprecated shim over :meth:`attach`.  The sampler snapshots
        ``self.registry`` every N simulated cycles, ticked from the
        operations that advance the machine clock.  ``None`` detaches.
        """
        if sampler is None:
            graph_detach(self, SAMPLER)
        else:
            self.attach(sampler, slot=SAMPLER)

    # ------------------------------------------------------------------
    # Per-access transactions
    # ------------------------------------------------------------------

    def _begin(self, op: str, core: int, addr: int | None) -> Txn:
        """Open the transaction for one software-visible operation.

        Returns the shared no-op :data:`~repro.core.NULL_TXN` when nothing
        is attached anywhere — the zero-overhead fast path allocates
        nothing.  Otherwise the transaction carries the attached tracer
        and the engine's fault hook down the memory path, and builds
        attribution parts only while a profiler is attached.
        """
        if (
            self.tracer is None
            and self.profiler is None
            and self.mee.fault_hook is None
        ):
            return NULL_TXN
        return Txn(
            op,
            core,
            addr,
            tracer=self.tracer,
            fault_hook=self.mee.fault_hook,
            profiling=self.profiler is not None,
        )

    def _finish(self, txn: Txn, *, path: AccessPath | None, latency: int) -> None:
        """Close a transaction: report attribution, tick the sampler."""
        if txn.profiling:
            self.profiler.on_access(
                op=txn.op, path=path, core=txn.core, addr=txn.addr,
                cycle=self.cycle, latency=latency, parts=txn.parts,
                shadowed=txn.shadowed or None,
            )
        if self.sampler is not None:
            self.sampler.on_cycle(self.cycle)

    def _observed(self, latency: int) -> int:
        """Latency as software measures it (with modeled timer noise)."""
        sigma = self.config.timer_jitter_sigma
        if sigma <= 0:
            return latency
        return max(1, round(latency + self._timer_rng.gauss(0, sigma)))

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def advance(self, cycles: int) -> None:
        """Let wall-clock time pass without issuing an access."""
        if cycles < 0:
            raise ValueError("cannot advance backwards")
        self.cycle += cycles
        if self.sampler is not None:
            self.sampler.on_cycle(self.cycle)

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
    # Core operations
    # ------------------------------------------------------------------

    def read(self, addr: int, *, core: int = 0) -> AccessResult:
        """Load the block containing ``addr``."""
        self._check_data_addr(addr)
        self.stats.reads += 1
        block = block_address(addr)
        txn = self._begin("read", core, block)
        hier = self.caches.access(core, block, is_write=False)
        if hier.hit_level is not None:
            path = (AccessPath.L1_HIT, AccessPath.L2_HIT, AccessPath.L3_HIT)[
                hier.hit_level - 1
            ]
            self.stats.count(path)
            self.cycle += hier.latency
            txn.emit(
                "proc", "read", core=core, addr=block, value=float(hier.latency)
            )
            txn.charge(f"cache.l{hier.hit_level}_hit", hier.latency)
            self._finish(txn, path=path, latency=hier.latency)
            return AccessResult(
                latency=self._observed(hier.latency),
                path=path,
                cycle=self.cycle,
                data=self._plain.get(block, bytes(BLOCK_SIZE)),
                breakdown=txn.parts,
            )
        self._handle_writebacks(hier.writebacks)
        txn.charge("cache.lookup", hier.latency)
        outcome = self.mee.read_data(block, self.cycle + hier.latency, txn=txn)
        for writeback in self.caches.fill(core, block, dirty=False):
            self._enqueue_data_writeback(writeback)
        latency = hier.latency + outcome.latency
        self.cycle += latency
        path = self._classify(outcome.counter_hit, outcome.tree_levels_missed)
        self.stats.count(path)
        txn.emit("proc", "read", core=core, addr=block, value=float(latency))
        self._finish(txn, path=path, latency=latency)
        return AccessResult(
            latency=self._observed(latency),
            path=path,
            cycle=self.cycle,
            counter_hit=outcome.counter_hit,
            tree_levels_missed=outcome.tree_levels_missed,
            data=outcome.plaintext,
            breakdown=txn.parts,
        )

    def write(
        self, addr: int, data: bytes | None = None, *, core: int = 0
    ) -> AccessResult:
        """Store to the block containing ``addr`` (write-allocate/back)."""
        self._check_data_addr(addr)
        block = block_address(addr)
        self._plain[block] = self._coerce_data(block, data)
        self.stats.writes += 1
        txn = self._begin("write", core, block)
        hier = self.caches.access(core, block, is_write=True)
        if hier.hit_level is not None:
            self.cycle += hier.latency
            path = (AccessPath.L1_HIT, AccessPath.L2_HIT, AccessPath.L3_HIT)[
                hier.hit_level - 1
            ]
            txn.emit(
                "proc", "write", core=core, addr=block, value=float(hier.latency)
            )
            txn.charge(f"cache.l{hier.hit_level}_hit", hier.latency)
            self._finish(txn, path=path, latency=hier.latency)
            return AccessResult(
                latency=hier.latency, path=path, cycle=self.cycle,
                breakdown=txn.parts,
            )
        self._handle_writebacks(hier.writebacks)
        txn.charge("cache.lookup", hier.latency)
        # Fetch-for-write: the miss path is the same as a read.
        outcome = self.mee.read_data(block, self.cycle + hier.latency, txn=txn)
        for writeback in self.caches.fill(core, block, dirty=True):
            self._enqueue_data_writeback(writeback)
        latency = hier.latency + outcome.latency
        self.cycle += latency
        path = self._classify(outcome.counter_hit, outcome.tree_levels_missed)
        self.stats.count(path)
        txn.emit("proc", "write", core=core, addr=block, value=float(latency))
        self._finish(txn, path=path, latency=latency)
        return AccessResult(
            latency=latency,
            path=path,
            cycle=self.cycle,
            counter_hit=outcome.counter_hit,
            tree_levels_missed=outcome.tree_levels_missed,
            breakdown=txn.parts,
        )

    def write_through(
        self, addr: int, data: bytes | None = None, *, core: int = 0
    ) -> AccessResult:
        """Persisted store: bypasses the caches and posts to the MC now."""
        self._check_data_addr(addr)
        block = block_address(addr)
        self._plain[block] = self._coerce_data(block, data)
        self.stats.writes += 1
        txn = self._begin("write_through", core, block)
        self.caches.flush(block)  # drop any stale cached copy
        enqueue = self.mee.write_data(block, self._plain[block], self.cycle)
        latency = _STORE_BUFFER_LATENCY + enqueue
        self.cycle += latency
        txn.emit(
            "proc", "write_through", core=core, addr=block, value=float(latency)
        )
        txn.charge("op.store_buffer", _STORE_BUFFER_LATENCY)
        txn.charge("op.enqueue", enqueue)
        self._finish(txn, path=None, latency=latency)
        return AccessResult(
            latency=latency, path=AccessPath.L1_HIT, cycle=self.cycle,
            breakdown=txn.parts,
        )

    def flush(self, addr: int, *, keep_clean_copy: bool = False) -> int:
        """clflush: drop the block from every cache; write back if dirty."""
        self.stats.flushes += 1
        block = block_address(addr)
        txn = self._begin("flush", -1, block)
        was_dirty, writebacks = self.caches.flush(block)
        del keep_clean_copy  # reserved for a clwb variant; clflush drops
        if was_dirty:
            for writeback in writebacks:
                self._enqueue_data_writeback(writeback)
        self.cycle += _FLUSH_LATENCY
        txn.emit("proc", "flush", addr=block, value=float(was_dirty))
        txn.charge("op.flush", _FLUSH_LATENCY)
        self._finish(txn, path=None, latency=_FLUSH_LATENCY)
        return _FLUSH_LATENCY

    def drain_writes(self) -> None:
        """Fence: force the MC write queue to service everything queued."""
        txn = self._begin("drain", -1, None)
        txn.emit("proc", "drain")
        self.memctrl.drain(self.cycle)
        self.cycle += _STORE_BUFFER_LATENCY
        # The drain burst itself is posted background work; only the
        # fence's store-buffer cost lands on the issuing core.
        txn.charge("op.store_buffer", _STORE_BUFFER_LATENCY)
        self._finish(txn, path=None, latency=_STORE_BUFFER_LATENCY)

    def timed_read(self, addr: int, *, core: int = 0) -> int:
        """Read and return only the measured latency (rdtscp-style)."""
        return self.read(addr, core=core).latency

    # ------------------------------------------------------------------
    # Batch access path
    # ------------------------------------------------------------------

    def read_batch(self, addrs, *, core: int = 0) -> BatchResult:
        """Load every address in ``addrs`` (in order) as one batch."""
        return self.run_batch(AccessBatch.reads(addrs, core=core))

    def run_batch(self, batch: AccessBatch) -> BatchResult:
        """Execute a recorded operation vector.

        Semantically identical to replaying the batch through the scalar
        calls — same simulated cycles, cache/counter state and RNG draw
        order (the equivalence property test asserts this).  With any
        instrument attached (tracer, profiler, sampler, fault hook) the
        scalar loop runs outright so event streams match byte-for-byte;
        otherwise address decompositions are precomputed once per batch
        and L1 hits — the steady-state common case — are served by one
        ``SetAssocCache.hit`` call each, with every other operation
        delegated to the scalar reference path.
        """
        ops = batch.ops
        if (
            self.tracer is not None
            or self.profiler is not None
            or self.sampler is not None
            or self.mee.fault_hook is not None
        ):
            return BatchResult(ops, [self._run_op_scalar(op) for op in ops])

        # Per-batch decomposition table: addr -> (block, L1 set index).
        # L1 geometry is uniform across cores, so one table serves all.
        decompose = self.caches.core_caches[0].l1.decompose
        table: dict[int, tuple[int, int]] = {}
        for op in ops:
            addr = op[1]
            if addr is not None and addr not in table:
                table[addr] = decompose(addr)

        core_caches = self.caches.core_caches
        l1_latency = self.caches.hit_latency[0]
        data_size = self.layout.data_size
        stats = self.stats
        path_counts = stats.path_counts
        plain = self._plain
        jitter = self.config.timer_jitter_sigma > 0
        zero_block = bytes(BLOCK_SIZE)
        results: list = []
        append = results.append
        for kind, addr, data, core in ops:
            if kind == OP_READ:
                if not 0 <= addr < data_size:
                    self._check_data_addr(addr)
                block, set_index = table[addr]
                if not core_caches[core].l1.hit(block, set_index, False):
                    append(self.read(addr, core=core))
                    continue
                # L1 read hit: byte-identical to the scalar path.
                stats.reads += 1
                path_counts[AccessPath.L1_HIT] = (
                    path_counts.get(AccessPath.L1_HIT, 0) + 1
                )
                self.cycle += l1_latency
                latency = (
                    self._observed(l1_latency) if jitter else l1_latency
                )
                append(
                    AccessResult(
                        latency=latency,
                        path=AccessPath.L1_HIT,
                        cycle=self.cycle,
                        data=plain.get(block, zero_block),
                    )
                )
            elif kind == OP_WRITE:
                if not 0 <= addr < data_size:
                    self._check_data_addr(addr)
                block, set_index = table[addr]
                # Validate the data before the cache sees the store, so a
                # rejected write leaves the machine untouched.
                value = (
                    plain.get(block, zero_block)
                    if data is None
                    else self._coerce_data(block, data)
                )
                if not core_caches[core].l1.hit(block, set_index, True):
                    append(self.write(addr, data, core=core))
                    continue
                # L1 write hit (scalar write hits skip path stats and
                # timer jitter — preserved exactly).
                plain[block] = value
                stats.writes += 1
                self.cycle += l1_latency
                append(
                    AccessResult(
                        latency=l1_latency,
                        path=AccessPath.L1_HIT,
                        cycle=self.cycle,
                    )
                )
            elif kind == OP_WRITE_THROUGH:
                append(self.write_through(addr, data, core=core))
            elif kind == OP_FLUSH:
                append(self.flush(addr))
            else:
                append(self.drain_writes())
        return BatchResult(ops, results)

    def _run_op_scalar(self, op) -> object:
        """Scalar fallback: one batch op through the reference path."""
        kind, addr, data, core = op
        if kind == OP_READ:
            return self.read(addr, core=core)
        if kind == OP_WRITE:
            return self.write(addr, data, core=core)
        if kind == OP_WRITE_THROUGH:
            return self.write_through(addr, data, core=core)
        if kind == OP_FLUSH:
            return self.flush(addr)
        return self.drain_writes()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _check_data_addr(self, addr: int) -> None:
        if not self.layout.is_protected_data(addr):
            raise ValueError(
                f"address {addr:#x} outside protected data region "
                f"(size {self.layout.data_size:#x})"
            )

    def _coerce_data(self, block: int, data: bytes | None) -> bytes:
        if data is None:
            return self._plain.get(block, bytes(BLOCK_SIZE))
        if len(data) > BLOCK_SIZE:
            raise ValueError("data exceeds one block")
        return bytes(data) + bytes(BLOCK_SIZE - len(data))

    def _handle_writebacks(self, writebacks: list[int]) -> None:
        for writeback in writebacks:
            self._enqueue_data_writeback(writeback)

    def _enqueue_data_writeback(self, block: int) -> None:
        self.mee.write_data(
            block, self._plain.get(block, bytes(BLOCK_SIZE)), self.cycle
        )

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
        return self._plain.get(block_address(addr), bytes(BLOCK_SIZE))

    @property
    def metadata_cache(self):
        return self.mee.meta_cache

    @property
    def tree_metadata_cache(self):
        """The tree-node cache (same object unless split_metadata_caches)."""
        return self.mee.tree_cache
