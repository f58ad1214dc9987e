"""Batch-vs-scalar equivalence properties of the access-batch API.

``SecureProcessor.run_batch`` must be indistinguishable from replaying
the same operations through the scalar calls: identical cache state,
counter values, cycle counts, per-op results, trace events and per-leg
cycle attributions (docs/architecture.md, "Functional/timing split &
batching").  These tests drive seeded random access vectors through a
pair of identically configured machines — one scalar, one batched —
across every preset x defense combination, with and without instruments
attached.
"""

from dataclasses import replace
from random import Random

import pytest

from repro.config import DEFENSES, PAGE_SIZE
from repro.faults import FaultHook
from repro.os import PageAllocator, Process
from repro.perf import CycleAttributor
from repro.proc import AccessBatch, SecureProcessor
from repro.proc.processor import AccessResult
from repro.sgx.enclave import Enclave
from repro.synth.runner import synth_config
from repro.trace import Tracer

PRESETS = ("sct", "ht", "sgx")


def _machine(preset: str, defense: str = "none") -> SecureProcessor:
    # synth_config: functional crypto off, jitter-free timer — the same
    # reproducible machine the synthesis oracle runs on.
    return SecureProcessor(synth_config(preset, defense))


def _op_vector(proc: SecureProcessor, seed: int, ops: int = 160):
    """A seeded mixed op vector hitting every batch op kind."""
    rng = Random(seed)
    addrs = [
        page * PAGE_SIZE + 64 * rng.randrange(PAGE_SIZE // 64)
        for page in range(12)
        for _ in range(3)
    ]
    cores = proc.config.cores
    vector = []
    for i in range(ops):
        addr = rng.choice(addrs)
        roll = rng.random()
        core = rng.randrange(cores)
        if roll < 0.55:
            vector.append(("read", addr, None, core))
        elif roll < 0.75:
            vector.append(("write", addr, i.to_bytes(4, "little"), core))
        elif roll < 0.85:
            vector.append(("write_through", addr, b"p", core))
        elif roll < 0.95:
            vector.append(("flush", addr, None, 0))
        else:
            vector.append(("drain", None, None, 0))
    return vector


def _as_batch(vector) -> AccessBatch:
    batch = AccessBatch()
    for kind, addr, data, core in vector:
        if kind == "read":
            batch.read(addr, core=core)
        elif kind == "write":
            batch.write(addr, data, core=core)
        elif kind == "write_through":
            batch.write_through(addr, data, core=core)
        elif kind == "flush":
            batch.flush(addr)
        else:
            batch.drain()
    return batch


def _run_scalar(proc: SecureProcessor, vector):
    results = []
    for kind, addr, data, core in vector:
        if kind == "read":
            results.append(proc.read(addr, core=core))
        elif kind == "write":
            results.append(proc.write(addr, data, core=core))
        elif kind == "write_through":
            results.append(proc.write_through(addr, data, core=core))
        elif kind == "flush":
            results.append(proc.flush(addr))
        else:
            results.append(proc.drain_writes())
    return results


def _cache_states(proc: SecureProcessor):
    """Full functional cache state of the machine, eviction-order exact."""
    state = {}
    for i, core in enumerate(proc.caches.core_caches):
        state[f"core{i}.l1"] = core.l1.state_snapshot()
        state[f"core{i}.l2"] = core.l2.state_snapshot()
    for s, l3 in enumerate(proc.caches.l3s):
        state[f"l3.socket{s}"] = l3.state_snapshot()
    state["meta"] = proc.mee.meta_cache.state_snapshot()
    if proc.mee.tree_cache is not proc.mee.meta_cache:
        state["tree"] = proc.mee.tree_cache.state_snapshot()
    return state


def _assert_equivalent(scalar_proc, scalar_results, batch_proc, batch_result):
    assert batch_proc.cycle == scalar_proc.cycle
    assert batch_proc.registry.snapshot() == scalar_proc.registry.snapshot()
    assert _cache_states(batch_proc) == _cache_states(scalar_proc)
    assert len(batch_result.results) == len(scalar_results)
    for got, want in zip(batch_result.results, scalar_results):
        assert got == want


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("defense", DEFENSES)
    def test_uninstrumented(self, preset, defense):
        """Same state, counters, cycles and results on bare machines."""
        scalar_proc = _machine(preset, defense)
        batch_proc = _machine(preset, defense)
        seed = 100 * PRESETS.index(preset) + list(DEFENSES).index(defense)
        vector = _op_vector(scalar_proc, seed=seed)
        scalar_results = _run_scalar(scalar_proc, vector)
        batch_result = batch_proc.run_batch(_as_batch(vector))
        _assert_equivalent(
            scalar_proc, scalar_results, batch_proc, batch_result
        )

    @pytest.mark.parametrize("replacement", ["plru", "random"])
    def test_way_slot_l1(self, replacement):
        """L1 hits on way-slot sets (PLRU/RANDOM) match the scalar path."""

        def machine():
            config = synth_config("sct")
            return SecureProcessor(replace(
                config, l1=replace(config.l1, replacement=replacement)
            ))

        scalar_proc, batch_proc = machine(), machine()
        vector = _op_vector(scalar_proc, seed=53)
        scalar_results = _run_scalar(scalar_proc, vector)
        batch_result = batch_proc.run_batch(_as_batch(vector))
        _assert_equivalent(
            scalar_proc, scalar_results, batch_proc, batch_result
        )
        assert batch_proc.registry.get("core0.l1.hits") > 0

    @pytest.mark.parametrize("warm", [True, False], ids=["l1_hit", "miss"])
    def test_oversized_write_rejected_uncounted(self, warm):
        """A write of more than one block raises before it is counted or
        reaches a cache, batched or not."""
        scalar_proc, batch_proc = _machine("sct"), _machine("sct")
        addr = 5 * PAGE_SIZE
        if warm:
            scalar_proc.read(addr)
            batch_proc.read(addr)
        before = _cache_states(batch_proc)
        with pytest.raises(ValueError):
            scalar_proc.write(addr, bytes(65))
        with pytest.raises(ValueError):
            batch_proc.run_batch(AccessBatch().write(addr, bytes(65)))
        assert batch_proc.registry.get("proc.writes") == 0
        assert batch_proc.cycle == scalar_proc.cycle
        assert batch_proc.registry.snapshot() == scalar_proc.registry.snapshot()
        assert _cache_states(batch_proc) == _cache_states(scalar_proc) == before

    @pytest.mark.parametrize("preset", PRESETS)
    def test_read_sequence_matches_read_loop(self, preset):
        scalar_proc = _machine(preset)
        batch_proc = _machine(preset)
        rng = Random(7)
        addrs = [rng.randrange(48) * PAGE_SIZE for _ in range(96)]
        scalar_results = [scalar_proc.read(addr, core=1) for addr in addrs]
        batch = AccessBatch()
        for addr in addrs:
            batch.read(addr, core=1)
        batch_result = batch_proc.run_batch(batch)
        assert batch_result.read_latencies() == [
            result.latency for result in scalar_results
        ]
        assert batch_result.results == scalar_results
        assert batch_proc.cycle == scalar_proc.cycle
        assert _cache_states(batch_proc) == _cache_states(scalar_proc)

    def test_traced_event_streams_identical(self):
        """With a tracer attached both paths emit the same event stream."""
        scalar_proc = _machine("sct")
        batch_proc = _machine("sct")
        scalar_tracer, batch_tracer = Tracer(), Tracer()
        scalar_proc.attach(scalar_tracer)
        batch_proc.attach(batch_tracer)
        vector = _op_vector(scalar_proc, seed=11)
        scalar_results = _run_scalar(scalar_proc, vector)
        batch_result = batch_proc.run_batch(_as_batch(vector))
        _assert_equivalent(
            scalar_proc, scalar_results, batch_proc, batch_result
        )
        assert batch_tracer.events() == scalar_tracer.events()

    def test_profiled_leg_attributions_identical(self):
        """Per-leg cycle breakdowns match under the cycle attributor."""
        scalar_proc = _machine("sct")
        batch_proc = _machine("sct")
        scalar_proc.attach(CycleAttributor())
        batch_proc.attach(CycleAttributor())
        vector = _op_vector(scalar_proc, seed=23)
        scalar_results = _run_scalar(scalar_proc, vector)
        batch_result = batch_proc.run_batch(_as_batch(vector))
        _assert_equivalent(
            scalar_proc, scalar_results, batch_proc, batch_result
        )
        for got, want in zip(batch_result.results, scalar_results):
            if hasattr(want, "breakdown"):
                assert got.breakdown == want.breakdown

    def test_fault_hook_observes_identical_stream(self):
        """A recording fault hook sees the same callbacks either way."""

        class RecordingHook(FaultHook):
            def __init__(self):
                self.calls = []

            def on_meta_fetch(self, kind, level, index):
                self.calls.append(("meta", kind, level, index))

            def on_write_drain(self, entries):
                self.calls.append(("drain", [entry.addr for entry in entries]))
                return entries

        scalar_proc = _machine("sct")
        batch_proc = _machine("sct")
        scalar_hook, batch_hook = RecordingHook(), RecordingHook()
        scalar_proc.attach(scalar_hook)
        batch_proc.attach(batch_hook)
        vector = _op_vector(scalar_proc, seed=31)
        scalar_results = _run_scalar(scalar_proc, vector)
        batch_result = batch_proc.run_batch(_as_batch(vector))
        _assert_equivalent(
            scalar_proc, scalar_results, batch_proc, batch_result
        )
        assert batch_hook.calls == scalar_hook.calls
        assert {call[0] for call in scalar_hook.calls} == {"meta", "drain"}

    def test_interleaved_scalar_and_batch(self):
        """Batches compose with scalar calls on the same machine."""
        reference = _machine("ht")
        mixed = _machine("ht")
        vector = _op_vector(reference, seed=43, ops=120)
        _run_scalar(reference, vector)
        # Same vector, split: first third scalar, middle batched, rest scalar.
        third = len(vector) // 3
        _run_scalar(mixed, vector[:third])
        mixed.run_batch(_as_batch(vector[third : 2 * third]))
        _run_scalar(mixed, vector[2 * third :])
        assert mixed.cycle == reference.cycle
        assert mixed.registry.snapshot() == reference.registry.snapshot()
        assert _cache_states(mixed) == _cache_states(reference)


def _process_run(make_process, preset: str, seed: int, batched: bool):
    """Drive one seeded op list through a process on a fresh traced
    machine, call by call or as one ``process.batch()``.

    Returns the machine, its tracer and the ``AccessResult`` of every
    read and write (the ops a process call returns a result for).
    """
    proc = _machine(preset)
    tracer = Tracer()
    proc.attach(tracer)
    allocator = PageAllocator(
        proc.layout.data_size // PAGE_SIZE, cores=proc.config.cores
    )
    process = make_process(proc, allocator)
    base = process.alloc(8)
    rng = Random(seed)
    ops = []
    for i in range(120):
        vaddr = base + rng.randrange(8 * PAGE_SIZE // 64) * 64
        roll = rng.random()
        if roll < 0.6:
            ops.append(("read", vaddr, ()))
        elif roll < 0.85:
            ops.append(("write", vaddr, (i.to_bytes(2, "little"),)))
        else:
            ops.append(("flush", vaddr, ()))
    target = process.batch() if batched else process
    results = [getattr(target, kind)(vaddr, *data) for kind, vaddr, data in ops]
    if batched:
        results = list(target.run())
    return proc, tracer, [r for r in results if isinstance(r, AccessResult)]


_PROCESSES = {
    "plain": ("sct", lambda proc, alloc: Process(proc, alloc, core=1)),
    "cleansed": (
        "sct", lambda proc, alloc: Process(proc, alloc, core=1, cleanse=True)
    ),
    "enclave": ("sgx", lambda proc, alloc: Enclave(proc, alloc)),
}


class TestProcessBatch:
    @pytest.mark.parametrize("name", list(_PROCESSES))
    def test_scalar_calls_match_process_batch(self, name):
        """A process's ``read``/``write``/``flush`` calls and the same ops
        recorded on ``process.batch()`` apply the same cleanse rule: same
        results, cycle, tallies and trace events."""
        preset, make_process = _PROCESSES[name]
        scalar = _process_run(make_process, preset, 61, batched=False)
        batched = _process_run(make_process, preset, 61, batched=True)
        scalar_proc, scalar_tracer, scalar_results = scalar
        batch_proc, batch_tracer, batch_results = batched
        assert len(scalar_results) > 80
        assert batch_results == scalar_results
        assert batch_proc.cycle == scalar_proc.cycle
        assert batch_proc.registry.snapshot() == scalar_proc.registry.snapshot()
        assert batch_tracer.events() == scalar_tracer.events()
