"""Tests for ``repro.core``: the component graph and per-access Txn.

Covers the structural invariants the refactor rests on (walk reaches
every component exactly once, attach is idempotent, detach restores the
zero-allocation fast path), the late-created-component regression
(per-domain integrity trees built after an attach still see the tracer
and fault hook), and the source-scan guard that keeps instrument
threading centralised in ``repro/core``.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.config import SecureProcessorConfig
from repro.core import (
    FAULT_HOOK,
    NULL_TXN,
    TRACER,
    Txn,
    attach,
    detach,
    slot_of,
    walk,
)
from repro.defenses import assign_domains, isolated_tree_config
from repro.faults.hooks import FaultHook
from repro.perf import CycleAttributor, MetricsSampler
from repro.proc.processor import SecureProcessor
from repro.trace import Tracer


def _machine() -> SecureProcessor:
    return SecureProcessor(
        SecureProcessorConfig.sct_default(functional_crypto=False)
    )


def _workload(proc: SecureProcessor, blocks: int = 16) -> None:
    for i in range(blocks):
        proc.write(i * 64, b"a")
    proc.drain_writes()
    for i in range(blocks):
        proc.read(i * 64)
    proc.flush(0)
    proc.read(0)
    proc.write_through(64, b"b")
    proc.drain_writes()


class _RecordingHook(FaultHook):
    def __init__(self) -> None:
        self.meta_fetches: list[tuple[str, int, int]] = []

    def on_meta_fetch(self, kind: str, level: int, index: int) -> None:
        self.meta_fetches.append((kind, level, index))


# ----------------------------------------------------------------------
# Component-graph invariants
# ----------------------------------------------------------------------


class TestComponentGraph:
    def test_walk_reaches_every_component_exactly_once(self):
        proc = _machine()
        nodes = list(walk(proc))
        assert len(nodes) == len({id(node) for node in nodes})
        names = {node.component_name for node in nodes}
        assert {"proc", "caches", "mee", "memctrl", "dram", "counters",
                "crypto", "tree"} <= names
        # Every cache in the machine is in the graph.
        for caches in proc.caches.core_caches:
            assert caches.l1 in nodes and caches.l2 in nodes
        for l3 in proc.caches.l3s:
            assert l3 in nodes
        assert proc.mee.meta_cache in nodes
        assert proc.memctrl.dram in nodes

    def test_attach_is_idempotent(self):
        proc = _machine()
        tracer = Tracer()
        first = proc.attach(tracer)
        second = proc.attach(tracer)
        assert first == second > 0
        assert proc.tracer is tracer
        assert proc.mee.meta_cache.tracer is tracer
        assert proc.memctrl.dram.tracer is tracer

    def test_slot_inference_for_all_instruments(self):
        proc = _machine()
        assert slot_of(Tracer()) == "tracer"
        assert slot_of(FaultHook()) == "fault_hook"
        assert slot_of(CycleAttributor()) == "profiler"
        assert slot_of(MetricsSampler(proc.registry)) == "sampler"
        with pytest.raises(ValueError):
            slot_of(object())

    def test_generic_attach_all_four_slots(self):
        proc = _machine()
        tracer, hook = Tracer(), FaultHook()
        profiler = CycleAttributor()
        sampler = MetricsSampler(proc.registry, every=100)
        for instrument in (tracer, hook, profiler, sampler):
            proc.attach(instrument)
        assert proc.tracer is tracer
        assert proc.mee.fault_hook is hook
        assert proc.profiler is profiler
        assert proc.sampler is sampler
        # The sampler took its initial snapshot on attach.
        assert sampler.samples

    def test_detach_restores_null_txn_fast_path(self):
        proc = _machine()
        assert proc._begin("read", 0, 0) is NULL_TXN
        tracer = Tracer()
        proc.attach(tracer)
        txn = proc._begin("read", 0, 0)
        assert txn is not NULL_TXN
        assert not txn.profiling  # tracer alone builds no parts dict
        detach(proc, TRACER)
        assert proc._begin("read", 0, 0) is NULL_TXN
        assert proc.read(0).breakdown is None

    def test_engine_fault_hook_spares_data_caches(self):
        """FaultInjector semantics: a hook attached at the MEE reaches the
        memory side only, so data-cache fills never dispatch
        ``on_cache_fill``."""
        proc = _machine()
        hook = FaultHook()
        attach(proc.mee, hook)
        assert proc.mee.fault_hook is hook
        assert proc.memctrl.fault_hook is hook
        assert proc.memctrl.dram.fault_hook is hook
        assert proc.mee.counters.fault_hook is hook
        assert proc.mee.meta_cache.fault_hook is hook
        assert proc.caches.core_caches[0].l1.fault_hook is None
        assert proc.caches.l3s[0].fault_hook is None
        detach(proc.mee, FAULT_HOOK)
        assert proc.mee.fault_hook is None
        assert proc.memctrl.dram.fault_hook is None


# ----------------------------------------------------------------------
# Per-access transactions
# ----------------------------------------------------------------------


class TestTxn:
    def test_null_txn_is_inert(self):
        NULL_TXN.charge("x", 5)
        NULL_TXN.emit("c", "k")
        NULL_TXN.fault("on_meta_fetch", "counter", 0, 0)
        assert NULL_TXN.leg("data.") is NULL_TXN
        assert NULL_TXN.parts is None
        assert not NULL_TXN.recording

    def test_charge_prefixes_and_skips_zero(self):
        txn = Txn("read", profiling=True)
        txn.charge("a", 3)
        txn.charge("a", 2)
        txn.charge("b", 0)
        assert txn.parts == {"a": 5}
        leg = txn.leg("meta.")
        leg.charge("queue", 7)
        assert leg.parts == {"meta.queue": 7}
        txn.absorb(leg)
        assert txn.parts == {"a": 5, "meta.queue": 7}
        other = txn.leg("data.")
        other.charge("service", 4)
        txn.shadow(other)
        assert txn.shadowed == {"data.service": 4}

    def test_not_profiling_builds_no_parts(self):
        txn = Txn("read", tracer=None, profiling=False)
        txn.charge("a", 3)
        assert txn.parts is None
        leg = txn.leg("meta.")
        # Nothing to accumulate, so no leg is allocated.
        assert leg is txn
        assert not leg.profiling

    def test_breakdown_conserved_through_txn(self):
        proc = _machine()
        profiler = CycleAttributor()
        proc.attach(profiler)
        _workload(proc)
        profiler.verify()
        result = proc.read(0x5000)
        assert result.breakdown is not None
        assert sum(result.breakdown.values()) == result.latency


# ----------------------------------------------------------------------
# Late-created components (per-domain trees)
# ----------------------------------------------------------------------


class TestLateDomainTrees:
    def test_tree_built_after_attach_inherits_instruments(self):
        proc = SecureProcessor(isolated_tree_config(protected_size=4 << 20))
        tracer = Tracer()
        proc.attach(tracer)
        hook = _RecordingHook()
        attach(proc.mee, hook)
        frame = 3
        assign_domains(proc, {1: [frame]})
        addr = frame * 4096
        proc.write_through(addr, b"x")
        proc.drain_writes()
        tree = proc.mee._domain_trees[1]
        assert tree is not proc.mee.tree
        assert tree.tracer is tracer
        assert tree.fault_hook is hook
        # The new domain's metadata verification reached the fault hook.
        assert hook.meta_fetches
        # Forcing the dirty counter block out exercises the lazy bump on
        # the late-created tree, which must land on the shared tracer.
        tracer.clear()
        proc.mee.flush_metadata_cache(proc.cycle)
        kinds = {e.kind for e in tracer.events() if e.component == "tree"}
        assert kinds & {"bump_leaf", "bump_node"}

    def test_late_tree_without_instruments_stays_detached(self):
        proc = SecureProcessor(isolated_tree_config(protected_size=4 << 20))
        assign_domains(proc, {1: [2]})
        proc.write(2 * 4096, b"x")
        assert proc.mee._domain_trees[1].tracer is None


# ----------------------------------------------------------------------
# Source-scan guard: no manual instrument threading outside repro/core
# ----------------------------------------------------------------------

_THREADING_GUARD = re.compile(r"\.(tracer|fault_hook)\s*=(?!=)")


def test_no_manual_instrument_threading_outside_core():
    """Instrument slots are assigned only by the component graph.

    The same scan runs in CI; if it trips, route the new wiring through
    ``repro.core.attach``/``adopt`` (or ``Component.init_component``)
    instead of assigning ``.tracer`` / ``.fault_hook`` by hand.
    """
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    core = src / "core"
    offenders: list[str] = []
    for path in sorted(src.rglob("*.py")):
        if core in path.parents:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if _THREADING_GUARD.search(line):
                offenders.append(
                    f"{path.relative_to(src)}:{lineno}: {line.strip()}"
                )
    assert not offenders, (
        "manual instrument threading outside repro/core:\n"
        + "\n".join(offenders)
    )
