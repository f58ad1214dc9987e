"""Tests for ``repro.core``: the component graph and per-access Txn.

Covers the structural invariants the refactor rests on (walk reaches
every component exactly once, attach is idempotent, detach restores the
zero-allocation fast path), the late-created-component regression
(per-domain integrity trees built after an attach still see the tracer
and fault hook), the ownership rule that keeps the machine graph acyclic
(a dropped machine is freed by reference counting, instruments and all),
and the source-scan guard that keeps instrument threading centralised in
``repro/core``.
"""

from __future__ import annotations

import gc
import pathlib
import re
import sys

import pytest

from repro.campaign import CampaignEngine, CampaignTask
from repro.config import DEFENSES, SecureProcessorConfig, preset_config
from repro.core import (
    FAULT_HOOK,
    KNOWN_SLOTS,
    PROFILER,
    Txn,
    attach,
    detach,
    slot_of,
    walk,
)
from repro.faults.hooks import FaultHook
from repro.leakcheck import run_leakcheck
from repro.perf import CycleAttributor
from repro.proc.processor import SecureProcessor
from repro.synth import compile_program, evaluate_program, generate_program
from repro.synth.runner import synth_config
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
        assert slot_of(Tracer()) == "tracer"
        assert slot_of(FaultHook()) == "fault_hook"
        assert slot_of(CycleAttributor()) == "profiler"
        with pytest.raises(ValueError):
            slot_of(object())

    def test_generic_attach_all_four_slots(self):
        proc = _machine()
        tracer, hook = Tracer(), FaultHook()
        profiler = CycleAttributor()
        for instrument in (tracer, hook, profiler):
            proc.attach(instrument)
        assert proc.tracer is tracer
        assert proc.mee.fault_hook is hook
        assert proc.profiler is profiler
        assert KNOWN_SLOTS == ("tracer", "fault_hook", "profiler")
        assert proc.instrument_slots == ("tracer", "profiler")

    def test_detach_restores_null_txn_fast_path(self):
        """Without a profiler ``_begin`` opens no transaction (None)."""
        proc = _machine()
        assert proc._begin("read", 0, 0) is None
        profiler = CycleAttributor()
        proc.attach(profiler)
        txn = proc._begin("read", 0, 0)
        assert isinstance(txn, Txn)
        detach(proc, PROFILER)
        assert proc._begin("read", 0, 0) is None
        assert proc.read(0).breakdown is None

    def test_engine_fault_hook_spares_data_caches(self):
        """FaultInjector semantics: only the two layers that dispatch a
        fault event — the MEE and the memory controller — have a
        ``fault_hook`` slot; caches, DRAM and the counter store do not."""
        proc = _machine()
        hook = FaultHook()
        assert proc.attach(hook) == 2
        holders = {
            component.component_name
            for component in walk(proc)
            if getattr(component, "fault_hook", None) is hook
        }
        assert holders == {"mee", "memctrl"}
        for component in (
            proc.caches.core_caches[0].l1, proc.caches.l3s[0],
            proc.mee.meta_cache, proc.memctrl.dram, proc.mee.counters,
        ):
            assert not hasattr(component, "fault_hook")
        detach(proc.mee, FAULT_HOOK)
        assert proc.mee.fault_hook is None
        assert proc.memctrl.fault_hook is None


# ----------------------------------------------------------------------
# Per-access transactions
# ----------------------------------------------------------------------


class TestTxn:
    def test_unprofiled_access_makes_no_txn_call(self):
        """Without a profiler no layer builds a Txn or calls into the
        transaction module, bare, traced or hooked: every attribution
        call sits behind ``txn is not None``."""
        txn_module = Txn.__init__.__code__.co_filename
        for instrument in ("bare", "tracer", "fault_hook"):
            proc = _machine()
            attached = _INSTRUMENTS[instrument]()
            if attached is not None:
                proc.attach(attached)
            calls: list[str] = []

            def watch(frame, event, arg):
                if event == "call" and frame.f_code.co_filename == txn_module:
                    calls.append(frame.f_code.co_name)

            previous = sys.getprofile()
            sys.setprofile(watch)
            try:
                _workload(proc)
                # A full miss on a fresh page: counter fetch, tree walk.
                result = proc.read(0x5000)
            finally:
                sys.setprofile(previous)
            assert calls == [], instrument
            assert result.breakdown is None

    def test_charge_prefixes_and_skips_zero(self):
        txn = Txn("read")
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
        """Every instrument but the profiler leaves the executor without
        a transaction: a traced or hooked access allocates no Txn."""
        proc = _machine()
        tracer = Tracer()
        for instrument in (tracer, FaultHook()):
            proc.attach(instrument)
        assert proc._begin("read", 0, 0) is None
        _workload(proc)
        assert proc.read(0x5000).breakdown is None
        # The processor still emits its own per-op events.
        assert ("proc", "read") in tracer.counts()

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


def _isolated_trees_machine() -> SecureProcessor:
    return SecureProcessor(preset_config(
        "sct", defense="isolated_trees", protected_size=4 << 20,
        functional_crypto=False,
    ))


class TestLateDomainTrees:
    def test_tree_built_after_attach_inherits_instruments(self):
        proc = _isolated_trees_machine()
        tracer = Tracer()
        proc.attach(tracer)
        hook = _RecordingHook()
        attach(proc.mee, hook)
        frame = 3
        proc.mee.set_page_domain(frame, 1)
        addr = frame * 4096
        proc.write_through(addr, b"x")
        proc.drain_writes()
        tree = proc.mee._domain_trees[1]
        assert tree is not proc.mee.tree
        assert tree.tracer is tracer
        # The new domain's metadata verification reached the MEE's hook.
        assert hook.meta_fetches
        # Forcing the dirty counter block out exercises the lazy bump on
        # the late-created tree, which must land on the shared tracer.
        tracer.clear()
        proc.mee.flush_metadata_cache(proc.cycle)
        kinds = {e.kind for e in tracer.events() if e.component == "tree"}
        assert kinds & {"bump_leaf", "bump_node"}

    def test_late_tree_without_instruments_stays_detached(self):
        proc = _isolated_trees_machine()
        proc.mee.set_page_domain(2, 1)
        proc.write(2 * 4096, b"x")
        assert proc.mee._domain_trees[1].tracer is None


# ----------------------------------------------------------------------
# Ownership: the machine graph is acyclic
# ----------------------------------------------------------------------

_INSTRUMENTS = {
    "bare": lambda: None,
    "tracer": Tracer,
    "profiler": CycleAttributor,
    "fault_hook": FaultHook,
}


def _cyclic_garbage(work) -> int:
    """How many objects only the cycle collector can free after
    ``work()`` has run and dropped everything it built."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        work()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestAcyclicMachines:
    """A dropped machine, with its instruments and the trace it holds, is
    freed by reference counting as soon as its last user lets go."""

    @pytest.mark.parametrize("instrument", sorted(_INSTRUMENTS))
    @pytest.mark.parametrize("defense", DEFENSES)
    @pytest.mark.parametrize("preset", ["sct", "ht", "sgx"])
    def test_machine_after_generated_program(self, preset, defense, instrument):
        spec = compile_program(generate_program(7))

        def work():
            proc = SecureProcessor(synth_config(preset, defense))
            attached = _INSTRUMENTS[instrument]()
            if attached is not None:
                proc.attach(attached)
            spec.run(proc, 1)

        assert _cyclic_garbage(work) == 0

    def test_machine_with_late_domain_tree(self):
        def work():
            proc = _isolated_trees_machine()
            proc.attach(Tracer())
            proc.mee.set_page_domain(3, 1)
            proc.write_through(3 * 4096, b"x")
            proc.drain_writes()
            assert len(proc.mee._domain_trees) == 2

        assert _cyclic_garbage(work) == 0

    def test_leakcheck_run(self):
        assert _cyclic_garbage(lambda: run_leakcheck("rsa")) == 0

    def test_oracle_evaluation(self):
        assert _cyclic_garbage(
            lambda: evaluate_program(program=generate_program(7))
        ) == 0

    def test_campaign_leakcheck_job(self):
        def work():
            engine = CampaignEngine(jobs=1, git_rev="test")
            batch = engine.run([CampaignTask(
                name="leakcheck_rsa_s0", fn=run_leakcheck,
                kwargs={"victim": "rsa", "seed": 0},
            )])
            assert batch.records[0].ok

        assert _cyclic_garbage(work) == 0


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
