"""Tests for the structured event bus (``repro.trace``)."""

import gc
import json

import pytest

from repro.config import DEFENSES, preset_config
from repro.core import TRACER, detach
from repro.proc import AccessBatch
from repro.proc.processor import SecureProcessor
from repro.synth import compile_program, generate_program, synth_config
from repro.trace import (
    Counter,
    CounterRegistry,
    Gauge,
    TraceEvent,
    Tracer,
    read_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


def _machine() -> SecureProcessor:
    return SecureProcessor(
        preset_config("sct", functional_crypto=False)
    )


def _exercise(proc: SecureProcessor, blocks: int = 24) -> None:
    for i in range(blocks):
        proc.write(i * 64, b"x")
    proc.drain_writes()
    for i in range(blocks):
        proc.read(i * 64)


def _traced_program(preset: str, defense: str, seed: int) -> Tracer:
    """The trace of one oracle side: a generated program on the machine
    the synthesis oracle builds, run under its first secret."""
    proc = SecureProcessor(synth_config(preset, defense))
    tracer = Tracer()
    proc.attach(tracer)
    spec = compile_program(generate_program(seed))
    spec.run(proc, spec.secrets(0)[0])
    return tracer


class TestTracer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_events_nondecreasing_cycle_order(self):
        proc = _machine()
        tracer = Tracer()
        proc.attach(tracer)
        _exercise(proc)
        events = tracer.events()
        assert events, "instrumented machine produced no events"
        assert all(a.cycle <= b.cycle for a, b in zip(events, events[1:]))

    def test_ring_drops_oldest_first(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.emit("c", "k", cycle=i)
        assert tracer.dropped == 6
        assert tracer.emitted == 10
        assert len(tracer) == 4
        # The survivors are the newest four, in emission order.
        assert [event.cycle for event in tracer.raw_events()] == [6, 7, 8, 9]

    def test_disabled_emits_nothing(self):
        proc = _machine()
        assert proc.tracer is None  # off by default
        _exercise(proc)
        tracer = Tracer()
        proc.attach(tracer)
        detach(proc, TRACER)
        _exercise(proc)
        assert len(tracer) == 0
        assert tracer.emitted == 0

    def test_attach_does_not_add_counters(self):
        proc = _machine()
        before = set(proc.registry.snapshot())
        proc.attach(Tracer())
        _exercise(proc)
        assert set(proc.registry.snapshot()) == before

    def test_traced_batch_serves_l1_hits_on_the_fast_path(self):
        """A traced batch over L1-resident lines records, per access, the
        L1 hit and then the processor read — nothing else."""
        proc = _machine()
        addrs = [i * 64 for i in range(4)]
        for addr in addrs:
            proc.read(addr)
        tracer = Tracer()
        proc.attach(tracer)
        batch = AccessBatch()
        for addr in addrs:
            batch.read(addr, core=0)
        proc.run_batch(batch)
        pairs = [
            (event.component, event.kind, event.addr)
            for event in tracer.raw_events()
        ]
        assert pairs == [
            entry
            for addr in addrs
            for entry in (("cache.L1", "hit", addr), ("proc", "read", addr))
        ]

    def test_clock_binding_stamps_component_events(self):
        proc = _machine()
        tracer = Tracer()
        proc.attach(tracer)
        proc.advance(1234)
        # A cache emits without cycle knowledge; the bound clock fills it in.
        proc.caches.core_caches[0].l1.lookup(0)
        assert tracer.raw_events()[-1].cycle >= 1234

    def test_tracer_outlives_its_machine(self):
        """The bound clock does not keep the machine alive.  Once the
        machine is gone its events stay readable, and only an emit that
        needs the clock fails."""
        proc = _machine()
        tracer = Tracer()
        proc.attach(tracer)
        _exercise(proc)
        recorded = tracer.events()
        del proc
        assert tracer.events() == recorded
        tracer.emit("c", "k", cycle=5)
        with pytest.raises(ReferenceError):
            tracer.emit("c", "k")
        assert len(tracer) == len(recorded) + 1

    def test_clear_resets_tallies(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.emit("c", "k", cycle=i)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.emitted == 0
        assert tracer.dropped == 0

    def test_streams_group_by_kind(self):
        tracer = Tracer()
        tracer.emit("a", "x", cycle=2)
        tracer.emit("a", "y", cycle=1)
        tracer.emit("a", "x", cycle=0)
        streams = tracer.streams()
        assert list(streams) == [("a", "x"), ("a", "y")]
        # Each stream is in cycle order, whatever the emission order.
        assert [record[0] for record in streams[("a", "x")]] == [0, 2]
        assert len(streams[("a", "y")]) == 1


class TestRecords:
    """The ring holds exact tuples; only read-out builds named events."""

    def test_records_are_exact_tuples_the_collector_untracks(self):
        tracer = _traced_program("sct", "none", 0)
        records = [
            record for stream in tracer.streams().values() for record in stream
        ]
        assert len(records) == len(tracer) > 0
        assert all(type(record) is tuple for record in records)
        gc.collect()
        # A tuple subclass instance is never untracked; an exact tuple of
        # scalars is, at the first collection that examines it.
        assert not any(gc.is_tracked(record) for record in records)
        assert all(type(event) is TraceEvent for event in tracer.events())
        assert all(type(event) is TraceEvent for event in tracer.raw_events())

    @pytest.mark.parametrize("defense", DEFENSES)
    @pytest.mark.parametrize("preset", ["sct", "ht", "sgx"])
    def test_streams_are_the_per_kind_split_of_events(self, preset, defense):
        for seed in range(3):
            tracer = _traced_program(preset, defense, seed)
            reference: dict[tuple[str, str], list[tuple]] = {}
            for event in tracer.events():
                key = event.component, event.kind
                reference.setdefault(key, []).append(tuple(event))
            streams = tracer.streams()
            assert streams == reference
            assert sorted(streams) == sorted(tracer.counts())


class TestCounterRegistry:
    def test_counter_and_gauge(self):
        registry = CounterRegistry()
        counter = registry.counter("hits")
        counter.value += 3
        counter.incr()
        gauge = registry.gauge("depth", lambda: 7)
        assert registry.snapshot() == {"hits": 4, "depth": 7}
        assert isinstance(counter, Counter)
        assert isinstance(gauge, Gauge)

    def test_counter_is_idempotent_per_name(self):
        registry = CounterRegistry()
        assert registry.counter("hits") is registry.counter("hits")

    def test_dotted_mounts_flatten(self):
        child = CounterRegistry()
        child.counter("hits").value = 2
        root = CounterRegistry()
        root.mount("core0.l1", child)
        assert root.snapshot() == {"core0.l1.hits": 2}
        assert root.get("core0.l1.hits") == 2
        assert "core0.l1.hits" in root
        assert "core0.l1.nope" not in root

    def test_name_collision_rejected(self):
        registry = CounterRegistry()
        registry.counter("hits")
        with pytest.raises(ValueError):
            registry.gauge("hits", lambda: 0)
        with pytest.raises(ValueError):
            registry.mount("hits", CounterRegistry())

    def test_remount_same_prefix_rejected(self):
        root = CounterRegistry()
        root.mount("memctrl", CounterRegistry())
        with pytest.raises(ValueError):
            root.mount("memctrl", CounterRegistry())

    def test_mount_prefix_colliding_with_counter_rejected(self):
        root = CounterRegistry()
        root.counter("hits")
        root.gauge("depth", lambda: 0)
        # Both the leaf segment and an intermediate segment of a dotted
        # prefix must reject counter/gauge name collisions.
        with pytest.raises(ValueError):
            root.mount("depth", CounterRegistry())
        with pytest.raises(ValueError):
            root.mount("hits.l1", CounterRegistry())

    def test_mount_must_not_graft_into_foreign_child(self):
        # Regression: a dotted mount used to recurse silently into a child
        # that a *component* had mounted as its own registry, rewiring that
        # component's tree from the outside.
        component = CounterRegistry()
        component.counter("hits").value = 5
        root = CounterRegistry()
        root.mount("l1", component)
        with pytest.raises(ValueError):
            root.mount("l1.extra", CounterRegistry())
        # The component registry is untouched by the failed mount.
        assert component.snapshot() == {"hits": 5}
        assert root.snapshot() == {"l1.hits": 5}

    def test_mount_may_reuse_its_own_intermediates(self):
        # core0 is created by the first dotted mount; the second mount may
        # recurse into it (this is how the processor mounts core0.l1/l2).
        root = CounterRegistry()
        root.mount("core0.l1", CounterRegistry())
        root.mount("core0.l2", CounterRegistry())
        with pytest.raises(ValueError):
            root.mount("core0.l1", CounterRegistry())

    def test_mount_self_rejected(self):
        registry = CounterRegistry()
        with pytest.raises(ValueError):
            registry.mount("loop", registry)

    def test_items_reports_kinds(self):
        child = CounterRegistry()
        child.counter("hits").value = 2
        root = CounterRegistry()
        root.counter("reads").value = 9
        root.gauge("depth", lambda: 3)
        root.mount("l1", child)
        assert sorted(root.items()) == [
            ("depth", "gauge", 3),
            ("l1.hits", "counter", 2),
            ("reads", "counter", 9),
        ]

    def test_machine_registry_mounts_component_registries(self):
        proc = _machine()
        _exercise(proc)
        snapshot = proc.registry.snapshot()
        mounts = {
            "proc": proc.counters,
            "mee": proc.mee.registry,
            "meta_cache": proc.mee.meta_cache.counters,
            "dram": proc.memctrl.dram.counters,
            "memctrl": proc.memctrl.counters,
            "core0.l1": proc.caches.core_caches[0].l1.counters,
        }
        for prefix, registry in mounts.items():
            for name, value in registry.snapshot().items():
                assert snapshot[f"{prefix}.{name}"] == value
        assert snapshot["proc.reads"] > 0
        assert snapshot["mee.reads"] > 0


class TestExport:
    def _sample_events(self) -> list[TraceEvent]:
        proc = _machine()
        tracer = Tracer()
        proc.attach(tracer)
        _exercise(proc, blocks=8)
        return tracer.events()

    def test_jsonl_round_trip(self, tmp_path):
        events = self._sample_events()
        path = tmp_path / "trace.jsonl"
        written = write_jsonl(events, path)
        assert written == len(events)
        assert read_jsonl(path) == events

    def test_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"cycle": 1, "component": "a", "kind": "k"}\nnot json\n')
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_jsonl_absent_optional_fields_take_defaults(self, tmp_path):
        path = tmp_path / "minimal.jsonl"
        path.write_text('{"cycle": 1, "component": "a", "kind": "k"}\n')
        (event,) = read_jsonl(path)
        assert event == TraceEvent(cycle=1, component="a", kind="k")
        assert event.core == -1
        (record,) = [r for r in to_chrome_trace([event])["traceEvents"]
                     if r["ph"] != "M"]
        assert record["tid"] == 0
        assert record["ph"] == "i"

    @pytest.mark.parametrize("missing", ["cycle", "component", "kind"])
    def test_jsonl_missing_required_field_names_line(self, tmp_path, missing):
        payload = {"cycle": 1, "component": "a", "kind": "k"}
        del payload[missing]
        path = tmp_path / "partial.jsonl"
        path.write_text(
            '{"cycle": 0, "component": "a", "kind": "k"}\n'
            + json.dumps(payload) + "\n"
        )
        with pytest.raises(ValueError, match=f"partial.jsonl:2: .*{missing}"):
            read_jsonl(path)

    def test_chrome_trace_structure(self, tmp_path):
        events = self._sample_events()
        doc = to_chrome_trace(events)
        records = doc["traceEvents"]
        metadata = [r for r in records if r["ph"] == "M"]
        slices = [r for r in records if r["ph"] == "X"]
        instants = [r for r in records if r["ph"] == "i"]
        assert metadata and (slices or instants)
        assert len(records) == len(metadata) + len(slices) + len(instants)
        for record in slices:
            assert record["dur"] >= 0
        path = tmp_path / "trace.json"
        write_chrome_trace(events, path)
        assert json.loads(path.read_text())["traceEvents"]


class TestTraceEvent:
    def test_emit_fills_fields_in_order(self):
        tracer = Tracer()
        tracer.emit("c", "k", cycle=3, core=1, addr=64, set_index=2,
                    level=0, value=1.5)
        tracer.emit("c", "k", cycle=4)
        full, bare = tracer.events()
        assert list(full.to_dict().items()) == [
            ("cycle", 3), ("component", "c"), ("kind", "k"), ("core", 1),
            ("addr", 64), ("set_index", 2), ("level", 0), ("value", 1.5),
        ]
        assert tuple(bare) == (4, "c", "k", -1, None, None, None, None)
        assert TraceEvent.from_dict(full.to_dict()) == full

    def test_hashable_and_immutable(self):
        event = TraceEvent(1, "a", "k", addr=0x40, value=2.0)
        same = TraceEvent.from_dict(event.to_dict())
        assert same == event
        assert hash(same) == hash(event)
        assert len({event, same}) == 1
        with pytest.raises(AttributeError):
            event.cycle = 2
