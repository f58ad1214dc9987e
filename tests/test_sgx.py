"""Tests for the SGX machine model: enclaves, SIT, SGX-Step."""

import pytest

from repro.config import MIB, preset_config
from repro.os import PageAllocator
from repro.proc import SecureProcessor
from repro.sgx import Enclave, SgxStep


@pytest.fixture()
def proc():
    return SecureProcessor(preset_config("sgx", protected_size=32 * MIB))


@pytest.fixture()
def allocator(proc):
    return PageAllocator.for_machine(proc)


class TestSgxMachine:
    """The ``sgx`` preset, with enclaves over an allocator of its EPC."""

    def test_preset_is_sit(self, proc):
        assert proc.config.tree.kind.value == "SIT"
        assert [g.arity for g in proc.layout.levels] == [8, 8, 8]

    def test_enclave_roundtrip(self, proc, allocator):
        enclave = Enclave(proc, allocator)
        base = enclave.alloc()
        enclave.write(base, b"enclave secret")
        assert enclave.read(base).data[:14] == b"enclave secret"

    def test_enclave_accesses_are_cleansed(self, proc, allocator):
        enclave = Enclave(proc, allocator)
        base = enclave.alloc()
        enclave.read(base)
        assert not enclave.read(base).path.is_cache_hit

    def test_os_controlled_frame_placement(self, proc, allocator):
        enclave = Enclave(proc, allocator)
        vaddr = enclave.load_page_at_frame(100)
        assert enclave.frame_of_vaddr(vaddr) == 100

    def test_sharing_sets_match_section8b(self, proc):
        layout = proc.layout
        assert len(layout.pages_sharing_node(20, 0)) == 1
        assert len(layout.pages_sharing_node(20, 1)) == 8
        assert len(layout.pages_sharing_node(20, 2)) == 64

    def test_colocation_through_placement(self, proc, allocator):
        """Attacker and victim pages end up under one L1 node block."""
        victim = Enclave(proc, allocator, name="victim")
        attacker = Enclave(proc, allocator, core=1, name="attacker")
        victim_vaddr = victim.load_page_at_frame(40)
        group = proc.layout.pages_sharing_node(40, 1)
        attacker_vaddr = attacker.load_page_at_frame(group.start + 1)
        layout = proc.layout
        assert layout.node_addr_for_data(victim.paddr(victim_vaddr), 1) == (
            layout.node_addr_for_data(attacker.paddr(attacker_vaddr), 1)
        )

    def test_sgx_latency_profile_wider_than_sct(self, proc, allocator):
        """Figure 7: the SIT walk is serial, stretching the range."""
        enclave = Enclave(proc, allocator)
        base = enclave.alloc()
        deep = enclave.read(base).latency  # all levels missed
        proc.quiesce()
        shallow = enclave.read(base).latency  # metadata now cached
        assert deep > shallow + 250


class TestSgxStep:
    def victim(self, n):
        for i in range(n):
            yield i
        return "done"

    def test_steps_and_payloads(self):
        stepper = SgxStep()
        stepper.run(self.victim(5))
        assert stepper.trace.steps == 5
        assert stepper.trace.payloads == [0, 1, 2, 3, 4]
        assert stepper.trace.interrupts == 5

    def test_probe_fires_per_interval(self):
        fired = []
        stepper = SgxStep(interval=2)
        stepper.run(self.victim(6), probe=lambda step, payload: fired.append(step))
        assert fired == [2, 4, 6]
        assert stepper.trace.interrupts == 3

    def test_before_step_hook(self):
        order = []
        stepper = SgxStep()
        stepper.run(
            self.victim(2),
            probe=lambda s, p: order.append(("probe", s)),
            before_step=lambda s, p: order.append(("pre", s)),
        )
        # A trailing before_step fires before discovering the victim is done
        # (the stepper cannot peek a generator) — harmless in practice.
        assert order == [
            ("pre", 0),
            ("probe", 1),
            ("pre", 1),
            ("probe", 2),
            ("pre", 2),
        ]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SgxStep(interval=0)

    def test_plain_iterable_supported(self):
        stepper = SgxStep()
        stepper.run([10, 20, 30])
        assert stepper.trace.payloads == [10, 20, 30]
