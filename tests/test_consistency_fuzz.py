"""Stateful fuzzing: the secure processor is always a correct memory.

Whatever interleaving of reads, writes, flushes, drains and metadata-cache
cleanses occurs — across cores, with counters overflowing and trees
re-hashing underneath — every read must return the last architecturally
written value.  Hypothesis drives random operation sequences against a
plain dict reference model.
"""

import pytest
from hypothesis import given, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.config import MIB, TreeUpdatePolicy, preset_config
from repro.proc import SecureProcessor
from repro.secmem.engine import IntegrityViolation

_BLOCKS = 24  # distinct blocks under test, spread across pages
_PAGES = 6


def _addr(block_id: int) -> int:
    page = block_id % _PAGES
    offset = (block_id // _PAGES) * 64
    return page * 4096 + offset


class SecureMemoryMachine(RuleBasedStateMachine):
    """Random ops vs a reference dict."""

    def __init__(self):
        super().__init__()
        self.proc = None
        self.reference = {}

    @initialize(
        policy=st.sampled_from([TreeUpdatePolicy.LAZY, TreeUpdatePolicy.EAGER]),
        minor_bits=st.sampled_from([3, 7]),
    )
    def setup(self, policy, minor_bits):
        from repro.config import CounterConfig, CounterScheme

        config = preset_config(
            "sct",
            protected_size=16 * MIB,
            tree_update_policy=policy,
            counters=CounterConfig(scheme=CounterScheme.SPLIT, minor_bits=minor_bits),
        )
        self.proc = SecureProcessor(config)
        self.reference = {}

    blocks = st.integers(min_value=0, max_value=_BLOCKS - 1)
    cores = st.integers(min_value=0, max_value=3)
    payloads = st.binary(min_size=1, max_size=16)

    @rule(block=blocks, payload=payloads, core=cores)
    def cached_write(self, block, payload, core):
        self.proc.write(_addr(block), payload, core=core)
        self.reference[block] = payload

    @rule(block=blocks, payload=payloads, core=cores)
    def persistent_write(self, block, payload, core):
        self.proc.write_through(_addr(block), payload, core=core)
        self.reference[block] = payload

    @rule(block=blocks, core=cores)
    def read_and_check(self, block, core):
        data = self.proc.read(_addr(block), core=core).data
        expected = self.reference.get(block, b"")
        assert data[: len(expected)] == expected
        assert data[len(expected) :] == bytes(64 - len(expected))

    @rule(block=blocks)
    def flush(self, block):
        self.proc.flush(_addr(block))

    @rule()
    def drain(self):
        self.proc.drain_writes()

    @rule()
    def cleanse_metadata(self):
        self.proc.mee.flush_metadata_cache(self.proc.cycle)

    @rule()
    def idle(self):
        self.proc.advance(1000)

    @invariant()
    def clock_monotone(self):
        if self.proc is not None:
            assert self.proc.cycle >= 0


TestSecureMemoryConsistency = SecureMemoryMachine.TestCase
TestSecureMemoryConsistency.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)


# ----------------------------------------------------------------------
# Tamper-detection property: any single-bit flip in a protected data
# block, its encryption counter, or any tree node on its verification
# path raises IntegrityViolation on the next (metadata-cold) read.
# ----------------------------------------------------------------------

_PRESETS = ("sct", "ht", "sgx")
# One prepared functional-crypto machine per preset, shared across
# examples: every flip below is undone, so the machine stays consistent.
_TAMPER_MACHINES = {}


def _tamper_machine(preset):
    if preset not in _TAMPER_MACHINES:
        config = preset_config(
            preset, protected_size=4 * MIB, functional_crypto=True
        )
        proc = SecureProcessor(config)
        addrs = []
        for page in range(6):
            addr = (1 + page * 29) * 4096
            proc.write_through(addr, b"tamper-%d" % page)
            addrs.append(addr)
        proc.drain_writes()
        proc.mee.flush_metadata_cache(proc.cycle)
        _TAMPER_MACHINES[preset] = (proc, addrs)
    return _TAMPER_MACHINES[preset]


def _cold_read(proc, addr):
    proc.flush(addr)
    proc.mee.flush_metadata_cache(proc.cycle)
    return proc.read(addr)


@settings(max_examples=60, deadline=None)
@given(
    preset=st.sampled_from(_PRESETS),
    kind=st.sampled_from(["data", "counter", "tree"]),
    data=st.data(),
)
def test_single_bit_flip_always_detected(preset, kind, data):
    proc, addrs = _tamper_machine(preset)
    addr = data.draw(st.sampled_from(addrs), label="addr")
    mee = proc.mee
    if kind == "data":
        bit = data.draw(st.integers(0, 511), label="bit")
        undo = lambda: mee.tamper_flip_data_bit(addr, bit)  # involution
        mee.tamper_flip_data_bit(addr, bit)
    elif kind == "counter":
        block = addr // 64
        bit = data.draw(st.integers(0, 31), label="bit")
        old = mee.counters.tamper_counter(block, 0)
        mee.counters.tamper_counter(block, old ^ (1 << bit))
        undo = lambda: mee.counters.tamper_counter(block, old)
    else:
        layout = proc.layout
        level = data.draw(
            st.integers(0, len(layout.levels) - 1), label="level"
        )
        index = layout.node_index(level, layout.counter_block_index(addr))
        slot = data.draw(
            st.integers(0, layout.levels[level].arity - 1), label="slot"
        )
        bit = data.draw(st.integers(0, 31), label="bit")
        old = mee.tree.tamper_node(level, index, slot, 0)
        mee.tree.tamper_node(level, index, slot, old ^ (1 << bit))
        undo = lambda: mee.tree.tamper_node(level, index, slot, old)
    try:
        with pytest.raises(IntegrityViolation):
            _cold_read(proc, addr)
    finally:
        undo()
    # No residue: the machine reads clean again after the undo.
    result = _cold_read(proc, addr)
    assert result.data[:7] == b"tamper-"
