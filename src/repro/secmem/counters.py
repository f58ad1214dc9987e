"""Encryption-counter schemes with Algorithm-1 overflow handling (VUL-1).

Three organisations from Section IV-A / Figure 3:

* **GC** — one global counter; per-block snapshots stored as metadata.
  Global overflow forces whole-memory re-encryption under a new key.
* **MoC** — one monolithic counter per block; overflow still re-encrypts
  all of memory (key change).
* **SC** — per-page 64-bit major + per-block 7-bit minors.  A minor
  overflow increments the shared major and re-encrypts only that page's
  counter-sharing group.

``increment`` returns a :class:`CounterEvent` describing exactly which data
blocks must be re-encrypted, and with which old/new counter values — the
memory encryption engine turns that into functional re-encryption plus a
long bank-occupying burst (the VUL-1 timing signal).

The store is a purely *functional* component (docs/architecture.md):
:meth:`EncryptionCounterStore.decompose` is the pure address step mapping
a data block to its (counter-block, slot) coordinates, ``increment`` is
the ``apply`` state transition, and no latency lives here — the engine
charges all counter-path cycles from its own timing tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import CounterConfig, CounterScheme
from repro.core import Component
from repro.secmem.layout import MetadataLayout


@dataclass(frozen=True)
class CounterEvent:
    """Result of bumping a block's write counter.

    ``reencrypt`` maps data-block index -> (old_counter, new_counter) for
    every block that must be re-encrypted due to an overflow (empty when no
    overflow occurred).  ``new_counter`` is the value to encrypt the
    currently-written block with.
    """

    block_index: int
    new_counter: int
    overflowed: bool = False
    reencrypt: dict[int, tuple[int, int]] = field(default_factory=dict)
    key_epoch: int = 0


@dataclass
class _SplitCounterBlock:
    major: int = 0
    minors: list[int] = field(default_factory=list)


class EncryptionCounterStore(Component):
    """Sparse store of encryption counters for the protected region."""

    def __init__(self, config: CounterConfig, layout: MetadataLayout) -> None:
        self.config = config
        self.layout = layout
        self.scheme = config.scheme
        # SC state: counter-block index -> (major, minors)
        self._split: dict[int, _SplitCounterBlock] = {}
        # MoC state: data-block index -> counter
        self._mono: dict[int, int] = {}
        # GC state: one counter + per-block snapshots
        self._global_counter = 0
        self._snapshots: dict[int, int] = {}
        # Blocks that have ever been written (the only ones that can need
        # re-encryption; everything else still holds its initial pad).
        self._written: set[int] = set()
        self.key_epoch = 0
        self.overflows = 0
        # The tracer slot is created detached by the component graph.
        self.init_component("counters")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def decompose(self, block: int) -> tuple[int, int]:
        """Pure address step: (counter-block index, slot) of a data block."""
        per_cb = self.layout.blocks_per_counter_block
        return block // per_cb, block % per_cb

    def _split_block(self, cb_index: int) -> _SplitCounterBlock:
        state = self._split.get(cb_index)
        if state is None:
            state = _SplitCounterBlock(
                major=0, minors=[0] * self.layout.blocks_per_counter_block
            )
            self._split[cb_index] = state
        return state

    def fused(self, major: int, minor: int) -> int:
        """Combine major and minor into the seed counter (SC mode)."""
        return (major << self.config.minor_bits) | minor

    def current(self, block: int) -> int:
        """Counter value a block's ciphertext is currently encrypted under."""
        if self.scheme is CounterScheme.SPLIT:
            cb_index, slot = self.decompose(block)
            state = self._split_block(cb_index)
            return self.fused(state.major, state.minors[slot])
        if self.scheme is CounterScheme.MONOLITHIC:
            return self._mono.get(block, 0)
        return self._snapshots.get(block, 0)

    def split_state(self, cb_index: int) -> tuple[int, tuple[int, ...]]:
        """(major, minors) of one counter block — the memory-resident image."""
        if self.scheme is not CounterScheme.SPLIT:
            raise ValueError("split_state only meaningful in SC mode")
        state = self._split_block(cb_index)
        return state.major, tuple(state.minors)

    def counter_block_image(self, cb_index: int) -> tuple[int, ...]:
        """Canonical tuple of the counter block's content, any scheme.

        Used for hashing/MACing the counter block and by tamper tests.
        """
        if self.scheme is CounterScheme.SPLIT:
            state = self._split_block(cb_index)
            return (state.major, *state.minors)
        blocks = self.layout.data_blocks_of_counter_block(cb_index)
        if self.scheme is CounterScheme.MONOLITHIC:
            return tuple(self._mono.get(b, 0) for b in blocks)
        return tuple(self._snapshots.get(b, 0) for b in blocks)

    # ------------------------------------------------------------------
    # Algorithm 1: increment with overflow handling
    # ------------------------------------------------------------------

    def increment(self, block: int) -> CounterEvent:
        """Bump the write counter for ``block`` (one serviced write)."""
        self._written.add(block)
        if self.scheme is CounterScheme.SPLIT:
            return self._increment_split(block)
        if self.scheme is CounterScheme.MONOLITHIC:
            return self._increment_monolithic(block)
        return self._increment_global(block)

    def _increment_split(self, block: int) -> CounterEvent:
        cb_index, slot = self.decompose(block)
        state = self._split_block(cb_index)
        if state.minors[slot] < self.config.minor_max:
            state.minors[slot] += 1
            return CounterEvent(
                block_index=block,
                new_counter=self.fused(state.major, state.minors[slot]),
                key_epoch=self.key_epoch,
            )
        # Minor overflow: increment the shared major, reset every minor,
        # re-encrypt the whole counter-sharing group (one page).
        self.overflows += 1
        old_major = state.major
        old_minors = list(state.minors)
        state.major += 1
        state.minors = [0] * len(state.minors)
        state.minors[slot] = 1
        reencrypt: dict[int, tuple[int, int]] = {}
        first_block = cb_index * self.layout.blocks_per_counter_block
        for offset, old_minor in enumerate(old_minors):
            group_block = first_block + offset
            if group_block == block or group_block not in self._written:
                continue
            reencrypt[group_block] = (
                self.fused(old_major, old_minor),
                self.fused(state.major, state.minors[offset]),
            )
        return CounterEvent(
            block_index=block,
            new_counter=self.fused(state.major, state.minors[slot]),
            overflowed=True,
            reencrypt=reencrypt,
            key_epoch=self.key_epoch,
        )

    def _increment_monolithic(self, block: int) -> CounterEvent:
        limit = (1 << self.config.monolithic_bits) - 1
        value = self._mono.get(block, 0)
        if value < limit:
            self._mono[block] = value + 1
            return CounterEvent(
                block_index=block, new_counter=value + 1, key_epoch=self.key_epoch
            )
        # Monolithic overflow: key change + whole-memory re-encryption.
        self.overflows += 1
        self.key_epoch += 1
        reencrypt = {
            b: (self._mono.get(b, 0), self._mono.get(b, 0))
            for b in self._written
            if b != block
        }
        self._mono[block] = 0
        return CounterEvent(
            block_index=block,
            new_counter=0,
            overflowed=True,
            reencrypt=reencrypt,
            key_epoch=self.key_epoch,
        )

    def _increment_global(self, block: int) -> CounterEvent:
        limit = (1 << self.config.monolithic_bits) - 1
        if self._global_counter < limit:
            self._global_counter += 1
            self._snapshots[block] = self._global_counter
            return CounterEvent(
                block_index=block,
                new_counter=self._global_counter,
                key_epoch=self.key_epoch,
            )
        self.overflows += 1
        self.key_epoch += 1
        self._global_counter = 1
        reencrypt = {
            b: (self._snapshots.get(b, 0), self._snapshots.get(b, 0))
            for b in self._written
            if b != block
        }
        self._snapshots = {b: 1 for b in self._written}
        return CounterEvent(
            block_index=block,
            new_counter=1,
            overflowed=True,
            reencrypt=reencrypt,
            key_epoch=self.key_epoch,
        )

    # ------------------------------------------------------------------
    # Tamper API (integration tests only)
    # ------------------------------------------------------------------

    def tamper_split_minor(self, cb_index: int, slot: int, value: int) -> None:
        """Directly corrupt a stored minor counter, bypassing re-hash."""
        if self.scheme is not CounterScheme.SPLIT:
            raise ValueError("tamper_split_minor requires SC mode")
        self._split_block(cb_index).minors[slot] = value

    def tamper_counter(self, block: int, value: int) -> int:
        """Corrupt the DRAM-resident counter state of one data block.

        Scheme-generic (SC: the block's minor; MoC: its counter; GC: its
        snapshot); bypasses all hashing, exactly like an off-chip bit
        flip.  Returns the previous value so fault campaigns can restore
        the state after checking detection.
        """
        if self.scheme is CounterScheme.SPLIT:
            cb_index, slot = self.decompose(block)
            state = self._split_block(cb_index)
            old = state.minors[slot]
            state.minors[slot] = value
            return old
        if self.scheme is CounterScheme.MONOLITHIC:
            old = self._mono.get(block, 0)
            self._mono[block] = value
            return old
        old = self._snapshots.get(block, 0)
        self._snapshots[block] = value
        return old
