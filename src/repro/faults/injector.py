"""Seeded fault injection against a live :class:`SecureProcessor`.

The injector is the privileged adversary of the paper's threat model made
executable: it flips bits in DRAM-resident ciphertext, MACs, encryption
counters and integrity-tree nodes, corrupts metadata-cache fills, and
drops or reorders memory-controller write-queue entries.  Every mutation
is deterministic (all randomness flows from one seed) and reversible —
each injection returns an undo handle — so a campaign can sweep hundreds
of sites on one machine instance, checking detection after each.

The injector *is* a :class:`~repro.faults.hooks.FaultHook`: armed faults
(corrupt-on-fill, queue perturbations) fire from the hook callbacks the
engine and the memory controller invoke, while direct state corruptions
apply immediately through the tamper APIs of the engine, counter store
and trees.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.core import FAULT_HOOK, attach, detach
from repro.faults.hooks import FaultHook
from repro.proc.processor import SecureProcessor
from repro.utils.rng import DeterministicRng, derive_rng


class FaultSite(enum.Enum):
    """Where a fault lands (Section IV's metadata taxonomy + the MC)."""

    DATA_BIT = "data-bit"  # ciphertext block in DRAM
    MAC_BIT = "mac-bit"  # stored MAC word
    COUNTER = "counter"  # encryption-counter state
    TREE_NODE = "tree-node"  # integrity-tree node block
    META_FILL = "meta-fill"  # counter corrupted on metadata-cache fill
    WQ_DROP = "wq-drop"  # write-queue entry lost before service
    WQ_REORDER = "wq-reorder"  # drain burst serviced out of order


# Corruptions of protected state: the integrity machinery MUST detect
# every one of these on the next read.  Queue faults perturb ordering /
# availability instead and are checked for graceful degradation.
PROTECTED_SITES = (
    FaultSite.DATA_BIT,
    FaultSite.MAC_BIT,
    FaultSite.COUNTER,
    FaultSite.TREE_NODE,
    FaultSite.META_FILL,
)
QUEUE_SITES = (FaultSite.WQ_DROP, FaultSite.WQ_REORDER)


@dataclass
class InjectionHandle:
    """One injected (or armed) fault and how to take it back."""

    site: FaultSite
    description: str
    fired: bool = True
    _undo: Callable[[], None] | None = None

    def undo(self) -> None:
        """Restore the corrupted state (or disarm an unfired fault)."""
        if self._undo is not None:
            self._undo()
            self._undo = None


class FaultInjector(FaultHook):
    """Deterministic fault-injection engine bound to one processor."""

    def __init__(self, proc: SecureProcessor, *, seed: int = 0) -> None:
        self.proc = proc
        self.mee = proc.mee
        self.rng: DeterministicRng = derive_rng(seed, "fault-injector")
        # Armed (deferred) faults, consumed by hook callbacks.
        self._meta_fill_faults: dict[int, InjectionHandle] = {}
        self._meta_fill_actions: dict[int, Callable[[], None]] = {}
        self._drop_blocks: dict[int, InjectionHandle] = {}
        self._reorder_next: InjectionHandle | None = None
        # Attached from the engine down: the MEE and its memory
        # controller are the two layers with a fault slot.
        attach(self.mee, self)

    def detach(self) -> None:
        """Unhook from every layer (armed faults are discarded)."""
        detach(self.mee, FAULT_HOOK)

    # ------------------------------------------------------------------
    # Immediate corruptions (DRAM-resident state)
    # ------------------------------------------------------------------

    def flip_data_bit(self, addr: int, bit: int | None = None) -> InjectionHandle:
        """Flip one ciphertext bit of the block at ``addr``."""
        if bit is None:
            bit = self.rng.randrange(8 * 64)
        self.mee.tamper_flip_data_bit(addr, bit)
        return InjectionHandle(
            site=FaultSite.DATA_BIT,
            description=f"data bit {bit} @ {addr:#x}",
            _undo=lambda: self.mee.tamper_flip_data_bit(addr, bit),
        )

    def flip_mac_bit(self, addr: int) -> InjectionHandle:
        """Flip one random bit of the stored MAC of the block at ``addr``."""
        bit = self.rng.randrange(8 * 8)
        self.mee.tamper_flip_mac_bit(addr, bit)
        return InjectionHandle(
            site=FaultSite.MAC_BIT,
            description=f"MAC bit {bit} @ {addr:#x}",
            _undo=lambda: self.mee.tamper_flip_mac_bit(addr, bit),
        )

    def corrupt_counter(self, block: int) -> InjectionHandle:
        """Raise the DRAM-resident encryption counter of a data block by a
        random 1..7."""
        delta = 1 + self.rng.randrange(7)
        counters = self.mee.counters
        old = counters.tamper_counter(block, 0)
        counters.tamper_counter(block, old + delta)
        return InjectionHandle(
            site=FaultSite.COUNTER,
            description=f"counter of block {block} += {delta}",
            _undo=lambda: counters.tamper_counter(block, old),
        )

    def corrupt_tree_node(self, level: int, index: int, slot: int) -> InjectionHandle:
        """Raise one stored word of an integrity-tree node block by a random
        1..7."""
        delta = 1 + self.rng.randrange(7)
        tree = self.mee.tree
        old = tree.tamper_node(level, index, slot, 0)
        tree.tamper_node(level, index, slot, old + delta)
        return InjectionHandle(
            site=FaultSite.TREE_NODE,
            description=f"tree L{level}[{index}] slot {slot} += {delta}",
            _undo=lambda: tree.tamper_node(level, index, slot, old),
        )

    # ------------------------------------------------------------------
    # Armed corruptions (fire from hook callbacks)
    # ------------------------------------------------------------------

    def arm_meta_fill_corruption(self, cb_index: int, block: int) -> InjectionHandle:
        """Raise ``block``'s counter by a random 1..7 the next time counter
        block ``cb_index`` is fetched from memory (a corrupted cache fill)."""
        delta = 1 + self.rng.randrange(7)
        counters = self.mee.counters
        handle = InjectionHandle(
            site=FaultSite.META_FILL,
            description=f"fill of counter block {cb_index} corrupts block {block}",
            fired=False,
        )
        undo_state: dict[str, int] = {}

        def apply() -> None:
            undo_state["old"] = counters.tamper_counter(block, 0)
            counters.tamper_counter(block, undo_state["old"] + delta)
            handle.fired = True

        def undo() -> None:
            self._meta_fill_faults.pop(cb_index, None)
            self._meta_fill_actions.pop(cb_index, None)
            if "old" in undo_state:
                counters.tamper_counter(block, undo_state["old"])

        handle._undo = undo
        self._meta_fill_faults[cb_index] = handle
        self._meta_fill_actions[cb_index] = apply
        return handle

    def arm_write_drop(self, addr: int) -> InjectionHandle:
        """Lose the pending write of ``addr`` at the next drain burst.

        Models a posted write dropped before it reaches the encryption
        pipeline: both the queue entry and the pending plaintext vanish,
        so the block silently keeps its previous architectural value.
        """
        block = addr - addr % 64
        handle = InjectionHandle(
            site=FaultSite.WQ_DROP,
            description=f"drop queued write @ {block:#x}",
            fired=False,
            _undo=lambda: self._drop_blocks.pop(block, None),
        )
        self._drop_blocks[block] = handle
        return handle

    def arm_write_reorder(self) -> InjectionHandle:
        """Shuffle the service order of the next drain burst."""
        handle = InjectionHandle(
            site=FaultSite.WQ_REORDER,
            description="reorder next drain burst",
            fired=False,
            _undo=self._disarm_reorder,
        )
        self._reorder_next = handle
        return handle

    def _disarm_reorder(self) -> None:
        self._reorder_next = None

    # ------------------------------------------------------------------
    # FaultHook callbacks
    # ------------------------------------------------------------------

    def on_meta_fetch(self, kind: str, level: int, index: int) -> None:
        if kind == "counter":
            action = self._meta_fill_actions.pop(index, None)
            if action is not None:
                self._meta_fill_faults.pop(index, None)
                action()

    def on_write_drain(self, entries: list) -> list:
        if self._reorder_next is not None:
            handle = self._reorder_next
            self._reorder_next = None
            self.rng.shuffle(entries)
            handle.fired = True
        if self._drop_blocks:
            kept = []
            for entry in entries:
                handle = self._drop_blocks.pop(entry.addr, None)
                if handle is None:
                    kept.append(entry)
                else:
                    # The write is lost before encryption: discard the
                    # pending plaintext so nothing forwards it later.
                    self.mee._pending_plain.pop(entry.addr, None)
                    handle.fired = True
            entries = kept
        return entries
