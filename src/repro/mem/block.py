"""Physical-address decomposition helpers.

All simulator state is tracked at 64-byte block granularity; pages are
4 KiB.  These helpers are free functions (not methods) because every layer
— caches, metadata layout, attacks — needs them.
"""

from __future__ import annotations

from repro.config import BLOCK_SIZE, PAGE_SIZE
from repro.utils.bitops import log2_exact

_BLOCK_SHIFT = log2_exact(BLOCK_SIZE)
_PAGE_SHIFT = log2_exact(PAGE_SIZE)
# Mask form of the block alignment: this sits on every simulated access,
# so it is a single AND.
BLOCK_MASK = ~(BLOCK_SIZE - 1)


def block_address(addr: int) -> int:
    """Align ``addr`` down to its containing 64-byte block."""
    return addr & BLOCK_MASK


def block_index(addr: int) -> int:
    """Global block number of the block containing ``addr``."""
    return addr >> _BLOCK_SHIFT


def page_index(addr: int) -> int:
    """Physical page (frame) number containing ``addr``."""
    return addr >> _PAGE_SHIFT


def bank_of(addr: int, banks: int) -> int:
    """DRAM bank servicing the block at ``addr``.

    Banks interleave at block granularity with higher address bits XOR-
    folded in (the standard bank-hash): consecutive blocks — and therefore
    the blocks of one counter-sharing group — stripe across every bank,
    while distinct page-aligned structures (counter region, tree levels) do
    not all alias onto bank 0.  The mapping stays fully deterministic, so
    an attacker can still pick a probe block in any chosen bank, matching
    the paper's Figure-8 same-bank setup.
    """
    block = addr >> _BLOCK_SHIFT
    folded = block ^ (block >> 7) ^ (block >> 15) ^ (block >> 23)
    return folded % banks
