"""Bit-manipulation helpers used throughout the address/metadata layers."""

from __future__ import annotations


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def log2_exact(value: int) -> int:
    """Return log2 of ``value``, requiring it to be an exact power of two.

    Address decomposition (set index / block offset extraction) relies on
    power-of-two geometry; a non-power-of-two is a configuration error.
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a power of two")
    return value.bit_length() - 1


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (a power of two)."""
    if not is_power_of_two(alignment):
        raise ValueError(f"alignment {alignment} is not a power of two")
    return (value + alignment - 1) & ~(alignment - 1)
