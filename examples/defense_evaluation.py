#!/usr/bin/env python3
"""Evaluate the defenses the paper discusses (Section IX).

Runs the same MetaLeak-T covert transmission under four configurations
and shows which ones actually stop it:

  1. baseline SCT machine                          -> channel works
  2. physically disjoint LLCs (2 sockets)          -> channel works
     (stronger than any way-partitioning proposal)
  3. MIRAGE-style randomized cache                 -> eviction still
     possible with enough arbitrary accesses (Figure 18)
  4. per-domain isolated integrity trees (IX-C)    -> channel collapses

Run:  python examples/defense_evaluation.py
"""

from repro.attacks import CovertChannelT
from repro.config import MIB, preset_config
from repro.defenses import mirage_eviction_curve
from repro.os import PageAllocator
from repro.proc import SecureProcessor

BITS = [1, 0, 1, 1, 0, 0, 1, 0] * 5


def machine(defense: str) -> tuple[SecureProcessor, PageAllocator]:
    """The SCT preset under one of ``repro.config.DEFENSES``."""
    proc = SecureProcessor(preset_config(
        "sct", defense=defense, protected_size=256 * MIB, functional_crypto=False
    ))
    return proc, PageAllocator.for_machine(proc)


def covert_accuracy(proc, allocator, **channel_kwargs) -> float:
    channel = CovertChannelT(proc, allocator, **channel_kwargs)
    return channel.transmit(BITS).accuracy


def main() -> None:
    print(f"Transmitting {len(BITS)} bits through the metadata channel\n")

    proc, allocator = machine("none")
    print(f"1. baseline SCT               : {covert_accuracy(proc, allocator):.1%}")

    proc, allocator = machine("split_llc")
    acc = covert_accuracy(proc, allocator, trojan_core=0, spy_core=2)
    print(f"2. disjoint LLCs (2 sockets)  : {acc:.1%}   <- partitioning "
          "data caches does not help")

    points = mirage_eviction_curve((3000, 7000, 12000), trials=12)
    curve = ", ".join(f"{p.accesses}:{p.accuracy:.0%}" for p in points)
    print(f"3. MIRAGE randomized cache    : target evicted anyway "
          f"({curve} random accesses)")

    proc, allocator = machine("isolated_trees")
    channel = CovertChannelT(proc, allocator)
    # The trojan's pages belong to another security domain.
    proc.mee.set_page_domain(channel._trojan_tx, 1)
    proc.mee.set_page_domain(channel._trojan_bd, 1)
    accuracy = channel.transmit(BITS).accuracy
    print(f"4. per-domain isolated trees  : {accuracy:.1%}   <- chance: "
          "the IX-C mitigation closes the channel")


if __name__ == "__main__":
    main()
