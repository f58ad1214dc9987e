#!/usr/bin/env python3
"""Covert channels through security metadata (Figures 11 and 14).

A trojan and a spy — two processes with *no shared data* — communicate:
  * MetaLeak-T: bits through the caching state of shared integrity-tree
    node blocks (mEvict+mReload);
  * MetaLeak-C: 7-bit symbols through the value of a shared tree minor
    counter (mPreset+mOverflow).

Run:  python examples/covert_channel_demo.py
"""

from repro.attacks import CovertChannelC, CovertChannelT
from repro.config import MIB, preset_config
from repro.os import PageAllocator
from repro.proc import SecureProcessor


def build_machine():
    config = preset_config(
        "sct", protected_size=256 * MIB, functional_crypto=False, timer_jitter_sigma=11
    )
    proc = SecureProcessor(config)
    return proc, PageAllocator.for_machine(proc)


def main() -> None:
    message = "META"
    bits = [int(b) for char in message for b in format(ord(char), "08b")]

    proc, allocator = build_machine()
    channel = CovertChannelT(proc, allocator)
    report = channel.transmit(bits)
    received = "".join(
        chr(int("".join(map(str, report.received[i : i + 8])), 2))
        for i in range(0, len(report.received), 8)
    )
    print("MetaLeak-T covert channel")
    print(f"  sent     : {message!r} ({len(bits)} bits)")
    print(f"  received : {received!r}")
    print(f"  accuracy : {report.accuracy:.1%}")
    print(f"  rate     : {report.bits_per_kilocycle():.4f} bits/kcycle")
    print(f"  reload latencies (first 8 bits): {report.latencies[:8]}")
    print()

    proc, allocator = build_machine()
    channel_c = CovertChannelC(proc, allocator)
    symbols = [ord(c) for c in message]  # ASCII fits in 7 bits
    report_c = channel_c.transmit(symbols)
    print("MetaLeak-C covert channel")
    print(f"  sent     : {symbols}")
    print(f"  received : {report_c.received}")
    print(f"  decoded  : {''.join(chr(s) for s in report_c.received)!r}")
    print(f"  accuracy : {report_c.accuracy:.1%}")


if __name__ == "__main__":
    main()
