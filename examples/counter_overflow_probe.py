#!/usr/bin/env python3
"""Observe victim writes through counter overflow (MetaLeak-C, Figure 13).

The attacker shares a 7-bit tree minor counter with a victim page.  It
presets the counter one write short of saturation (mPreset); after the
victim runs, a single attacker bump fires the overflow if — and only if —
the victim wrote (mOverflow).  Overflow is visible purely through timing:
the subtree re-hash burst delays a concurrent memory read by thousands of
cycles (Figure 8's two bands).

Run:  python examples/counter_overflow_probe.py
"""

from repro.attacks import MetaLeakC
from repro.config import MIB, PAGE_SIZE, SecureProcessorConfig
from repro.os import PageAllocator
from repro.proc import SecureProcessor


def main() -> None:
    config = SecureProcessorConfig.sct_default(
        protected_size=256 * MIB, functional_crypto=False
    )
    proc = SecureProcessor(config)
    allocator = PageAllocator.for_machine(proc)

    victim_frame = allocator.alloc_specific(3)
    victim_addr = victim_frame * PAGE_SIZE
    attack = MetaLeakC(proc, allocator, core=1)
    handle = attack.handle_for_page(victim_frame, level=1)

    print("mPreset: resetting the shared tree counter ...")
    spent = handle.reset()
    print(f"  overflow observed after {spent} bumps -> counter state known")
    handle.preset(handle.minor_max - 1)
    print(f"  counter preset to {handle.minor_max - 1} (one write short of saturation)")

    print("\nRound 1: victim WRITES its page")
    proc.write_through(victim_addr, b"secret write", core=0)
    proc.drain_writes()
    attack.collect_victim_updates(victim_frame, level=1)
    extra = handle.count_to_overflow()
    print(f"  mOverflow needed {extra} attacker bump(s)")
    print(f"  attacker's observed latency: {handle.last_bump_latency} cycles")
    print(f"  => victim wrote: {extra == 1}")

    handle.preset(handle.minor_max - 1)
    print("\nRound 2: victim stays idle")
    attack.collect_victim_updates(victim_frame, level=1)
    extra = handle.count_to_overflow()
    print(f"  mOverflow needed {extra} attacker bump(s)")
    print(f"  => victim wrote: {extra == 1}")


if __name__ == "__main__":
    main()
