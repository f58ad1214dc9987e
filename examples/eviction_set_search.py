#!/usr/bin/env python3
"""Find a metadata eviction set blind — no layout knowledge.

The framework usually computes metadata addresses analytically.  Real
attackers on undocumented layouts cannot; they *search*: allocate a big
buffer, confirm the whole pool evicts the target's tree leaf (sensed via
reload timing), then group-test the pool down to a minimal set.

Run:  python examples/eviction_set_search.py
"""

import time

from repro.attacks.search import EvictionSetSearch
from repro.config import MIB, PAGE_SIZE, SecureProcessorConfig
from repro.os import PageAllocator
from repro.proc import SecureProcessor


def main() -> None:
    config = SecureProcessorConfig.sct_default(
        protected_size=128 * MIB, functional_crypto=False
    )
    proc = SecureProcessor(config)
    allocator = PageAllocator.for_machine(proc)

    target_frame = allocator.alloc_specific(1000)
    target = target_frame * PAGE_SIZE
    pool = [allocator.alloc_specific(frame) for frame in range(2000, 7000)]
    print(f"target page      : frame {target_frame}")
    print(f"candidate pool   : {len(pool)} pages ({len(pool) * 4 // 1024} MiB)")

    search = EvictionSetSearch(proc, allocator, target_block=target, core=1)
    print(f"self-calibrated threshold: {search.threshold:.0f} cycles")

    started = time.time()
    minimal = search.find_minimal_set(pool)
    elapsed = time.time() - started
    print(f"\nminimal eviction set: {len(minimal)} pages "
          f"(metadata cache is {proc.config.metadata_cache.ways}-way)")
    print(f"  frames   : {minimal}")
    print(f"  searched with {search.stats.tests} timing tests, "
          f"{search.stats.accesses} accesses, {elapsed:.1f}s wall")
    print(f"  reliability over 5 trials: {search.verify(minimal):.0%}")

    # Ground truth (simulator-only): every found page must alias the
    # target leaf's metadata-cache set.
    leaf = proc.layout.node_addr_for_data(target, 0)
    target_set = proc.metadata_cache.set_index_of(leaf)
    aliasing = sum(
        any(
            proc.metadata_cache.set_index_of(meta) == target_set
            for meta in [proc.layout.counter_block_addr(frame * PAGE_SIZE)]
            + [
                proc.layout.node_addr_for_data(frame * PAGE_SIZE, level)
                for level in range(len(proc.layout.levels))
            ]
        )
        for frame in minimal
    )
    print(f"  ground truth: {aliasing}/{len(minimal)} pages genuinely alias "
          f"metadata set {target_set}")


if __name__ == "__main__":
    main()
