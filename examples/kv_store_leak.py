#!/usr/bin/env python3
"""Profile a persistent key-value store's writes with MetaLeak-C.

A PM-style hash table persists every store immediately (the threat model's
persistent-application case).  The attacker shares tree minor counters
with each bucket page and, between victim operations, counts writes via
mPreset+mOverflow — recovering which bucket every secret key hashed to,
without reading a single byte of victim data.

Run:  python examples/kv_store_leak.py
"""

from repro.attacks import MetaLeakC
from repro.config import MIB, preset_config
from repro.os import PageAllocator, Process
from repro.proc import SecureProcessor
from repro.sgx.sgx_step import SgxStep
from repro.victims.kvstore import PersistentKvStore

BUCKETS = 4


def main() -> None:
    config = preset_config(
        "sct", protected_size=256 * MIB, functional_crypto=False
    )
    proc = SecureProcessor(config)
    allocator = PageAllocator.for_machine(proc)

    # Attacker stages the bucket pages into distant leaf groups so each
    # gets its own shared tree counter (log page first, LIFO order).
    frames = [32 * (10 + 40 * i) for i in range(BUCKETS)]
    log_frame = 32 * 200
    for frame in reversed(frames):
        allocator.stage_for_next_alloc(frame, core=0)
    allocator.stage_for_next_alloc(log_frame, core=0)

    victim_process = Process(proc, allocator, core=0, cleanse=True, name="kv")
    store = PersistentKvStore(victim_process, buckets=BUCKETS)
    assert [store.bucket_frame(b) for b in range(BUCKETS)] == frames

    attack = MetaLeakC(proc, allocator, core=1)
    handles = {
        bucket: attack.handle_for_page(store.bucket_frame(bucket), level=1)
        for bucket in range(BUCKETS)
    }
    print("Arming shared tree counters for every bucket page ...")
    for handle in handles.values():
        handle.arm_for_writes(1)

    secret_keys = ["alice", "bob", "carol", "dave", "erin", "frank"]
    observed: dict[str, int | None] = {}

    for key in secret_keys:
        stepper = SgxStep(interval=1)
        stepper.run(store.put(key, b"value-" + key.encode()))
        # Probe every bucket counter: the one the victim wrote overflows
        # after a single attacker bump.
        hit = None
        for bucket, handle in handles.items():
            attack.collect_victim_updates(store.bucket_frame(bucket), level=1)
            extra = handle.count_to_overflow()
            if extra == 1 and hit is None:
                hit = bucket
            handle.preset(handle.minor_max - 1)  # re-arm
        observed[key] = hit

    print(f"{'key':<8} {'true bucket':>12} {'leaked bucket':>14}")
    correct = 0
    for key in secret_keys:
        true_bucket = store.bucket_of(key)
        leaked = observed[key]
        correct += leaked == true_bucket
        print(f"{key:<8} {true_bucket:>12} {str(leaked):>14}")
    print(f"\nrecovered {correct}/{len(secret_keys)} bucket assignments")


if __name__ == "__main__":
    main()
