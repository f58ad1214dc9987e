"""The persistent key-value store case study (MetaLeak-C write monitoring).

The victim is :class:`~repro.victims.kvstore.PersistentKvStore`: every
``put`` persists a write-ahead-log record and then the bucket page of the
key's hash — write-through, so both stores reach the memory controller and
bump tree counters with no cache-eviction games.  The attacker shares one
tree minor per bucket page (the OS staged each bucket into its own
level-0 subtree), arms each counter one write short of saturation, and
after every ``put`` runs mOverflow on each: the bucket whose counter
saturated is the bucket the key hashed to.  The recovered sequence leaks
the keys' hash distribution; the write-ahead log counter leaks the
operation count.

This driver is the robustness showcase for the analysis layer: it never
fabricates certainty.  Every recovered bucket carries a confidence —
1.0 when exactly one counter fired, split across candidates when several
fired (noise or a hash collision with attacker traffic), 0.0 when none
did — and the result carries ``degraded``/``degraded_reasons`` instead of
raising when observations go wrong or the cycle budget expires mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import experiment_machine
from repro.attacks.metaleak_c import MetaLeakC, SharedCounterHandle
from repro.config import PAGE_SIZE, TreeConfig, TreeKind
from repro.os.process import Process
from repro.utils.watchdog import CycleBudget, ensure_budget
from repro.victims.kvstore import PersistentKvStore

# Each monitored page needs its own level-1 *node*, not just its own
# minor slot: a split-counter overflow resets every minor in the node, so
# two armed slots under one node would wipe each other out during
# arming.  A level-1 node covers arities[0] * arities[1] data pages.
_LOG_L1_GROUP = 1
_FIRST_BUCKET_L1_GROUP = 2


@dataclass
class KvAttackResult:
    """Structured outcome of one kvstore recovery run."""

    keys: list[str] = field(repr=False, default_factory=list)
    true_buckets: list[int] = field(repr=False, default_factory=list)
    recovered_buckets: list[int | None] = field(repr=False, default_factory=list)
    confidences: list[float] = field(repr=False, default_factory=list)
    bucket_accuracy: float = 0.0
    puts_true: int = 0
    puts_observed: int = 0
    degraded: bool = False
    degraded_reasons: tuple[str, ...] = ()
    truncated: bool = False
    attacker_cycles: int = 0

    @property
    def mean_confidence(self) -> float:
        if not self.confidences:
            return 0.0
        return sum(self.confidences) / len(self.confidences)


def _default_keys(count: int) -> list[str]:
    return [f"user:{index:04d}" for index in range(count)]


def _rearm(handle: SharedCounterHandle) -> None:
    """Re-arm a handle whose overflow just fired (counter now holds 1)."""
    handle.preset(handle.minor_max - 1)


def run_kvstore_attack(
    keys: list[str] | None = None,
    *,
    buckets: int = 4,
    budget: CycleBudget | int | None = None,
) -> KvAttackResult:
    """Recover which bucket each ``put`` touched through shared tree minors,
    and count the puts through the log's minor.

    Never raises for observation failures: missed writes, ambiguous
    multi-bucket fires, and budget expiry all land in the result's
    confidence vector and ``degraded_reasons`` instead.
    """
    # 5-bit tree minors keep per-put re-arming cheap (the paper's 7-bit
    # default works identically, ~4x slower — Sweep S3 measures the cost
    # curve); the channel itself is width-independent.  The machine keeps
    # the experiment default of 256 MiB (not the 128 MiB some sweeps use)
    # because this attack runs one MetadataEvictor per monitored page:
    # each needs a full set of free same-set pages, which a smaller pool
    # cannot supply.
    proc, allocator = experiment_machine(
        "sct",
        tree=TreeConfig(
            kind=TreeKind.SPLIT_COUNTER,
            arities=(32, 16, 16, 16, 16, 16),
            major_bits=56,
            minor_bits=5,
        ),
    )
    budget = ensure_budget(proc, budget)

    # Free-list staging (LIFO): the store allocates log first, buckets in
    # order, so the log frame is staged last.
    arities = proc.config.tree.arities
    l1_span = arities[0] * arities[1]
    bucket_frames = [
        (_FIRST_BUCKET_L1_GROUP + b) * l1_span for b in range(buckets)
    ]
    log_frame = _LOG_L1_GROUP * l1_span
    if bucket_frames[-1] >= proc.layout.data_size // PAGE_SIZE:
        raise ValueError(
            f"{buckets} buckets need {(buckets + 2) * l1_span} data pages; "
            "use a larger protected_size"
        )
    victim_process = Process(proc, allocator, core=0, cleanse=True, name="kvstore")
    for frame in reversed(bucket_frames):
        allocator.stage_for_next_alloc(frame, core=0)
    allocator.stage_for_next_alloc(log_frame, core=0)

    store = PersistentKvStore(victim_process, buckets=buckets)
    assert store.log_frame == log_frame
    assert [store.bucket_frame(b) for b in range(buckets)] == bucket_frames

    attack = MetaLeakC(proc, allocator, core=1)
    bucket_handles = [
        attack.handle_for_page(frame, level=1) for frame in bucket_frames
    ]
    log_handle = attack.handle_for_page(log_frame, level=1)
    start_cycle = proc.cycle

    for handle in (*bucket_handles, log_handle):
        handle.arm_for_writes(1)

    keys = list(keys) if keys is not None else _default_keys(6)
    true_buckets: list[int] = []
    recovered: list[int | None] = []
    confidences: list[float] = []
    puts_observed = 0
    reasons: set[str] = set()
    aborted = False

    for key in keys:
        if budget.expired:
            aborted = True
            break
        # The victim's put: one log write, one bucket write.
        for _step in store.put(key, b"value"):
            pass
        true_buckets.append(store.bucket_of(key))

        # mOverflow each armed counter.  armed_for=1, so 1 extra bump to
        # overflow means the victim wrote; 2 means it did not.
        fired: list[int] = []
        scan_failed = False
        for bucket, handle in enumerate(bucket_handles):
            attack.collect_victim_updates(bucket_frames[bucket], level=1)
            scan = handle.scan_to_overflow(max_bumps=3, budget=budget)
            if scan.aborted:
                aborted = True
                break
            if not scan.fired:
                # Counter is in an unexpected state: re-establish it from
                # scratch rather than trusting any reading this round.
                scan_failed = True
                handle.arm_for_writes(1)
                continue
            if scan.bumps == 1:
                fired.append(bucket)
            _rearm(handle)
        if aborted:
            # The scan loop left this put half-observed; drop it.
            true_buckets.pop()
            break

        attack.collect_victim_updates(log_frame, level=1)
        log_scan = log_handle.scan_to_overflow(max_bumps=3, budget=budget)
        if log_scan.fired:
            if log_scan.bumps == 1:
                puts_observed += 1
            _rearm(log_handle)
        else:
            log_handle.arm_for_writes(1)

        if scan_failed:
            reasons.add("counter-desync")
        if len(fired) == 1:
            recovered.append(fired[0])
            confidences.append(1.0)
        elif not fired:
            recovered.append(None)
            confidences.append(0.0)
            reasons.add("missed-write")
        else:
            # Several counters saturated (noise bumped a neighbour):
            # report the first candidate at split confidence.
            recovered.append(fired[0])
            confidences.append(1.0 / len(fired))
            reasons.add("ambiguous-bucket")

    if aborted:
        reasons.add("budget")
    truncated = len(recovered) < len(keys)
    correct = sum(
        1 for got, want in zip(recovered, true_buckets) if got == want
    )
    scored = len(keys) if keys else 1  # undelivered puts count as errors
    low_confidence = confidences and (
        sum(confidences) / len(confidences) < 0.5
    )
    if low_confidence:
        reasons.add("low-confidence")
    return KvAttackResult(
        keys=keys,
        true_buckets=true_buckets,
        recovered_buckets=recovered,
        confidences=confidences,
        bucket_accuracy=correct / scored,
        puts_true=store.puts,
        puts_observed=puts_observed,
        degraded=bool(reasons),
        degraded_reasons=tuple(sorted(reasons)),
        truncated=truncated,
        attacker_cycles=proc.cycle - start_cycle,
    )
