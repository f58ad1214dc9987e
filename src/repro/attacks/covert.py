"""Covert channels built on MetaLeak-T and MetaLeak-C (Figures 11 & 14).

Both channels run a trojan and a spy as two processes with *no shared
data*; all communication flows through security metadata:

* :class:`CovertChannelT` — the spy mEvict+mReloads two tree node blocks in
  different metadata-cache sets; the trojan encodes a bit by accessing (or
  not) a page under the *transmission* node, and always accesses a page
  under the *boundary* node to delimit the bit window.
* :class:`CovertChannelC` — the trojan encodes a 7-bit symbol as the number
  of advances it applies to a shared tree minor counter; the spy decodes by
  counting how many additional advances fire the overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import PAGE_SIZE
from repro.attacks.metaleak_c import MetaLeakC, SharedCounterHandle
from repro.attacks.metaleak_t import MetaLeakT
from repro.attacks.noise import NoiseProcess
from repro.attacks.resilience import MIN_CALIBRATION_QUALITY, mean_confidence
from repro.os.page_alloc import PageAllocator
from repro.proc.batch import AccessBatch
from repro.proc.processor import SecureProcessor
from repro.utils.stats import accuracy
from repro.utils.watchdog import CycleBudget, ensure_budget


@dataclass
class ChannelReport:
    """Outcome of one covert transmission.

    ``confidences`` carries one honest score per received bit/symbol
    (vote margin × calibration quality for the T channel, overflow
    observability for the C channel).  ``degraded`` flags receptions the
    channel itself does not trust — the reasons name why (degenerate
    calibration, exhausted cycle budget, lost sync, low confidence) —
    and ``truncated`` marks receptions cut short by a cycle budget, in
    which case ``received`` is shorter than ``sent``.
    """

    sent: list[int]
    received: list[int]
    cycles: int
    sync_errors: int = 0
    latencies: list[int] = field(default_factory=list)
    confidences: list[float] = field(default_factory=list)
    rounds: int = 0
    truncated: bool = False
    degraded: bool = False
    degraded_reasons: tuple[str, ...] = ()

    @property
    def accuracy(self) -> float:
        return accuracy(self.received, self.sent)

    @property
    def mean_confidence(self) -> float:
        return mean_confidence(self.confidences)

    def bits_per_kilocycle(self, bits_per_symbol: int = 1) -> float:
        if self.cycles == 0:
            return float("inf")
        return len(self.sent) * bits_per_symbol / (self.cycles / 1000)


class CovertChannelT:
    """Bit-per-round channel over shared integrity-tree node caching."""

    def __init__(
        self,
        proc: SecureProcessor,
        allocator: PageAllocator,
        *,
        trojan_core: int = 0,
        spy_core: int = 1,
        level: int = 0,
        noise: NoiseProcess | None = None,
    ) -> None:
        self.proc = proc
        self.allocator = allocator
        self.trojan_core = trojan_core
        self.spy_core = spy_core
        self.level = level
        self.noise = noise
        attack = MetaLeakT(proc, allocator, core=spy_core)
        self.attack = attack

        # Two page groups whose tree nodes land in different metadata-cache
        # sets: one carries bits, the other marks bit boundaries.
        self._trojan_tx, spy_tx = self._claim_group_pair(attack, level, salt=0)
        self._trojan_bd, spy_bd = self._claim_group_pair(
            attack, level, salt=1, avoid=self._node_set(attack, self._trojan_tx, level)
        )
        self.tx_monitor = attack.monitor_for_page(
            self._trojan_tx, level=level, probe_frame=spy_tx
        )
        self.bd_monitor = attack.monitor_for_page(
            self._trojan_bd, level=level, probe_frame=spy_bd
        )

    def _node_set(self, attack: MetaLeakT, frame: int, level: int) -> int:
        node = attack.mapper.tree_node_addr(frame * PAGE_SIZE, level)
        return attack.mapper.meta_set_of(node)

    def _claim_group_pair(
        self,
        attack: MetaLeakT,
        level: int,
        *,
        salt: int,
        avoid: int | None = None,
    ) -> tuple[int, int]:
        """Claim (trojan_frame, spy_frame) sharing a level-``level`` node."""
        layout = self.proc.layout
        group_pages = len(layout.pages_sharing_node(0, level))
        total_groups = layout.data_size // PAGE_SIZE // group_pages
        for group in range(salt * 7 + 3, total_groups, 11):
            frame = group * group_pages
            if avoid is not None and self._node_set(attack, frame, level) == avoid:
                continue
            if self.allocator.is_allocated(frame) or self.allocator.is_allocated(
                frame + 1
            ):
                continue
            trojan = self.allocator.alloc_specific(frame)
            spy = attack.claim_probe_page(trojan, level)
            return trojan, spy
        raise RuntimeError("no free page group for the covert channel")

    # ------------------------------------------------------------------

    def _trojan_access(self, frame: int) -> None:
        addr = frame * PAGE_SIZE
        self.proc.run_batch(
            AccessBatch().flush(addr).read(addr, core=self.trojan_core)
        )

    def _round(self, bit: int) -> tuple[int, bool, bool, float]:
        """One protocol round; returns (latency, tx_seen, boundary_seen,
        per-round confidence from the transmission monitor)."""
        self.tx_monitor.m_evict()
        self.bd_monitor.m_evict()
        if self.noise is not None:
            self.noise.step()
        if bit:
            self._trojan_access(self._trojan_tx)
        self._trojan_access(self._trojan_bd)
        if self.noise is not None:
            self.noise.step()
        _, boundary_seen = self.bd_monitor.m_reload()
        latency, tx_seen = self.tx_monitor.m_reload()
        return latency, tx_seen, boundary_seen, self.tx_monitor.last_confidence

    def transmit(
        self,
        bits: list[int],
        *,
        votes: int = 1,
        max_extra_votes: int = 0,
        budget: "CycleBudget | int | None" = None,
    ) -> ChannelReport:
        """Run the full protocol for ``bits``; returns the spy's view.

        ``votes`` repeats each bit's round and decodes by majority; the
        vote margin becomes the per-bit confidence.  Ambiguous bits (tied
        or one-vote margins) are re-probed up to ``max_extra_votes``
        additional rounds.  ``budget`` (cycles) bounds the whole
        transmission: on expiry the reception is truncated, never stuck.
        """
        if votes < 1:
            raise ValueError(f"votes must be >= 1, got {votes}")
        if max_extra_votes < 0:
            raise ValueError(
                f"max_extra_votes must be >= 0, got {max_extra_votes}"
            )
        budget = ensure_budget(self.proc, budget)
        received: list[int] = []
        latencies: list[int] = []
        confidences: list[float] = []
        sync_errors = 0
        rounds = 0
        truncated = False
        start = self.proc.cycle
        for bit in bits:
            if budget.expired:
                truncated = True
                break
            ones = 0
            zeros = 0
            round_confidences: list[float] = []
            extra_left = max_extra_votes
            last_latency = 0
            while True:
                latency, tx_seen, boundary_seen, conf = self._round(bit)
                rounds += 1
                last_latency = latency
                if not boundary_seen:
                    sync_errors += 1
                if tx_seen:
                    ones += 1
                else:
                    zeros += 1
                round_confidences.append(conf)
                if ones + zeros < votes:
                    if budget.expired:
                        truncated = True
                        break
                    continue
                margin = abs(ones - zeros)
                ambiguous = margin == 0 or (votes > 1 and margin == 1)
                if ambiguous and extra_left > 0 and not budget.expired:
                    extra_left -= 1
                    continue
                break
            total_votes = ones + zeros
            value = int(ones > zeros) if ones != zeros else int(tx_seen)
            vote_margin = abs(ones - zeros) / max(1, total_votes)
            received.append(value)
            latencies.append(last_latency)
            confidences.append(vote_margin * mean_confidence(round_confidences))
        report = ChannelReport(
            sent=list(bits),
            received=received,
            cycles=self.proc.cycle - start,
            sync_errors=sync_errors,
            latencies=latencies,
            confidences=confidences,
            rounds=rounds,
            truncated=truncated,
        )
        reasons: list[str] = []
        calibration_quality = min(
            self.tx_monitor.calibration.quality,
            self.bd_monitor.calibration.quality,
        )
        if calibration_quality < MIN_CALIBRATION_QUALITY:
            reasons.append("degenerate-calibration")
        if truncated:
            reasons.append("budget")
        if received and report.mean_confidence < 0.5:
            reasons.append("low-confidence")
        if rounds and sync_errors > 0.2 * rounds:
            reasons.append("sync")
        report.degraded = bool(reasons)
        report.degraded_reasons = tuple(reasons)
        return report


class CovertChannelC:
    """Symbol-per-overflow channel over a shared tree minor counter.

    The trojan runs on core 0 and the spy on core 1; both bump the
    level-1 minor that tracks one leaf node's subtree.
    """

    def __init__(self, proc: SecureProcessor, allocator: PageAllocator) -> None:
        self.proc = proc
        factory_spy = MetaLeakC(proc, allocator, core=1)
        factory_trojan = MetaLeakC(proc, allocator, core=0)
        # Pick an anchor frame; both parties claim pages in its subtree.
        anchor = self._find_anchor(proc, allocator)
        self.spy_handle: SharedCounterHandle = factory_spy.handle_for_page(anchor)
        self.trojan_handle: SharedCounterHandle = factory_trojan.handle_for_page(
            anchor
        )
        self.symbol_bits = proc.config.tree.minor_bits
        self.max_symbol = self.spy_handle.minor_max - 1

    @staticmethod
    def _find_anchor(proc: SecureProcessor, allocator: PageAllocator) -> int:
        group_pages = len(proc.layout.data_pages_under_node(0, 0))
        total = proc.layout.data_size // PAGE_SIZE
        for frame in range(0, total, group_pages):
            if not allocator.is_allocated(frame):
                return frame
        raise RuntimeError("no free subtree for the covert channel")

    # ------------------------------------------------------------------

    def transmit(
        self,
        symbols: list[int],
        *,
        budget: "CycleBudget | int | None" = None,
    ) -> ChannelReport:
        """Send 7-bit symbols; spy decodes via counts-to-overflow.

        A symbol whose overflow tell never shows is reported as ``-1``
        with zero confidence (instead of raising from deep inside the
        loop); the spy then re-syncs the counter with a fresh reset.  A
        cycle ``budget`` truncates the transmission rather than letting
        a noise-swallowed overflow livelock the scan.
        """
        for symbol in symbols:
            if not 0 <= symbol <= self.max_symbol:
                raise ValueError(
                    f"symbol {symbol} out of range 0..{self.max_symbol}"
                )
        budget = ensure_budget(self.proc, budget)
        received: list[int] = []
        confidences: list[float] = []
        sync_errors = 0
        truncated = False
        start = self.proc.cycle
        # Initial mPreset: one overflow leaves the counter at a known 1.
        sync = self.spy_handle.scan_to_overflow(budget=budget)
        if not sync.fired:
            return ChannelReport(
                sent=list(symbols),
                received=[],
                cycles=self.proc.cycle - start,
                sync_errors=1,
                truncated=sync.aborted,
                degraded=True,
                degraded_reasons=("lost-sync",)
                + (("budget",) if sync.aborted else ()),
            )
        # After an overflow the counter restarts at 1; the trojan adds s
        # and the spy's m-th bump fires the next overflow when 1+s+(m-1)
        # reaches the 127 saturation point, i.e. s = minor_max - m.
        saturate = self.spy_handle.minor_max
        for symbol in symbols:
            if budget.expired:
                truncated = True
                break
            for _ in range(symbol):
                self.trojan_handle.bump()
            scan = self.spy_handle.scan_to_overflow(budget=budget)
            if scan.fired:
                received.append(saturate - scan.bumps)
                confidences.append(1.0)
                continue
            # Missed overflow: the counter state is unknown.  Emit an
            # erasure and re-sync before the next symbol.
            received.append(-1)
            confidences.append(0.0)
            sync_errors += 1
            if scan.aborted:
                truncated = True
                break
            resync = self.spy_handle.scan_to_overflow(budget=budget)
            if not resync.fired:
                break
        truncated = truncated or len(received) < len(symbols)
        report = ChannelReport(
            sent=list(symbols),
            received=received,
            cycles=self.proc.cycle - start,
            sync_errors=sync_errors,
            confidences=confidences,
            truncated=truncated,
        )
        reasons: list[str] = []
        if sync_errors:
            reasons.append("lost-sync")
        if budget.expired:
            reasons.append("budget")
        report.degraded = bool(reasons)
        report.degraded_reasons = tuple(reasons)
        return report
