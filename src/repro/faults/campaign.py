"""Fault-injection campaigns: sweep sites, assert detection coverage.

A campaign builds one machine per preset (``sct`` / ``ht`` / ``sgx``,
with *functional* crypto so MACs and tree hashes are real), seeds a
working set of written blocks, then walks hundreds of deterministic
injection sites.  For every corruption of protected state — ciphertext
bits, MAC bits, encryption counters, tree nodes, corrupted metadata
fills — the next read of the affected block must raise
:class:`~repro.secmem.engine.IntegrityViolation`.  Write-queue faults
(drop / reorder) are checked for *graceful degradation* instead: a
reorder must be architecturally invisible, a dropped posted write must
silently keep the previous value (the integrity machinery by design
covers spoofing/splicing/replay, not availability).

Every site is undone after its check and followed by a fault-free
control read, so one campaign both measures detection coverage and
verifies the machine returns to a consistent state — 0 false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import FigureResult
from repro.config import BLOCK_SIZE, PAGE_SIZE, preset_config
from repro.faults.injector import (
    PROTECTED_SITES,
    QUEUE_SITES,
    FaultInjector,
    FaultSite,
)
from repro.proc.processor import SecureProcessor
from repro.secmem.engine import IntegrityViolation
from repro.utils.rng import derive_rng

_CAMPAIGN_SIZE = 4 * 1024 * 1024  # 4 MiB protected region — laptop-fast


@dataclass(frozen=True)
class SiteOutcome:
    """What one injection did and whether the machine reacted correctly."""

    index: int
    site: FaultSite
    description: str
    detected: bool  # IntegrityViolation raised where one was required
    ok: bool  # behaviour matched the expectation for this site kind
    note: str = ""


@dataclass
class CampaignReport:
    """Detection-coverage matrix of one campaign run."""

    preset: str
    seed: int
    outcomes: list[SiteOutcome] = field(default_factory=list)
    control_reads: int = 0
    false_positives: int = 0

    def injected(self, site: FaultSite) -> int:
        return sum(1 for o in self.outcomes if o.site is site)

    def detected(self, site: FaultSite) -> int:
        return sum(1 for o in self.outcomes if o.site is site and o.detected)

    def ok_count(self, site: FaultSite) -> int:
        return sum(1 for o in self.outcomes if o.site is site and o.ok)

    @property
    def sites(self) -> int:
        return len(self.outcomes)

    @property
    def protected_injected(self) -> int:
        return sum(self.injected(site) for site in PROTECTED_SITES)

    @property
    def protected_detected(self) -> int:
        return sum(self.detected(site) for site in PROTECTED_SITES)

    @property
    def detection_rate(self) -> float:
        """Fraction of protected-state corruptions that raised a violation."""
        injected = self.protected_injected
        return self.protected_detected / injected if injected else 1.0

    @property
    def fully_detected(self) -> bool:
        """100% detection, all site behaviours as expected, no false alarms."""
        return (
            self.detection_rate == 1.0
            and all(o.ok for o in self.outcomes)
            and self.false_positives == 0
        )

    def failures(self) -> list[SiteOutcome]:
        return [o for o in self.outcomes if not o.ok]


class _Campaign:
    """One preset's sweep: machine, working set, site loop."""

    def __init__(self, preset: str, *, seed: int, pages: int) -> None:
        self.preset = preset
        self.seed = seed
        config = preset_config(
            preset, protected_size=_CAMPAIGN_SIZE, functional_crypto=True
        )
        self.proc = SecureProcessor(config)
        self.layout = self.proc.layout
        self.injector = FaultInjector(self.proc, seed=seed)
        self.rng = derive_rng(seed, "campaign", preset)
        self.report = CampaignReport(preset=preset, seed=seed)
        # Working set: a few blocks on each of ``pages`` spread-out pages.
        self.expected: dict[int, bytes] = {}
        total_pages = config.protected_size // PAGE_SIZE
        stride = max(1, total_pages // (pages + 1))
        for p in range(pages):
            base = (1 + p * stride) * PAGE_SIZE
            for blk in (0, 5):
                addr = base + blk * BLOCK_SIZE
                payload = f"seed:{p}:{blk}".encode()
                self.proc.write_through(addr, payload)
                self.expected[addr] = payload
        self.proc.drain_writes()
        self.proc.mee.flush_metadata_cache(self.proc.cycle)
        self.addrs = sorted(self.expected)

    # -- plumbing ----------------------------------------------------------

    def _clean_read(self, addr: int):
        """Read ``addr`` with cold data caches and a cold metadata path."""
        self.proc.flush(addr)
        self.proc.mee.flush_metadata_cache(self.proc.cycle)
        return self.proc.read(addr)

    def _control_read(self, addr: int) -> bool:
        """Fault-free read; records a false positive if it trips."""
        self.report.control_reads += 1
        try:
            result = self._clean_read(addr)
        except IntegrityViolation:
            self.report.false_positives += 1
            return False
        expected = self.expected[addr]
        return result.data[: len(expected)] == expected

    def control_sweep(self) -> None:
        for addr in self.addrs:
            self._control_read(addr)

    def _record(self, index: int, site: FaultSite, description: str,
                detected: bool, ok: bool, note: str = "") -> None:
        self.report.outcomes.append(
            SiteOutcome(
                index=index,
                site=site,
                description=description,
                detected=detected,
                ok=ok,
                note=note,
            )
        )

    # -- site kinds --------------------------------------------------------

    def _protected_site(self, index: int, site: FaultSite, addr: int) -> None:
        block = addr // BLOCK_SIZE
        layout = self.layout
        if site is FaultSite.DATA_BIT:
            handle = self.injector.flip_data_bit(addr)
        elif site is FaultSite.MAC_BIT:
            handle = self.injector.flip_mac_bit(addr)
        elif site is FaultSite.COUNTER:
            handle = self.injector.corrupt_counter(block)
        elif site is FaultSite.TREE_NODE:
            level = self.rng.randrange(len(layout.levels))
            node_index = layout.node_index(level, layout.counter_block_index(addr))
            slot = self.rng.randrange(layout.levels[level].arity)
            handle = self.injector.corrupt_tree_node(level, node_index, slot)
        else:  # META_FILL
            handle = self.injector.arm_meta_fill_corruption(
                layout.counter_block_index(addr), block
            )
        detected = False
        note = ""
        try:
            self._clean_read(addr)
            note = "corruption read back without a violation"
        except IntegrityViolation as exc:
            detected = True
            note = str(exc)
        finally:
            handle.undo()
        recovered = self._control_read(addr)
        self._record(
            index,
            site,
            handle.description,
            detected,
            ok=detected and recovered,
            note=note if detected else note or "undetected",
        )

    def _drop_site(self, index: int, addr: int) -> None:
        stale = self.expected[addr]
        new_payload = f"drop:{index}".encode()
        handle = self.injector.arm_write_drop(addr)
        self.proc.write_through(addr, new_payload)
        self.proc.drain_writes()
        violation = False
        stale_served = False
        try:
            result = self._clean_read(addr)
            stale_served = result.data[: len(stale)] == stale
        except IntegrityViolation:
            violation = True
        handle.undo()
        # Repair: rewrite the architectural value through the normal path.
        self.proc.write_through(addr, stale)
        self.proc.drain_writes()
        self.proc.mee.flush_metadata_cache(self.proc.cycle)
        recovered = self._control_read(addr)
        self._record(
            index,
            FaultSite.WQ_DROP,
            handle.description,
            detected=violation,
            # A dropped posted write is an availability fault: expected to
            # be architecturally silent (stale data, no violation).
            ok=handle.fired and not violation and stale_served and recovered,
            note="silent stale read (by design)" if stale_served else "anomaly",
        )

    def _reorder_site(self, index: int, addrs: list[int]) -> None:
        handle = self.injector.arm_write_reorder()
        payloads = {}
        for j, addr in enumerate(addrs):
            payloads[addr] = f"ro:{index}:{j}".encode()
            self.proc.write_through(addr, payloads[addr])
        self.proc.drain_writes()
        self.expected.update(payloads)
        self.proc.mee.flush_metadata_cache(self.proc.cycle)
        violation = False
        correct = True
        try:
            for addr in addrs:
                result = self._clean_read(addr)
                if result.data[: len(payloads[addr])] != payloads[addr]:
                    correct = False
        except IntegrityViolation:
            violation = True
        handle.undo()
        self._record(
            index,
            FaultSite.WQ_REORDER,
            handle.description,
            detected=violation,
            # Service order is a timing property: must be invisible.
            ok=not violation and correct,
            note="reorder architecturally invisible" if correct else "anomaly",
        )

    # -- the sweep ---------------------------------------------------------

    def run(self, sites: int) -> CampaignReport:
        self.control_sweep()
        kinds = list(PROTECTED_SITES) + list(QUEUE_SITES)
        for index in range(sites):
            site = kinds[index % len(kinds)]
            addr = self.rng.choice(self.addrs)
            if site is FaultSite.WQ_DROP:
                self._drop_site(index, addr)
            elif site is FaultSite.WQ_REORDER:
                others = self.rng.sample(self.addrs, k=min(3, len(self.addrs)))
                self._reorder_site(index, others)
            else:
                self._protected_site(index, site, addr)
        self.control_sweep()
        self.injector.detach()
        return self.report


def run_campaign(
    preset: str = "sct", *, sites: int = 200, seed: int = 2024, pages: int = 12
) -> CampaignReport:
    """Sweep ``sites`` seeded fault injections against one preset."""
    if sites <= 0:
        raise ValueError("sites must be positive")
    return _Campaign(preset, seed=seed, pages=pages).run(sites)


def campaign_figure_result(reports: dict[str, CampaignReport]) -> FigureResult:
    """Render campaign reports as the detection-coverage matrix."""
    result = FigureResult(
        figure="Fault campaign",
        title="Tamper-detection coverage by preset and fault site",
        notes=(
            "protected-state corruptions must be 100% detected; wq-drop is "
            "an availability fault (silent by design), wq-reorder must be "
            "architecturally invisible"
        ),
    )
    for preset, report in reports.items():
        for site in PROTECTED_SITES:
            injected = report.injected(site)
            if injected:
                result.add(
                    f"{preset}: {site.value} detected",
                    f"{report.detected(site)}/{injected}",
                    "all",
                )
        for site in QUEUE_SITES:
            injected = report.injected(site)
            if injected:
                result.add(
                    f"{preset}: {site.value} graceful",
                    f"{report.ok_count(site)}/{injected}",
                    "all",
                )
        result.add(
            f"{preset}: false positives",
            report.false_positives,
            0,
            f"of {report.control_reads} control reads",
        )
    return result
