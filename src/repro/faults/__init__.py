"""Deterministic fault injection for the secure-processor model.

The paper's trust argument rests on the metadata machinery *detecting*
off-chip tampering; this package provides the adversarial counterpart to
the happy-path simulator: a seeded fault-injection engine
(:mod:`repro.faults.injector`) that tampers with DRAM-resident state
directly and hooks the memory controller's drain bursts and the
security engine's metadata fills, plus a campaign driver
(:mod:`repro.faults.campaign`) that sweeps hundreds of injection sites
per machine preset and asserts that every corruption of protected state
raises :class:`~repro.secmem.engine.IntegrityViolation`.
"""

from repro.faults.campaign import (
    CampaignReport,
    SiteOutcome,
    campaign_figure_result,
    run_campaign,
)
from repro.faults.hooks import FaultHook
from repro.faults.injector import FaultInjector, FaultSite

__all__ = [
    "CampaignReport",
    "FaultHook",
    "FaultInjector",
    "FaultSite",
    "SiteOutcome",
    "campaign_figure_result",
    "run_campaign",
]
