"""Shared low-level utilities: bit manipulation, deterministic RNG, statistics.

These helpers are substrate-neutral: nothing in here knows about caches,
metadata or attacks.  Higher layers (``repro.mem``, ``repro.secmem``,
``repro.attacks``) build on them.
"""

from repro.utils.bitops import align_up, is_power_of_two, log2_exact
from repro.utils.rng import DeterministicRng, derive_rng
from repro.utils.stats import (
    DistributionSummary,
    accuracy,
    summarize,
)

__all__ = [
    "align_up",
    "is_power_of_two",
    "log2_exact",
    "DeterministicRng",
    "derive_rng",
    "DistributionSummary",
    "accuracy",
    "summarize",
]
