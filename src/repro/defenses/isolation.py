"""Per-domain isolated integrity trees (the Section IX-C mitigation).

Mutually distrusting domains get disjoint trees (and disjoint node address
spaces), so no non-root tree node is ever shared: MetaLeak-T's mReload of
an attacker probe can no longer observe a victim-domain node, and
MetaLeak-C's counters are never shared.  The cost discussion (dynamic
per-domain trees, re-hashing on growth) is in the paper; this module
provides the functional mechanism for the ablation benchmark.
"""

from __future__ import annotations

from repro.config import MIB, SecureProcessorConfig


def isolated_tree_config(
    protected_size: int = 128 * MIB, **overrides: object
) -> SecureProcessorConfig:
    """An SCT machine with per-domain isolated trees enabled."""
    return SecureProcessorConfig.sct_default(
        protected_size=protected_size,
        isolated_trees=True,
        functional_crypto=False,
        **overrides,
    )
