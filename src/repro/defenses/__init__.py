"""Defense studies (Sections IX-B and IX-C).

* :mod:`repro.defenses.mirage_study` — eviction probability under a
  MIRAGE-style randomized cache (Figure 18): randomization stops
  conflict-based *set* attacks but cannot stop an attacker that only needs
  the target evicted eventually.
* :mod:`repro.defenses.isolation` — per-domain isolated integrity trees,
  the paper's suggested direction: removes the shared-node channel.
* :mod:`repro.defenses.partition` — data-cache partitioning/isolation
  stand-ins, shown *not* to help because the channel lives in the metadata
  path, not the data caches.
"""

from repro.defenses.isolation import isolated_tree_config
from repro.defenses.mirage_study import mirage_eviction_curve
from repro.defenses.partition import partitioned_llc_config

__all__ = [
    "isolated_tree_config",
    "mirage_eviction_curve",
    "partitioned_llc_config",
]
