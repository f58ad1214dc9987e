"""Defense studies (Sections IX-B and IX-C).

* :mod:`repro.defenses.mirage_study` — eviction probability under a
  MIRAGE-style randomized cache (Figure 18): randomization stops
  conflict-based *set* attacks but cannot stop an attacker that only needs
  the target evicted eventually.

The machines under a defense (per-domain isolated trees, disjoint LLCs)
are :data:`repro.config.DEFENSES`, built by
:func:`repro.config.preset_config`.
"""

from repro.defenses.mirage_study import mirage_eviction_curve

__all__ = ["mirage_eviction_curve"]
