"""Deterministic random-number plumbing.

Every stochastic component in the simulator (replacement tie-breaks, noise
processes, randomized caches, workload generators) draws from a
:class:`DeterministicRng` derived from a single experiment seed, so that any
experiment is exactly reproducible from its seed while distinct components
remain statistically independent.
"""

from __future__ import annotations

import hashlib
import random


class DeterministicRng(random.Random):
    """A ``random.Random`` that remembers the seed material it was built from.

    Subclassing keeps the full stdlib API (``randrange``, ``shuffle``,
    ``gauss``, ...) available while letting us derive labelled child
    generators via :func:`derive_rng`.
    """

    def __init__(self, seed_material: bytes) -> None:
        self._seed_material = bytes(seed_material)
        super().__init__(int.from_bytes(hashlib.blake2b(self._seed_material).digest()[:16], "little"))

    @property
    def seed_material(self) -> bytes:
        """The bytes this generator was seeded from."""
        return self._seed_material

    def child(self, label: str) -> "DeterministicRng":
        """Derive an independent child generator identified by ``label``."""
        return DeterministicRng(self._seed_material + b"/" + label.encode())


def derive_rng(seed: int | str | bytes, *labels: str) -> DeterministicRng:
    """Build a :class:`DeterministicRng` from a root seed plus a label path.

    >>> a = derive_rng(42, "noise")
    >>> b = derive_rng(42, "noise")
    >>> a.random() == b.random()
    True
    """
    if isinstance(seed, int):
        material = seed.to_bytes(16, "little", signed=True)
    elif isinstance(seed, str):
        material = seed.encode()
    else:
        material = bytes(seed)
    # The generator ``child`` would reach through each label, seeded once
    # from the final material instead of once per step.
    for label in labels:
        material += b"/" + label.encode()
    return DeterministicRng(material)
