"""Configuration dataclasses and the Table-I presets from the paper.

Every component of the simulated secure processor is parameterised through
these frozen dataclasses.  The two headline presets mirror Table I of the
paper:

* :func:`SecureProcessorConfig.sct_default` — the simulated academic design
  with split-counter encryption (SC) and a split-counter integrity tree
  (SCT, VAULT-style: 32-ary L0, 16-ary L1..L5).
* :func:`SecureProcessorConfig.ht_default` — the same machine with an 8-ary
  Bonsai-Merkle hash tree (HT).
* :func:`SecureProcessorConfig.sgx_default` — the SGX hardware model: 56-bit
  monolithic encryption counters and the 8-ary 4-level SGX integrity tree
  (SIT) with its distinct (higher) latency profile.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

BLOCK_SIZE = 64
PAGE_SIZE = 4096

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


class CounterScheme(enum.Enum):
    """Encryption-counter organisations of Section IV-A / Figure 3."""

    GLOBAL = "GC"
    MONOLITHIC = "MoC"
    SPLIT = "SC"


class TreeKind(enum.Enum):
    """Integrity-tree designs of Section IV-C / Figure 4."""

    HASH = "HT"
    SPLIT_COUNTER = "SCT"
    SGX = "SIT"


class TreeUpdatePolicy(enum.Enum):
    """When tree nodes absorb counter updates (Section V).

    ``EAGER`` updates the whole verification path when the memory controller
    services a data write; ``LAZY`` is the paper's default scheme where only
    the leaf is updated when a dirty encryption-counter block is evicted from
    the metadata cache, and higher levels on dirty node eviction.
    """

    EAGER = "eager"
    LAZY = "lazy"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry, hit latency and replacement policy of one cache."""

    name: str
    size_bytes: int
    ways: int
    hit_latency: int
    block_size: int = BLOCK_SIZE
    replacement: str = "lru"  # "lru" | "plru" | "random"

    @property
    def num_blocks(self) -> int:
        return self.size_bytes // self.block_size

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.ways

    def __post_init__(self) -> None:
        if self.size_bytes % (self.block_size * self.ways) != 0:
            raise ValueError(
                f"cache {self.name}: size {self.size_bytes} not divisible by "
                f"ways*block ({self.ways}*{self.block_size})"
            )


@dataclass(frozen=True)
class DramConfig:
    """Main-memory timing: open-row banks behind a shared bus."""

    banks: int = 16
    row_size: int = 8 * KIB
    row_hit_latency: int = 90
    row_miss_latency: int = 130
    bus_latency: int = 10


@dataclass(frozen=True)
class MemCtrlConfig:
    """Memory-controller write queue (Table I: 64 RD & WR queue, FR-FCFS).

    Only the write queue is modelled; reads are serviced as they arrive.
    """

    write_queue_entries: int = 64
    write_merge: bool = True
    # Fraction of the write queue that, once exceeded, forces a drain burst
    # (FR-FCFS write-drain high watermark).
    drain_watermark: float = 0.75


@dataclass(frozen=True)
class CryptoConfig:
    """Latencies of the on-chip security engine (Table I: 20-cycle AES).

    ``hash_latency`` is per tree-level verification; at 40 cycles, one
    missed tree level costs bus + hash = 50 cycles on the parallel-fetch
    path, keeping the Figure-6 bands separated beyond DRAM row-state
    variance (±40 cycles).
    """

    aes_latency: int = 20
    hash_latency: int = 40
    mac_latency: int = 16
    # True (Synergy [15]) stores the MAC in repurposed ECC bits so data and
    # MAC arrive in one memory read; False models the classical design
    # where every data read issues a second, separate MAC read.  Both are
    # constant-latency per access (Section IV-B: authentication itself
    # leaks nothing) — the flag only shifts the baseline.
    mac_in_ecc: bool = True


@dataclass(frozen=True)
class CounterConfig:
    """Encryption-counter scheme parameters (Section IV-A)."""

    scheme: CounterScheme = CounterScheme.SPLIT
    major_bits: int = 64
    minor_bits: int = 7
    # Width of the single counter in GC/MoC mode.
    monolithic_bits: int = 64

    @property
    def minor_max(self) -> int:
        return (1 << self.minor_bits) - 1


@dataclass(frozen=True)
class TreeConfig:
    """Integrity-tree geometry (Section IV-C, Table I).

    ``arities[i]`` is the fan-in of level-``i`` node blocks; the level above
    ``len(arities)-1`` is the on-chip root array (trusted, free to access).
    """

    kind: TreeKind = TreeKind.SPLIT_COUNTER
    arities: tuple[int, ...] = (32, 16, 16, 16, 16, 16)
    major_bits: int = 56
    minor_bits: int = 7
    monolithic_bits: int = 56  # SIT node counters

    @property
    def levels(self) -> int:
        return len(self.arities)

    @property
    def minor_max(self) -> int:
        return (1 << self.minor_bits) - 1


@dataclass(frozen=True)
class SecureProcessorConfig:
    """Top-level machine description (Table I)."""

    name: str
    cores: int = 4
    sockets: int = 1
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1", 32 * KIB, 8, 1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 1 * MIB, 4, 10)
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig("L3", 8 * MIB, 16, 40)
    )
    metadata_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig("MetaCache", 256 * KIB, 8, 2)
    )
    # Table I reads "counter & Tree cache" as one structure (default).
    # Setting split_metadata_caches gives tree nodes their own cache of
    # ``tree_cache`` geometry (defaults to the metadata cache's) — the
    # VAULT-style organisation.  The attack adapts: eviction sets for tree
    # nodes are then built from pages whose *leaf nodes* alias the target
    # set (see repro.attacks.mapping).
    split_metadata_caches: bool = False
    tree_cache: CacheConfig | None = None
    dram: DramConfig = field(default_factory=DramConfig)
    memctrl: MemCtrlConfig = field(default_factory=MemCtrlConfig)
    crypto: CryptoConfig = field(default_factory=CryptoConfig)
    counters: CounterConfig = field(default_factory=CounterConfig)
    tree: TreeConfig = field(default_factory=TreeConfig)
    protected_size: int = 64 * GIB
    tree_update_policy: TreeUpdatePolicy = TreeUpdatePolicy.LAZY
    # Academic MEEs issue the (address-computable) tree-level fetches in
    # parallel; the SGX MEE walk is modelled serial, which is what stretches
    # its Figure-7 latency range to ~700 cycles.
    parallel_tree_fetch: bool = True
    # Per-domain isolated integrity trees (the Section IX-C mitigation).
    isolated_trees: bool = False
    functional_crypto: bool = True
    # Gaussian sigma (cycles) added to *reported* access latencies, modeling
    # real-machine timer and interconnect noise.  0 = deterministic (tests).
    # Experiments reproducing paper accuracies set ~10 (simulated designs)
    # and ~50 (SGX hardware messiness).
    timer_jitter_sigma: float = 0.0
    seed: int = 2024

    def with_overrides(self, **kwargs: object) -> "SecureProcessorConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Table-I presets
    # ------------------------------------------------------------------

    @staticmethod
    def sct_default(
        protected_size: int = 256 * MIB, **overrides: object
    ) -> "SecureProcessorConfig":
        """Simulated academic design with the split-counter tree (VAULT).

        Table I geometry.  The default protected size is scaled down from
        64 GiB so experiments stay laptop-fast; pass
        ``protected_size=64 * GIB`` for the full Table-I footprint (all
        structures are sparse, so this works, just with deeper effective
        trees).
        """
        config = SecureProcessorConfig(
            name="SCT",
            counters=CounterConfig(scheme=CounterScheme.SPLIT),
            tree=TreeConfig(
                kind=TreeKind.SPLIT_COUNTER,
                arities=(32, 16, 16, 16, 16, 16),
                major_bits=56,
                minor_bits=7,
            ),
            protected_size=protected_size,
        )
        return config.with_overrides(**overrides) if overrides else config

    @staticmethod
    def ht_default(
        protected_size: int = 256 * MIB, **overrides: object
    ) -> "SecureProcessorConfig":
        """Simulated academic design with an 8-ary Bonsai Merkle hash tree."""
        config = SecureProcessorConfig(
            name="HT",
            counters=CounterConfig(scheme=CounterScheme.SPLIT),
            tree=TreeConfig(kind=TreeKind.HASH, arities=(8,) * 6),
            protected_size=protected_size,
        )
        return config.with_overrides(**overrides) if overrides else config

    @staticmethod
    def sgx_default(
        epc_size: int = 93 * MIB + 512 * KIB, **overrides: object
    ) -> "SecureProcessorConfig":
        """SGX hardware model: i7-9700K-style MEE with the SIT.

        56-bit monolithic encryption counters, an 8-ary 4-level counter tree
        whose top (L3) is on-chip, and the higher latency profile observed in
        Figure 7 (reads between ~150 and ~700 cycles).
        """
        config = SecureProcessorConfig(
            name="SGX",
            cores=8,
            l2=CacheConfig("L2", 256 * KIB, 4, 12),
            l3=CacheConfig("L3", 12 * MIB, 16, 42),
            metadata_cache=CacheConfig("MEECache", 64 * KIB, 8, 2),
            dram=DramConfig(
                row_hit_latency=80, row_miss_latency=110, bus_latency=14
            ),
            crypto=CryptoConfig(aes_latency=40, hash_latency=30, mac_latency=30),
            parallel_tree_fetch=False,
            counters=CounterConfig(
                scheme=CounterScheme.MONOLITHIC, monolithic_bits=56
            ),
            tree=TreeConfig(
                kind=TreeKind.SGX, arities=(8, 8, 8), monolithic_bits=56
            ),
            protected_size=epc_size - (epc_size % PAGE_SIZE),
        )
        return config.with_overrides(**overrides) if overrides else config


# Named machine presets.  The single source of truth for every consumer
# that accepts a ``--preset``-style name (CLI, figure harness, fault
# campaigns); look up through :func:`preset_config` for a friendly error
# instead of a bare ``KeyError``.
PRESET_FACTORIES: dict[str, "staticmethod"] = {
    "sct": SecureProcessorConfig.sct_default,
    "ht": SecureProcessorConfig.ht_default,
    "sgx": SecureProcessorConfig.sgx_default,
}

# The Section IX mitigations, as the fields each one sets on any preset.
# Every consumer of a ``--defense``-style name (ablation A3, the fuzzer,
# the service) builds its machine through :func:`preset_config`.
#
# * ``isolated_trees`` (IX-C): mutually distrusting domains get disjoint
#   integrity trees in disjoint node address spaces, so no non-root node
#   is shared.  MetaLeak-T's mReload of an attacker probe can no longer
#   observe a victim-domain node, and MetaLeak-C's counters are never
#   shared.  Pages join a domain through ``mee.set_page_domain``.
# * ``split_llc`` (IX-A): way/set partitioning of the data caches (DAWG,
#   CATalyst) blocks data-cache contention but leaves the metadata cache
#   and tree shared at the memory controller, which is where MetaLeak
#   lives.  Its strongest form is physically disjoint LLCs, i.e. attacker
#   and victim on different sockets, and the channel still works there
#   (Section VI-A).
DEFENSES: dict[str, dict[str, object]] = {
    "none": {},
    "isolated_trees": {"isolated_trees": True},
    "split_llc": {"sockets": 2},
}


def preset_names() -> tuple[str, ...]:
    return tuple(PRESET_FACTORIES)


def _lookup(table: dict[str, object], name: object, what: str) -> object:
    entry = table.get(name) if isinstance(name, str) else None
    if entry is None:
        valid = ", ".join(sorted(table))
        raise ValueError(f"unknown {what} {name!r} (valid {what}s: {valid})")
    return entry


def preset_config(
    name: str, *, defense: str = "none", **overrides: object
) -> SecureProcessorConfig:
    """Build the named preset under the named defense.

    The defense's fields (:data:`DEFENSES`) are applied first, so an
    explicit override of the same field wins.  An unknown preset or
    defense raises :class:`ValueError` naming the valid choices.
    """
    factory = _lookup(PRESET_FACTORIES, name, "preset")
    fields = _lookup(DEFENSES, defense, "defense")
    return factory(**{**fields, **overrides})
