"""Regenerate every evaluation table and figure of the paper.

Each function runs the full experiment behind one figure and returns a
:class:`~repro.analysis.report.FigureResult` carrying measured values next
to the paper's reported numbers.  Absolute cycle counts will not match the
authors' gem5/testbed values; the claims under reproduction are the
*shapes*: ordering and separability of the latency bands, who wins each
covert/side-channel experiment, and roughly by how much.

Jitter settings: experiments on the simulated academic designs add a
sigma≈11-cycle timer noise; SGX experiments use sigma≈88, modelling the far
messier real machine (prefetchers, SMIs, ring contention) — calibrated so
the headline accuracies land near the paper's.
"""

from __future__ import annotations

from repro.analysis.jpeg_attack import run_jpeg_metaleak_c, run_jpeg_metaleak_t
from repro.analysis.kvstore_attack import run_kvstore_attack
from repro.analysis.mbedtls_attack import run_mbedtls_attack
from repro.analysis.report import FigureResult
from repro.analysis.rsa_attack import run_rsa_attack
from repro.analysis.sweeps import sweep_noise_ecc
from repro.attacks.covert import CovertChannelC, CovertChannelT
from repro.attacks.metaleak_t import MetaLeakT
from repro.config import (
    MIB,
    PAGE_SIZE,
    CounterScheme,
    SecureProcessorConfig,
    TreeUpdatePolicy,
    preset_config,
)
from repro.defenses.isolation import isolated_tree_config
from repro.defenses.mirage_study import mirage_eviction_curve
from repro.defenses.partition import partitioned_llc_config
from repro.os.page_alloc import PageAllocator
from repro.proc.processor import SecureProcessor
from repro.utils.rng import derive_rng
from repro.utils.stats import summarize

SCT_JITTER = 11.0
SGX_JITTER = 88.0

_DEFAULT_SIZE = 256 * MIB


def _machine(
    preset: str = "sct", *, jitter: float = 0.0, **overrides: object
) -> tuple[SecureProcessor, PageAllocator]:
    size = overrides.pop("protected_size", _DEFAULT_SIZE)
    if preset != "sgx":
        # The SGX preset derives its protected size from the EPC model.
        overrides["protected_size"] = size
    config = preset_config(
        preset,
        functional_crypto=False,
        timer_jitter_sigma=jitter,
        **overrides,
    )
    proc = SecureProcessor(config)
    allocator = PageAllocator(
        proc.layout.data_size // PAGE_SIZE, cores=proc.config.cores
    )
    return proc, allocator


# ----------------------------------------------------------------------
# Figures 6 & 7: access-path latency distributions
# ----------------------------------------------------------------------


def _path_latency_samples(
    proc: SecureProcessor, samples: int, *, stride_pages: int = 3
) -> dict[str, list[int]]:
    """Collect per-path latency samples by steering metadata cache state."""
    layout = proc.layout
    buckets: dict[str, list[int]] = {
        "Path-1 (L1)": [],
        "Path-1 (LLC)": [],
        "Path-2 (ctr hit)": [],
        "Path-3 (tree leaf hit)": [],
        "Path-4 (1 level missed)": [],
        "Path-4 (all levels missed)": [],
    }
    levels = len(layout.levels)
    for i in range(samples):
        addr = (8 + i * stride_pages) * PAGE_SIZE
        counter_addr = layout.counter_block_addr(addr)
        node_addrs = [layout.node_addr_for_data(addr, lv) for lv in range(levels)]

        proc.quiesce()
        buckets["Path-4 (all levels missed)"].append(proc.read(addr).latency)
        buckets["Path-1 (L1)"].append(proc.read(addr).latency)
        proc.caches.core_caches[0].l1.invalidate(addr)
        proc.caches.core_caches[0].l2.invalidate(addr)
        buckets["Path-1 (LLC)"].append(proc.read(addr).latency)
        proc.flush(addr)
        proc.quiesce()
        buckets["Path-2 (ctr hit)"].append(proc.read(addr).latency)
        proc.flush(addr)
        proc.mee.invalidate_metadata(counter_addr)
        proc.quiesce()
        buckets["Path-3 (tree leaf hit)"].append(proc.read(addr).latency)
        proc.flush(addr)
        proc.mee.invalidate_metadata(counter_addr)
        proc.mee.invalidate_metadata(node_addrs[0])
        proc.quiesce()
        buckets["Path-4 (1 level missed)"].append(proc.read(addr).latency)
        proc.flush(addr)
        proc.mee.flush_metadata_cache(proc.cycle)
    return buckets


def fig6_access_paths(samples: int = 40) -> FigureResult:
    """Figure 6: read-latency distribution across access paths (SCT)."""
    proc, _ = _machine("sct")
    buckets = _path_latency_samples(proc, samples)
    result = FigureResult(
        figure="Figure 6",
        title="Latency distribution across access paths (simulated SCT)",
        notes=(
            "paper reports 30-400 cycles across paths, ~450 when all tree "
            "levels miss; shape to match: strictly increasing, separable "
            "bands"
        ),
    )
    paper = {
        "Path-1 (L1)": "~1-4",
        "Path-1 (LLC)": "~30-40",
        "Path-2 (ctr hit)": "~150-200",
        "Path-3 (tree leaf hit)": "~250-300",
        "Path-4 (1 level missed)": "~300-350",
        "Path-4 (all levels missed)": "~450",
    }
    for label, latencies in buckets.items():
        result.add(label, summarize(latencies).median, paper[label], "cycles")
    return result


def fig7_sgx_paths(samples: int = 40) -> FigureResult:
    """Figure 7: read-latency distributions on the SGX model."""
    proc, _ = _machine("sgx")
    buckets = _path_latency_samples(proc, samples)
    result = FigureResult(
        figure="Figure 7",
        title="Latency distributions across access paths (SGX / SIT)",
        notes="paper: 150-700 cycles; leaf-hit ~250, all-miss ~650",
    )
    paper = {
        "Path-1 (L1)": "~1-4",
        "Path-1 (LLC)": "~40-60",
        "Path-2 (ctr hit)": "~150-200",
        "Path-3 (tree leaf hit)": "~250",
        "Path-4 (1 level missed)": "~400",
        "Path-4 (all levels missed)": "~650",
    }
    for label, latencies in buckets.items():
        result.add(label, summarize(latencies).median, paper[label], "cycles")
    return result


# ----------------------------------------------------------------------
# Figure 8: counter-overflow latency bands
# ----------------------------------------------------------------------


def fig8_overflow_bands(cycles: int = 3) -> FigureResult:
    """Figure 8: observable read latency with and without overflow.

    The paper's microbenchmark: perform ``2^n - 1`` writes that update one
    *leaf* tree counter node (rotating across the page's blocks so no
    encryption counter overflows), then keep writing; a concurrently timed
    read lands in the quiet band except when the 128th update fires the
    leaf-minor overflow and its subtree re-hash burst.
    """
    from repro.attacks.mapping import MetadataEvictor

    proc, allocator = _machine("sct")
    page = allocator.alloc_specific(64)
    base = page * PAGE_SIZE
    cb_addr = proc.layout.counter_block_addr(base)
    evictor = MetadataEvictor(proc, allocator, core=0)
    quiet: list[int] = []
    overflow: list[int] = []
    overflows_seen = 0
    for i in range(cycles * 130):
        proc.write_through(base + (i % 64) * 64, b"z")
        proc.drain_writes()
        # Write back the counter block: the leaf minor absorbs the update.
        evictor.evict((cb_addr,))
        latency = evictor.last_max_read_latency
        # Trailing timed read (same-bank observer of Figure 8).
        proc.flush(base + ((i + 7) % 64) * 64)
        latency = max(
            latency, proc.read(base + ((i + 7) % 64) * 64, core=1).latency
        )
        overflows = proc.mee.registry.get("tree_counter_overflows")
        if overflows > overflows_seen:
            overflows_seen = overflows
            overflow.append(latency)
        else:
            quiet.append(latency)
        if len(overflow) >= cycles:
            break
    result = FigureResult(
        figure="Figure 8",
        title="Memory latency impacted by tree-counter overflow",
        notes=(
            "paper: two distinct latency bands ~2000 cycles apart; "
            "shape to match: clean bimodal separation"
        ),
    )
    result.add("no-overflow band (median)", summarize(quiet).median, "~500", "cycles")
    result.add("no-overflow band (max)", summarize(quiet).maximum, None, "cycles")
    result.add(
        "overflow band (median)", summarize(overflow).median, "~2500", "cycles"
    )
    result.add(
        "band separation",
        summarize(overflow).minimum - summarize(quiet).maximum,
        "~2000",
        "cycles",
    )
    return result


# ----------------------------------------------------------------------
# Figures 11 & 14: covert channels
# ----------------------------------------------------------------------


def _random_bits(count: int, seed: int = 11) -> list[int]:
    rng = derive_rng(seed, "covert-bits")
    return [rng.randint(0, 1) for _ in range(count)]


def fig11_covert_t(bits: int = 1000) -> FigureResult:
    """Figure 11: MetaLeak-T covert channel accuracy (SCT and SIT)."""
    payload = _random_bits(bits)

    proc, allocator = _machine("sct", jitter=SCT_JITTER)
    sct_report = CovertChannelT(proc, allocator).transmit(payload)

    proc, allocator = _machine("sgx", jitter=SGX_JITTER)
    sit_report = CovertChannelT(proc, allocator, level=1).transmit(payload)

    result = FigureResult(
        figure="Figure 11",
        title="MetaLeak-T covert channel (1000-bit transmissions)",
    )
    result.add("SCT bit accuracy", sct_report.accuracy, 0.993)
    result.add("SIT (SGX) bit accuracy", sit_report.accuracy, 0.943)
    result.add(
        "SCT throughput", sct_report.bits_per_kilocycle(), None, "bits/kcycle"
    )
    result.add(
        "SIT throughput", sit_report.bits_per_kilocycle(), None, "bits/kcycle"
    )
    return result


def fig14_covert_c(symbols: int = 200) -> FigureResult:
    """Figure 14: MetaLeak-C covert channel (7-bit symbols)."""
    rng = derive_rng(14, "covert-symbols")
    proc, allocator = _machine("sct", jitter=SCT_JITTER)
    channel = CovertChannelC(proc, allocator)
    payload = [rng.randint(0, channel.max_symbol) for _ in range(symbols)]
    report = channel.transmit(payload)
    exact = report.accuracy
    result = FigureResult(
        figure="Figure 14",
        title="MetaLeak-C covert channel (7-bit symbol transmissions)",
    )
    result.add("symbol accuracy", exact, 0.997)
    result.add(
        "throughput",
        report.bits_per_kilocycle(bits_per_symbol=7),
        None,
        "bits/kcycle",
    )
    return result


# ----------------------------------------------------------------------
# Figure 12: resolution/coverage vs tree level
# ----------------------------------------------------------------------


def fig12_tree_levels(
    levels: tuple[int, ...] = (0, 1, 2, 3), rounds: int = 25
) -> FigureResult:
    """Figure 12: mEvict+mReload interval and coverage per tree level."""
    result = FigureResult(
        figure="Figure 12",
        title="mEvict+mReload interval & spatial coverage vs tree level",
        notes=(
            "shape to match: interval (temporal resolution cost) grows "
            "with level while coverage grows exponentially"
        ),
    )
    # A level-3 node covers 512 MiB, so this experiment runs on a larger
    # protected region (all simulator structures are sparse).
    proc, allocator = _machine("sct", protected_size=2 * 1024 * MIB)
    victim_frame = allocator.alloc_specific(7 * 32 * 16)
    attack = MetaLeakT(proc, allocator, core=1)
    previous_interval = None
    for level in levels:
        monitor = attack.monitor_for_page(victim_frame, level=level)
        start = proc.cycle
        for _ in range(rounds):
            monitor.m_evict()
            monitor.m_reload()
        interval = (proc.cycle - start) / rounds
        coverage_pages = len(proc.layout.pages_sharing_node(victim_frame, level))
        result.add(
            f"L{level} interval",
            round(interval, 1),
            None if previous_interval is None else ">= previous",
            "cycles/round",
        )
        result.add(
            f"L{level} coverage",
            coverage_pages * PAGE_SIZE // 1024,
            f"grows x{proc.layout.levels[level].arity}" if level else "128 (32 pages)",
            "KiB",
        )
        previous_interval = interval
    return result


# ----------------------------------------------------------------------
# Figure 15: image stealing
# ----------------------------------------------------------------------


def fig15_jpeg(
    images: tuple[str, ...] = ("circles", "stripes", "text"),
    *,
    size: int = 32,
    noise_reads: int = 2,
    include_metaleak_c: bool = True,
    save_dir: str | None = None,
) -> FigureResult:
    """Figure 15 + Section VIII-A2: image reconstruction case study.

    ``save_dir`` writes original/stolen/oracle PGM triples per image —
    the visual part of the paper's Figure 15.
    """
    result = FigureResult(
        figure="Figure 15",
        title="libjpeg image stealing (MetaLeak-T) and zero-element "
        "recovery (MetaLeak-C)",
    )
    config = SecureProcessorConfig.sct_default(
        protected_size=_DEFAULT_SIZE,
        functional_crypto=False,
        timer_jitter_sigma=SCT_JITTER,
    )
    accuracies = []
    for name in images:
        outcome = run_jpeg_metaleak_t(
            name, size=size, config=config, noise_reads=noise_reads
        )
        if save_dir is not None:
            import pathlib

            from repro.victims.jpeg.reconstruct import save_pgm

            directory = pathlib.Path(save_dir)
            directory.mkdir(parents=True, exist_ok=True)
            save_pgm(outcome.original, str(directory / f"{name}_original.pgm"))
            save_pgm(outcome.reconstructed, str(directory / f"{name}_stolen.pgm"))
            save_pgm(outcome.oracle, str(directory / f"{name}_oracle.pgm"))
        accuracies.append(outcome.stealing_accuracy)
        result.add(f"{name}: stealing accuracy", outcome.stealing_accuracy, None)
        result.add(
            f"{name}: feature correlation vs oracle",
            outcome.reconstruction_correlation,
            None,
        )
    result.add(
        "MetaLeak-T mean stealing accuracy",
        sum(accuracies) / len(accuracies),
        0.943,
    )
    if include_metaleak_c:
        outcome_c = run_jpeg_metaleak_c(images[0], size=16, config=None)
        result.add(
            "MetaLeak-C zero-element recovery", outcome_c.zero_accuracy, 0.972
        )
    return result


# ----------------------------------------------------------------------
# Figures 16 & 17: cryptographic case studies
# ----------------------------------------------------------------------


def fig16_rsa(exponent_bits: int = 128) -> FigureResult:
    """Figure 16: RSA exponent recovery from libgcrypt square-and-multiply."""
    sgx_config = SecureProcessorConfig.sgx_default(
        epc_size=64 * MIB, functional_crypto=False, timer_jitter_sigma=SGX_JITTER
    )
    sct_config = SecureProcessorConfig.sct_default(
        protected_size=_DEFAULT_SIZE,
        functional_crypto=False,
        timer_jitter_sigma=SCT_JITTER,
    )
    sgx = run_rsa_attack("sgx", exponent_bits=exponent_bits, config=sgx_config)
    sct = run_rsa_attack("sct", exponent_bits=exponent_bits, config=sct_config)
    result = FigureResult(
        figure="Figure 16",
        title="Secret-exponent recovery from square-and-multiply",
    )
    result.add("SGX exponent bit accuracy", sgx.bit_accuracy, 0.912)
    result.add("SGX per-op detection", sgx.op_accuracy, None)
    result.add("SCT exponent bit accuracy", sct.bit_accuracy, 0.951)
    result.add("SCT per-op detection", sct.op_accuracy, None)
    return result


def fig17_mbedtls(
    secret_bits: int = 128, *, recover: bool = True, max_runs: int = 11
) -> FigureResult:
    """Figure 17: shift/sub access detection during mbedTLS key loading.

    Goes one step further than the paper's detection metric: with operand
    -buffer attribution and majority voting over repeated key loads, the
    secret phi is recovered *exactly* and verified against the public
    modulus (the computational recovery the paper cites as [91],[93],[94]).
    """
    config = SecureProcessorConfig.sgx_default(
        epc_size=64 * MIB, functional_crypto=False, timer_jitter_sigma=SGX_JITTER
    )
    outcome = run_mbedtls_attack(
        secret_bits=secret_bits, config=config, recover=recover, max_runs=max_runs
    )
    result = FigureResult(
        figure="Figure 17",
        title="mbedTLS key-loading shift/sub access detection (SGX)",
    )
    result.add("overall detection accuracy", outcome.op_accuracy, 0.907)
    result.add("shift detection", outcome.shift_accuracy, None)
    result.add("sub detection", outcome.sub_accuracy, None)
    if recover:
        result.add(
            "exact phi recovery (majority-voted)",
            "yes" if outcome.recovery_correct else "no",
            "computationally recoverable [91],[93],[94]",
        )
        result.add("key-load repetitions used", outcome.runs_used, None)
    return result


def case_kvstore(puts: int = 6, buckets: int = 4) -> FigureResult:
    """Persistent key-value store recovery (MetaLeak-C write monitoring).

    The threat model's persistent-memory target made concrete: every
    ``put`` write-throughs a log record and a bucket page, and shared
    tree minors reveal which bucket — leaking the keys' hash
    distribution — plus the operation count from the log counter.
    """
    keys = [f"user:{index:04d}" for index in range(puts)]
    outcome = run_kvstore_attack(keys, buckets=buckets)
    result = FigureResult(
        figure="Case study: kvstore",
        title="Key-value store bucket recovery via shared tree minors",
        notes="write-through persistence means every put bumps counters; "
        "confidence is per-put (1.0 = exactly one counter fired)",
    )
    result.add("bucket recovery accuracy", outcome.bucket_accuracy, ">= 0.95")
    result.add("mean per-put confidence", round(outcome.mean_confidence, 3), None)
    result.add(
        "log-write count recovered",
        outcome.puts_observed,
        outcome.puts_true,
    )
    result.add(
        "degraded",
        ", ".join(outcome.degraded_reasons) if outcome.degraded else "no",
        "no",
    )
    return result


# ----------------------------------------------------------------------
# Figure 18: MIRAGE randomized-cache study
# ----------------------------------------------------------------------


def fig18_mirage(
    access_counts: tuple[int, ...] = (1000, 3000, 5000, 7000, 9000, 12000),
    trials: int = 30,
) -> FigureResult:
    """Figure 18: eviction accuracy vs number of random accesses."""
    points = mirage_eviction_curve(access_counts, trials=trials)
    result = FigureResult(
        figure="Figure 18",
        title="Target eviction accuracy under MIRAGE randomization",
        notes=(
            "paper: ~7000 random accesses evict the target with >90% "
            "probability (16-way 256KB metadata cache); shape to match: "
            "monotone rise crossing ~0.9 in the thousands"
        ),
    )
    for point in points:
        paper = 0.9 if point.accesses == 7000 else None
        result.add(f"{point.accesses} accesses", point.accuracy, paper)
    return result


# ----------------------------------------------------------------------
# Ablations (design-space points the paper discusses)
# ----------------------------------------------------------------------


def ablation_counter_schemes() -> FigureResult:
    """VUL-1 scope: blocks re-encrypted per overflow, by counter scheme."""
    result = FigureResult(
        figure="Ablation A1",
        title="Encryption-counter overflow cost by scheme (Algorithm 1)",
        notes="GC/MoC re-encrypt all written memory; SC only one page group",
    )
    from repro.config import CounterConfig

    for scheme, bits, paper in (
        (CounterScheme.GLOBAL, 7, "all written blocks"),
        (CounterScheme.MONOLITHIC, 7, "all written blocks"),
        (CounterScheme.SPLIT, 7, "one page group"),
    ):
        config = SecureProcessorConfig.sct_default(
            protected_size=64 * MIB,
            functional_crypto=False,
        ).with_overrides(
            counters=CounterConfig(scheme=scheme, minor_bits=7, monolithic_bits=bits)
        )
        proc = SecureProcessor(config)
        # Eight writes to distant pages, three to neighbours of the block
        # that will overflow: GC/MoC must re-encrypt all eleven, SC only
        # the three sharing the spun block's page group.
        for page in range(4, 68, 8):
            proc.write_through(page * PAGE_SIZE, b"x")
        spin = 100 * PAGE_SIZE
        for neighbor in range(1, 4):
            proc.write_through(spin + neighbor * 64, b"n")
        proc.drain_writes()
        tally = proc.mee.registry.get
        while tally("enc_counter_overflows") == 0:
            proc.write_through(spin, b"y")
            proc.drain_writes()
        result.add(
            f"{scheme.value} re-encrypted blocks",
            tally("reencrypted_blocks"),
            paper,
        )
    return result


def ablation_update_policy(bits: int = 60) -> FigureResult:
    """Lazy vs eager tree update: the covert channel works under both."""
    payload = _random_bits(bits)
    result = FigureResult(
        figure="Ablation A2",
        title="MetaLeak-T covert accuracy: lazy vs eager tree updates",
    )
    for policy in (TreeUpdatePolicy.LAZY, TreeUpdatePolicy.EAGER):
        proc, allocator = _machine("sct", tree_update_policy=policy)
        report = CovertChannelT(proc, allocator).transmit(payload)
        result.add(f"{policy.value} policy accuracy", report.accuracy, 1.0)
    return result


def ablation_defenses(bits: int = 60) -> FigureResult:
    """Which defenses stop MetaLeak-T? (Sections IX-A/IX-C)."""
    payload = _random_bits(bits)
    result = FigureResult(
        figure="Ablation A3",
        title="MetaLeak-T covert accuracy under defenses",
        notes=(
            "data-cache partitioning (disjoint LLCs) does not help; only "
            "per-domain isolated trees collapse the channel to chance"
        ),
    )
    proc, allocator = _machine("sct")
    baseline = CovertChannelT(proc, allocator).transmit(payload)
    result.add("baseline (no defense)", baseline.accuracy, "~1.0")

    config = partitioned_llc_config(protected_size=_DEFAULT_SIZE)
    proc = SecureProcessor(config)
    allocator = PageAllocator(proc.layout.data_size // PAGE_SIZE, cores=4)
    cross = CovertChannelT(
        proc, allocator, trojan_core=0, spy_core=2
    ).transmit(payload)
    result.add("disjoint LLCs (cross-socket)", cross.accuracy, "~1.0 (ineffective)")

    config = isolated_tree_config(protected_size=_DEFAULT_SIZE)
    proc = SecureProcessor(config)
    allocator = PageAllocator(proc.layout.data_size // PAGE_SIZE, cores=4)
    channel = CovertChannelT(proc, allocator)
    # Trojan pages belong to domain 1, spy (and its probes) to domain 0.
    proc.mee.set_page_domain(channel._trojan_tx, 1)
    proc.mee.set_page_domain(channel._trojan_bd, 1)
    isolated = channel.transmit(payload)
    result.add("per-domain isolated trees", isolated.accuracy, "~0.5 (chance)")
    return result


def ablation_tree_designs(bits: int = 60) -> FigureResult:
    """MetaLeak-T across all three integrity-tree designs.

    Section V notes "similar latency distributions in a simulated HT-based
    design"; the channel is a property of tree-node *sharing*, present in
    HT, SCT and SIT alike.
    """
    payload = _random_bits(bits)
    result = FigureResult(
        figure="Ablation A4",
        title="MetaLeak-T covert accuracy across integrity-tree designs",
    )
    for preset, level, label in (
        ("sct", 0, "SCT (split-counter tree)"),
        ("ht", 0, "HT (hash tree / BMT)"),
        ("sgx", 1, "SIT (SGX tree)"),
    ):
        proc, allocator = _machine(preset)
        report = CovertChannelT(proc, allocator, level=level).transmit(payload)
        result.add(label, report.accuracy, ">= 0.95")
    return result


def ablation_mac_placement(bits: int = 40) -> FigureResult:
    """MAC-in-ECC (Synergy) vs classical separate MAC reads.

    Section IV-B: authentication latency is constant either way, so the
    MAC design neither creates nor removes the metadata channel — only
    the latency baseline shifts.
    """
    from repro.config import CryptoConfig

    payload = _random_bits(bits)
    result = FigureResult(
        figure="Ablation A5",
        title="MetaLeak-T accuracy vs MAC placement (constant-latency MACs)",
    )
    for mac_in_ecc, label in ((True, "MAC in ECC (Synergy)"), (False, "separate MAC read")):
        proc, allocator = _machine(
            "sct", crypto=CryptoConfig(mac_in_ecc=mac_in_ecc)
        )
        # Path-2 baseline (counter cached): here the data+MAC fetch is the
        # critical path, so the extra MAC read is visible.
        proc.read(0x40000)
        proc.flush(0x40000)
        proc.quiesce()
        baseline = proc.read(0x40000).latency
        report = CovertChannelT(proc, allocator).transmit(payload)
        result.add(f"{label}: accuracy", report.accuracy, ">= 0.95")
        result.add(f"{label}: Path-2 baseline", baseline, None, "cycles")
    return result


def ablation_split_caches(bits: int = 40) -> FigureResult:
    """Combined vs split counter/tree metadata caches (VAULT organisation).

    With split caches, counter-block fills can no longer evict tree nodes,
    so the attacker switches to leaf-node-aliasing eviction sets (pages a
    full tree-cache period apart).  The channel survives unchanged; only
    the attacker's address-space reach grows.
    """
    from repro.config import GIB, KIB, CacheConfig

    payload = _random_bits(bits)
    result = FigureResult(
        figure="Ablation A6",
        title="MetaLeak-T under combined vs split metadata caches",
    )
    combined = SecureProcessorConfig.sct_default(
        protected_size=1 * GIB, functional_crypto=False
    )
    split = combined.with_overrides(
        split_metadata_caches=True,
        metadata_cache=CacheConfig("CtrCache", 128 * KIB, 8, 2),
        tree_cache=CacheConfig("TreeCache", 128 * KIB, 8, 2),
    )
    for label, config in (("combined 256K", combined), ("split 128K+128K", split)):
        proc = SecureProcessor(config)
        allocator = PageAllocator(proc.layout.data_size // PAGE_SIZE, cores=4)
        channel = CovertChannelT(proc, allocator)
        report = channel.transmit(payload)
        result.add(f"{label}: accuracy", report.accuracy, ">= 0.95")
        rounds = max(1, channel.tx_monitor.stats.rounds)
        result.add(
            f"{label}: evict accesses/round",
            round(channel.tx_monitor.stats.evict_accesses / rounds, 1),
            None,
        )
    return result


def leakcheck_matrix(
    victims: tuple[str, ...] = ("rsa", "mbedtls", "kvstore", "jpeg", "const"),
    seed: int = 0,
) -> FigureResult:
    """Automated leakage detection across the victim registry.

    Not a paper figure per se — it is the paper's Table-II-style claim
    ("metadata operations are secret-dependent for these workloads")
    rediscovered mechanically by the paired-secret trace differ.  The
    "paper" column is the expected verdict: every real victim leaks
    through metadata; the constant-time reference must come back clean.
    """
    from repro.leakcheck import run_leakcheck

    result = FigureResult(
        figure="leakcheck",
        title="Automated metadata-leakage detection (paired-secret traces)",
        notes="flagged kinds counted per victim; expected column is the "
        "ground-truth verdict",
    )
    for name in victims:
        report = run_leakcheck(name, seed=seed)
        expected = "clean" if name == "const" else "leaky"
        result.add(
            f"{name}: verdict",
            "leaky" if report.leaky else "clean",
            expected,
        )
        result.add(
            f"{name}: flagged event kinds",
            len(report.flagged_findings),
            None,
        )
        metadata_kinds = sum(
            1
            for finding in report.flagged_findings
            if finding.component in ("mee", "tree")
            or finding.component.startswith("cache.Meta")
        )
        result.add(f"{name}: metadata kinds flagged", metadata_kinds, None)
    return result


def perf_attribution(samples: int = 20) -> FigureResult:
    """Cycle-attribution profile across the paper's access paths.

    Attaches the :class:`~repro.perf.CycleAttributor` to the Figure-6
    path-steering workload and reports where each path's cycles went.
    Conservation (attributed == end-to-end) is verified, and the
    metadata-plus-crypto share must grow from Path-2 to Path-4 — the
    same structural fact the MetaLeak timing channels exploit.
    """
    from repro.perf import CycleAttributor

    proc, _ = _machine("sct")
    attributor = CycleAttributor()
    proc.attach(attributor)
    _path_latency_samples(proc, samples)
    attributor.verify()
    result = FigureResult(
        figure="Perf",
        title="Cycle attribution across access paths (simulated SCT)",
        notes=(
            "conservation-checked: component cycles sum exactly to "
            "end-to-end latency; metadata+crypto share grows as the "
            "metadata walk deepens (Path-2 -> Path-4)"
        ),
    )
    result.add("accesses attributed", attributor.accesses, None)
    result.add("cycles attributed (conserved)", attributor.cycles, None)
    for profile in attributor.profiles():
        if profile.op != "read" or profile.path is None:
            continue
        security = sum(
            value for key, value in profile.parts.items()
            if key.startswith(("meta.", "mee."))
        )
        share = security / profile.cycles if profile.cycles else 0.0
        result.add(
            f"{profile.path}: metadata+crypto share",
            f"{share:.1%}",
            None,
        )
    return result


ALL_FIGURES = {
    "fig6": fig6_access_paths,
    "fig7": fig7_sgx_paths,
    "fig8": fig8_overflow_bands,
    "fig11": fig11_covert_t,
    "fig12": fig12_tree_levels,
    "fig14": fig14_covert_c,
    "fig15": fig15_jpeg,
    "fig16": fig16_rsa,
    "fig17": fig17_mbedtls,
    "fig18": fig18_mirage,
    "case_kvstore": case_kvstore,
    "ablation_counters": ablation_counter_schemes,
    "ablation_policy": ablation_update_policy,
    "ablation_defenses": ablation_defenses,
    "ablation_trees": ablation_tree_designs,
    "ablation_mac": ablation_mac_placement,
    "ablation_split": ablation_split_caches,
    "sweep_ecc": sweep_noise_ecc,
    "leakcheck": leakcheck_matrix,
    "perf_attribution": perf_attribution,
}
