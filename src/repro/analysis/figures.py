"""Regenerate every evaluation table and figure of the paper.

Each function runs the full experiment behind one figure and returns a
:class:`~repro.analysis.report.FigureResult` carrying measured values next
to the paper's reported numbers.  Absolute cycle counts will not match the
authors' gem5/testbed values; the claims under reproduction are the
*shapes*: ordering and separability of the latency bands, who wins each
covert/side-channel experiment, and roughly by how much.  Each function
attaches those shape claims to its result, tagged with the smallest scale
at which they hold.

:data:`FIGURES` is the one declaration of every experiment: its function
(whose defaults are the full scale), the label ``repro list`` prints and
the kwargs of a ``--quick`` run.

Jitter settings: experiments on the simulated academic designs add a
sigma≈11-cycle timer noise; SGX experiments use sigma≈88, modelling the far
messier real machine (prefetchers, SMIs, ring contention) — calibrated so
the headline accuracies land near the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.jpeg_attack import run_jpeg_metaleak_c, run_jpeg_metaleak_t
from repro.analysis.kvstore_attack import run_kvstore_attack
from repro.analysis.mbedtls_attack import run_mbedtls_attack
from repro.analysis.overhead import overhead_study
from repro.analysis.report import FULL, FigureResult
from repro.analysis.rsa_attack import run_rsa_attack
from repro.analysis.sweeps import (
    sweep_metadata_cache_size,
    sweep_minor_counter_bits,
    sweep_noise_ecc,
    sweep_noise_intensity,
    sweep_replacement_policy,
    sweep_step_interval,
)
from repro.attacks.covert import CovertChannelC, CovertChannelT
from repro.attacks.metaleak_t import MetaLeakT
from repro.config import (
    KIB,
    MIB,
    PAGE_SIZE,
    CounterScheme,
    SecureProcessorConfig,
    TreeKind,
    TreeUpdatePolicy,
    preset_config,
)
from repro.defenses.mirage_study import mirage_eviction_curve
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
    """``preset`` with functional crypto off; ``overrides`` (a ``defense``
    among them) go to :func:`preset_config`."""
    config = preset_config(
        preset,
        functional_crypto=False,
        timer_jitter_sigma=jitter,
        **overrides,
    )
    proc = SecureProcessor(config)
    return proc, PageAllocator.for_machine(proc)


# ----------------------------------------------------------------------
# Table I: machine configurations
# ----------------------------------------------------------------------


def table1_config() -> FigureResult:
    """Table I: the shipped presets implement the paper's parameters."""
    sct = SecureProcessorConfig.sct_default()
    ht = SecureProcessorConfig.ht_default()
    sgx = SecureProcessorConfig.sgx_default()
    result = FigureResult(figure="Table I", title="Machine configurations")
    result.add("cores", sct.cores, 4)
    result.add("L1", sct.l1.size_bytes // KIB, 32, "KiB, 8-way")
    result.add("L2", sct.l2.size_bytes // MIB, 1, "MiB, 4-way")
    result.add("L3", sct.l3.size_bytes // MIB, 8, "MiB, 16-way")
    result.add(
        "metadata cache", sct.metadata_cache.size_bytes // KIB, 256, "KiB, 8-way"
    )
    result.add("AES latency", sct.crypto.aes_latency, 20, "cycles")
    result.add("SC major bits", sct.counters.major_bits, 64)
    result.add("SC minor bits", sct.counters.minor_bits, 7)
    result.add("SCT arity L0", sct.tree.arities[0], 32)
    result.add("SCT arity L1+", sct.tree.arities[1], 16)
    result.add("SCT levels", sct.tree.levels, 6)
    result.add("HT arity", ht.tree.arities[0], 8)
    result.add("HT levels", ht.tree.levels, 6)
    result.add("SGX counter bits", sgx.counters.monolithic_bits, 56)
    result.add("SIT arity", sgx.tree.arities[0], 8)
    result.add("SIT off-chip levels", sgx.tree.levels, "3 (+on-chip L3)")
    result.claim(
        "L1/L2/L3 are 8/4/16-way",
        sct.l1.ways == 8 and sct.l2.ways == 4 and sct.l3.ways == 16,
    )
    result.claim("SCT uses the split-counter tree", sct.tree.kind is TreeKind.SPLIT_COUNTER)
    result.claim("HT uses the hash tree", ht.tree.kind is TreeKind.HASH)
    result.claim("SGX uses the SGX integrity tree", sgx.tree.kind is TreeKind.SGX)
    result.claim(
        "SCT arities are (32, 16, 16, 16, 16, 16)",
        sct.tree.arities == (32, 16, 16, 16, 16, 16),
    )
    result.claim("SIT arities are (8, 8, 8)", sgx.tree.arities == (8, 8, 8))
    result.claim(
        "every numeric parameter equals Table I",
        all(
            row.measured == row.paper
            for row in result.rows
            if isinstance(row.paper, (int, float))
        ),
    )
    return result


# ----------------------------------------------------------------------
# Figures 6 & 7: access-path latency distributions
# ----------------------------------------------------------------------


def _path_latency_samples(
    proc: SecureProcessor, samples: int
) -> dict[str, list[int]]:
    """Collect per-path latency samples by steering metadata cache state,
    one address every third page."""
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
        addr = (8 + i * 3) * PAGE_SIZE
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


_LEAF_HIT = "Path-3 (tree leaf hit)"
_ALL_MISS = "Path-4 (all levels missed)"


def _path_medians(preset: str, samples: int) -> dict[str, float]:
    proc, _ = _machine(preset)
    return {
        label: summarize(latencies).median
        for label, latencies in _path_latency_samples(proc, samples).items()
    }


def _add_path_rows(
    result: FigureResult, medians: dict[str, float], paper: dict[str, str]
) -> None:
    for label, median in medians.items():
        result.add(label, median, paper[label], "cycles")
    result.claim(
        "median latency never falls on a deeper path",
        list(medians.values()) == sorted(medians.values()),
    )


def fig6_access_paths(samples: int = 60) -> FigureResult:
    """Figure 6: read-latency distribution across access paths (SCT)."""
    medians = _path_medians("sct", samples)
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
    _add_path_rows(result, medians, paper)
    result.claim(
        "Path-3 - Path-2 >= 30 cycles",
        medians[_LEAF_HIT] - medians["Path-2 (ctr hit)"] >= 30,
    )
    result.claim(
        "Path-4 (all levels missed) - Path-3 >= 100 cycles",
        medians[_ALL_MISS] - medians[_LEAF_HIT] >= 100,
    )
    return result


def fig7_sgx_paths(samples: int = 60) -> FigureResult:
    """Figure 7: read-latency distributions on the SGX model.

    The SCT all-miss median of the same path-steering run is the
    reference row: SGX's serial walk must be the slower one.
    """
    medians = _path_medians("sgx", samples)
    sct_all_miss = _path_medians("sct", samples)[_ALL_MISS]
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
    _add_path_rows(result, medians, paper)
    result.add("SCT all-miss (reference)", sct_all_miss, None, "cycles")
    result.claim(
        "500 <= Path-4 (all levels missed) <= 900 cycles",
        500 <= medians[_ALL_MISS] <= 900,
    )
    result.claim(
        "180 <= Path-3 (tree leaf hit) <= 330 cycles",
        180 <= medians[_LEAF_HIT] <= 330,
    )
    result.claim("SGX all-miss is slower than SCT all-miss", medians[_ALL_MISS] > sct_all_miss)
    return result


# ----------------------------------------------------------------------
# Figure 8: counter-overflow latency bands
# ----------------------------------------------------------------------


def fig8_overflow_bands(cycles: int = 4) -> FigureResult:
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
    quiet_band, overflow_band = summarize(quiet), summarize(overflow)
    separation = overflow_band.minimum - quiet_band.maximum
    result.add("no-overflow band (median)", quiet_band.median, "~500", "cycles")
    result.add("no-overflow band (max)", quiet_band.maximum, None, "cycles")
    result.add("overflow band (median)", overflow_band.median, "~2500", "cycles")
    result.add("band separation", separation, "~2000", "cycles")
    result.claim("band separation >= 800 cycles", separation >= 800)
    result.claim(
        "overflow median > 2x the quiet band's max",
        overflow_band.median > 2 * quiet_band.maximum,
    )
    return result


# ----------------------------------------------------------------------
# Figures 11 & 14: covert channels
# ----------------------------------------------------------------------


def _random_bits(count: int) -> list[int]:
    rng = derive_rng(11, "covert-bits")
    return [rng.randint(0, 1) for _ in range(count)]


def fig11_covert_t(bits: int = 1000) -> FigureResult:
    """Figure 11: MetaLeak-T covert channel accuracy (SCT and SIT).

    Also runs Section VI-A's cross-socket transmission (trojan and spy on
    different sockets) over the first ``min(bits, 200)`` payload bits.
    """
    payload = _random_bits(bits)

    proc, allocator = _machine("sct", jitter=SCT_JITTER)
    sct_report = CovertChannelT(proc, allocator).transmit(payload)

    proc, allocator = _machine("sgx", jitter=SGX_JITTER)
    sit_report = CovertChannelT(proc, allocator, level=1).transmit(payload)

    proc, allocator = _machine("sct", defense="split_llc")
    cross_report = CovertChannelT(
        proc, allocator, trojan_core=0, spy_core=2
    ).transmit(payload[:200])

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
    result.add("cross-socket accuracy", cross_report.accuracy, None)
    result.claim("SCT bit accuracy >= 0.97", sct_report.accuracy >= 0.97)
    result.claim("SIT (SGX) bit accuracy >= 0.88", sit_report.accuracy >= 0.88)
    result.claim(
        "SCT beats the noisier SGX machine",
        sct_report.accuracy > sit_report.accuracy,
    )
    result.claim("cross-socket accuracy >= 0.97", cross_report.accuracy >= 0.97)
    return result


def fig14_covert_c(symbols: int = 150) -> FigureResult:
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
    result.claim("symbol accuracy >= 0.96", exact >= 0.96)
    return result


# ----------------------------------------------------------------------
# Figure 12: resolution/coverage vs tree level
# ----------------------------------------------------------------------


def fig12_tree_levels(
    levels: tuple[int, ...] = (0, 1, 2, 3), rounds: int = 40
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
    intervals: list[float] = []
    coverages: list[int] = []
    for level in levels:
        monitor = attack.monitor_for_page(victim_frame, level=level)
        start = proc.cycle
        for _ in range(rounds):
            monitor.m_evict()
            monitor.m_reload()
        interval = round((proc.cycle - start) / rounds, 1)
        coverage_pages = len(proc.layout.pages_sharing_node(victim_frame, level))
        coverage = coverage_pages * PAGE_SIZE // 1024
        result.add(
            f"L{level} interval",
            interval,
            ">= previous" if intervals else None,
            "cycles/round",
        )
        result.add(
            f"L{level} coverage",
            coverage,
            f"grows x{proc.layout.levels[level].arity}" if level else "128 (32 pages)",
            "KiB",
        )
        intervals.append(interval)
        coverages.append(coverage)
    result.claim(
        "mEvict+mReload interval never shrinks with level",
        intervals == sorted(intervals),
    )
    result.claim(
        "coverage grows x16 per level",
        all(upper == lower * 16 for lower, upper in zip(coverages, coverages[1:])),
    )
    result.claim("leaf (L0) coverage is 128 KiB", levels[0] == 0 and coverages[0] == 128)
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
    mean_accuracy = sum(accuracies) / len(accuracies)
    result.add("MetaLeak-T mean stealing accuracy", mean_accuracy, 0.943)
    zero_accuracy = None
    if include_metaleak_c:
        zero_accuracy = run_jpeg_metaleak_c(
            images[0], size=16, config=None
        ).zero_accuracy
        result.add("MetaLeak-C zero-element recovery", zero_accuracy, 0.972)
    result.claim("MetaLeak-T mean stealing accuracy >= 0.90", mean_accuracy >= 0.90)
    # No MetaLeak-C row without include_metaleak_c: the claim fails there
    # rather than holding vacuously.
    result.claim(
        "MetaLeak-C zero-element recovery >= 0.90",
        zero_accuracy is not None and zero_accuracy >= 0.90,
        FULL,
    )
    result.claim(
        "every image's stealing accuracy >= 0.85",
        min(accuracies) >= 0.85,
    )
    return result


# ----------------------------------------------------------------------
# Figures 16 & 17: cryptographic case studies
# ----------------------------------------------------------------------


def fig16_rsa(exponent_bits: int = 192) -> FigureResult:
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
    result.claim("SGX exponent bit accuracy >= 0.82", sgx.bit_accuracy >= 0.82)
    result.claim("SCT exponent bit accuracy >= 0.93", sct.bit_accuracy >= 0.93)
    result.claim(
        "SCT recovers more than the noisier SGX machine",
        sct.bit_accuracy > sgx.bit_accuracy,
    )
    return result


def fig17_mbedtls(
    secret_bits: int = 192, *, recover: bool = True, max_runs: int = 11
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
    result.claim("overall detection accuracy >= 0.85", outcome.op_accuracy >= 0.85)
    result.claim("shift detection >= 0.8", outcome.shift_accuracy >= 0.8)
    result.claim("sub detection >= 0.8", outcome.sub_accuracy >= 0.8)
    result.claim(
        "phi recovered exactly (verified against n)",
        recover and outcome.recovery_correct,
    )
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
    trials: int = 40,
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
    region = [p.accuracy for p in points if 7000 <= p.accesses <= 9000]
    result.claim("first point < 0.5", points[0].accuracy < 0.5)
    result.claim("last point >= 0.9", points[-1].accuracy >= 0.9)
    result.claim(
        "7000-9000-access region reaches 0.7", bool(region) and max(region) >= 0.7
    )
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

    reencrypted: dict[str, int] = {}
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
        reencrypted[scheme.value] = tally("reencrypted_blocks")
        result.add(
            f"{scheme.value} re-encrypted blocks",
            reencrypted[scheme.value],
            paper,
        )
    result.claim(
        "GC and MoC re-encrypt the same blocks",
        reencrypted["GC"] == reencrypted["MoC"],
    )
    result.claim("SC re-encrypts fewer blocks than GC", reencrypted["SC"] < reencrypted["GC"])
    return result


def ablation_update_policy(bits: int = 80) -> FigureResult:
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
        result.claim(f"{policy.value} policy accuracy >= 0.95", report.accuracy >= 0.95)
    return result


def ablation_defenses(bits: int = 80) -> FigureResult:
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

    proc, allocator = _machine("sct", defense="split_llc")
    cross = CovertChannelT(
        proc, allocator, trojan_core=0, spy_core=2
    ).transmit(payload)
    result.add("disjoint LLCs (cross-socket)", cross.accuracy, "~1.0 (ineffective)")

    proc, allocator = _machine("sct", defense="isolated_trees")
    channel = CovertChannelT(proc, allocator)
    # Trojan pages belong to domain 1, spy (and its probes) to domain 0.
    proc.mee.set_page_domain(channel._trojan_tx, 1)
    proc.mee.set_page_domain(channel._trojan_bd, 1)
    isolated = channel.transmit(payload)
    result.add("per-domain isolated trees", isolated.accuracy, "~0.5 (chance)")
    result.claim("baseline accuracy >= 0.95", baseline.accuracy >= 0.95)
    result.claim("disjoint LLCs leave accuracy >= 0.95", cross.accuracy >= 0.95)
    result.claim("isolated trees cut accuracy to <= 0.75", isolated.accuracy <= 0.75)
    return result


def ablation_tree_designs(bits: int = 80) -> FigureResult:
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
        result.claim(f"{label} accuracy >= 0.95", report.accuracy >= 0.95)
    return result


def ablation_mac_placement(bits: int = 60) -> FigureResult:
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
    baselines: dict[bool, int] = {}
    for mac_in_ecc, label in ((True, "MAC in ECC (Synergy)"), (False, "separate MAC read")):
        proc, allocator = _machine(
            "sct", crypto=CryptoConfig(mac_in_ecc=mac_in_ecc)
        )
        # Path-2 baseline (counter cached): here the data+MAC fetch is the
        # critical path, so the extra MAC read is visible.
        proc.read(0x40000)
        proc.flush(0x40000)
        proc.quiesce()
        baselines[mac_in_ecc] = proc.read(0x40000).latency
        report = CovertChannelT(proc, allocator).transmit(payload)
        result.add(f"{label}: accuracy", report.accuracy, ">= 0.95")
        result.add(f"{label}: Path-2 baseline", baselines[mac_in_ecc], None, "cycles")
        result.claim(f"{label}: accuracy >= 0.95", report.accuracy >= 0.95)
    result.claim(
        "a separate MAC read costs > 50 cycles on Path-2",
        baselines[False] > baselines[True] + 50,
    )
    return result


def ablation_split_caches(bits: int = 60) -> FigureResult:
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
        allocator = PageAllocator.for_machine(proc)
        channel = CovertChannelT(proc, allocator)
        report = channel.transmit(payload)
        result.add(f"{label}: accuracy", report.accuracy, ">= 0.95")
        result.claim(f"{label}: accuracy >= 0.95", report.accuracy >= 0.95)
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


@dataclass(frozen=True)
class Figure:
    """One registered experiment: ``fn()`` runs it at full scale and
    ``fn(**quick)`` at the reduced scale of ``repro figures --quick``."""

    fn: Callable[..., FigureResult]
    label: str
    quick: dict[str, Any] = field(default_factory=dict)


FIGURES: dict[str, Figure] = {
    "table1": Figure(table1_config, "Table I  — machine configurations"),
    "fig6": Figure(
        fig6_access_paths, "Fig. 6  — access-path latency bands (SCT)",
        {"samples": 20},
    ),
    "fig7": Figure(
        fig7_sgx_paths, "Fig. 7  — SGX latency profile (SIT)", {"samples": 10}
    ),
    "fig8": Figure(
        fig8_overflow_bands, "Fig. 8  — counter-overflow latency bands",
        {"cycles": 1},
    ),
    "fig11": Figure(
        fig11_covert_t, "Fig. 11 — MetaLeak-T covert channel", {"bits": 120}
    ),
    "fig12": Figure(
        fig12_tree_levels, "Fig. 12 — resolution/coverage vs tree level",
        {"rounds": 8},
    ),
    "fig14": Figure(
        fig14_covert_c, "Fig. 14 — MetaLeak-C covert channel", {"symbols": 12}
    ),
    "fig15": Figure(
        fig15_jpeg, "Fig. 15 — libjpeg image stealing",
        {"images": ("circles",), "size": 16, "include_metaleak_c": False},
    ),
    "fig16": Figure(
        fig16_rsa, "Fig. 16 — RSA exponent recovery", {"exponent_bits": 48}
    ),
    "fig17": Figure(
        fig17_mbedtls, "Fig. 17 — mbedTLS shift/sub detection",
        {"secret_bits": 48},
    ),
    "fig18": Figure(
        fig18_mirage, "Fig. 18 — MIRAGE randomized-cache study",
        {"access_counts": (2000, 8000, 12000), "trials": 8},
    ),
    "case_kvstore": Figure(
        case_kvstore, "Case study — kvstore bucket recovery (MetaLeak-C)",
        {"puts": 4, "buckets": 3},
    ),
    "ablation_counters": Figure(
        ablation_counter_schemes, "Abl. A1 — counter-scheme overflow scope"
    ),
    "ablation_policy": Figure(
        ablation_update_policy, "Abl. A2 — lazy vs eager tree updates",
        {"bits": 16},
    ),
    "ablation_defenses": Figure(
        ablation_defenses, "Abl. A3 — defenses vs MetaLeak-T", {"bits": 16}
    ),
    "ablation_trees": Figure(
        ablation_tree_designs, "Abl. A4 — MetaLeak-T across HT/SCT/SIT",
        {"bits": 60},
    ),
    "ablation_mac": Figure(
        ablation_mac_placement, "Abl. A5 — MAC placement (Synergy vs classical)",
        {"bits": 40},
    ),
    "ablation_split": Figure(
        ablation_split_caches, "Abl. A6 — combined vs split metadata caches",
        {"bits": 40},
    ),
    "sweep_cache_size": Figure(
        sweep_metadata_cache_size, "Sweep S1 — MetaLeak-T vs metadata-cache size"
    ),
    "sweep_policy": Figure(
        sweep_replacement_policy,
        "Sweep S2 — MetaLeak-T vs metadata-cache replacement policy",
    ),
    "sweep_minor_bits": Figure(
        sweep_minor_counter_bits, "Sweep S3 — tree-counter overflow period vs width"
    ),
    "sweep_noise": Figure(
        sweep_noise_intensity, "Sweep S4 — MetaLeak-T vs background noise"
    ),
    "sweep_step": Figure(
        sweep_step_interval, "Sweep S5 — RSA recovery vs SGX-Step interval"
    ),
    "sweep_ecc": Figure(
        sweep_noise_ecc,
        "Sweep S6 — raw vs ECC-framed covert channels under noise",
        {"intensities": (0, 2), "bits": 16, "include_c": False},
    ),
    "overhead": Figure(
        overhead_study, "Overhead — secure-memory slowdown vs insecure baseline"
    ),
    "leakcheck": Figure(
        leakcheck_matrix,
        "Leakcheck — automated paired-secret leakage detection matrix",
        {"victims": ("rsa", "const")},
    ),
    "perf_attribution": Figure(
        perf_attribution, "Perf — cycle attribution across access paths",
        {"samples": 5},
    ),
}
