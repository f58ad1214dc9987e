"""Design-space sweeps around the paper's discussion points.

Beyond the headline figures, Sections IV/V/IX make quantitative claims
about *why* the channel exists and what would (not) weaken it.  These
sweeps turn those claims into experiments:

* metadata-cache size — bigger caches slow mEvict (more eviction traffic)
  but never remove the channel;
* metadata-cache replacement policy — randomization raises the eviction
  cost, it does not stop a reload-based channel (same argument as the
  Figure-18 MIRAGE study);
* tree minor-counter width — the overflow period (and thus MetaLeak-C's
  symbol range / preset cost) scales as 2^bits;
* background noise intensity — the channel degrades gracefully.
"""

from __future__ import annotations

from repro.analysis.report import FigureResult
from repro.attacks.covert import CovertChannelC, CovertChannelT
from repro.attacks.framing import BitSymbolAdapter, ReliableChannel
from repro.attacks.metaleak_c import MetaLeakC
from repro.attacks.noise import NoiseProcess, co_located_noise
from repro.config import (
    KIB,
    MIB,
    CacheConfig,
    SecureProcessorConfig,
    TreeConfig,
    TreeKind,
)
from repro.os.page_alloc import PageAllocator
from repro.proc.processor import SecureProcessor
from repro.utils.rng import derive_rng


def _bits(count: int) -> list[int]:
    rng = derive_rng(21, "sweep-bits")
    return [rng.randint(0, 1) for _ in range(count)]


def sweep_metadata_cache_size(
    sizes_kib: tuple[int, ...] = (64, 256, 512), bits: int = 40
) -> FigureResult:
    """Covert accuracy and mEvict cost vs metadata-cache size."""
    result = FigureResult(
        figure="Sweep S1",
        title="MetaLeak-T vs metadata-cache size",
        notes="bigger caches raise eviction cost; the channel never closes",
    )
    payload = _bits(bits)
    accuracies = []
    for size_kib in sizes_kib:
        config = SecureProcessorConfig.sct_default(
            protected_size=256 * MIB, functional_crypto=False
        ).with_overrides(
            metadata_cache=CacheConfig("MetaCache", size_kib * KIB, 8, 2)
        )
        proc = SecureProcessor(config)
        allocator = PageAllocator.for_machine(proc)
        channel = CovertChannelT(proc, allocator)
        report = channel.transmit(payload)
        evict_cost = channel.tx_monitor.stats.evict_accesses / max(
            1, channel.tx_monitor.stats.rounds
        )
        accuracies.append(report.accuracy)
        result.add(f"{size_kib} KiB accuracy", report.accuracy, ">= 0.95")
        result.add(
            f"{size_kib} KiB evict accesses/round", round(evict_cost, 1), None
        )
    result.claim("accuracy >= 0.9 at every size", min(accuracies) >= 0.9)
    return result


def sweep_replacement_policy(bits: int = 40) -> FigureResult:
    """Covert accuracy vs metadata-cache replacement policy."""
    result = FigureResult(
        figure="Sweep S2",
        title="MetaLeak-T vs metadata-cache replacement policy",
        notes=(
            "randomized replacement makes single-pass eviction "
            "probabilistic, not impossible (Section IX-B's argument)"
        ),
    )
    payload = _bits(bits)
    # Randomized replacement may cost a little accuracy, never the channel.
    for policy, floor in (("lru", 0.9), ("plru", 0.8), ("random", 0.6)):
        config = SecureProcessorConfig.sct_default(
            protected_size=256 * MIB, functional_crypto=False
        ).with_overrides(
            metadata_cache=CacheConfig(
                "MetaCache", 256 * KIB, 8, 2, replacement=policy
            )
        )
        proc = SecureProcessor(config)
        allocator = PageAllocator.for_machine(proc)
        report = CovertChannelT(proc, allocator).transmit(payload)
        result.add(f"{policy} accuracy", report.accuracy, None)
        result.claim(f"{policy} accuracy >= {floor}", report.accuracy >= floor)
    return result


def sweep_minor_counter_bits(
    widths: tuple[int, ...] = (5, 6, 7)
) -> FigureResult:
    """Overflow period vs tree minor-counter width (MetaLeak-C economics)."""
    result = FigureResult(
        figure="Sweep S3",
        title="Tree-counter overflow period vs minor width",
        notes="period = 2^bits updates; wider counters slow mPreset "
        "quadratically in symbols/sec but raise the symbol alphabet",
    )
    exact = True
    for bits in widths:
        config = SecureProcessorConfig.sct_default(
            protected_size=128 * MIB, functional_crypto=False
        ).with_overrides(
            tree=TreeConfig(
                kind=TreeKind.SPLIT_COUNTER,
                arities=(32, 16, 16, 16, 16, 16),
                major_bits=56,
                minor_bits=bits,
            )
        )
        proc = SecureProcessor(config)
        allocator = PageAllocator.for_machine(proc)
        attack = MetaLeakC(proc, allocator, core=1)
        handle = attack.handle_for_page(0, level=1)
        spent = handle.reset()
        result.add(f"{bits}-bit reset bumps", spent, f"<= {2 ** bits + 1}")
        # After reset the counter is 1; a full wrap takes 2^bits more.
        wrap = handle.count_to_overflow()
        result.add(f"{bits}-bit wrap bumps", wrap, 2**bits - 1)
        exact = exact and wrap == 2**bits - 1
    result.claim("a wrap takes exactly 2^bits - 1 bumps at every width", exact)
    return result


def sweep_step_interval(
    intervals: tuple[int, ...] = (1, 2, 4), exponent_bits: int = 64
) -> FigureResult:
    """RSA recovery vs SGX-Step interrupt granularity.

    The paper interrupts every victim iteration ("every 500 cycles").
    Coarser stepping aggregates several operations per probe window, so
    the attacker sees the union of pages touched — per-op classification
    degrades and with it exponent recovery.  This quantifies why
    fine-grained stepping matters (Section VI-B's synchronization note).
    """
    from repro.analysis.classify import PairClassifier
    from repro.analysis.rsa_attack import decode_exponent_bits, _exponent_bits
    from repro.attacks.metaleak_t import MetaLeakT
    from repro.os.process import Process
    from repro.sgx.sgx_step import SgxStep
    from repro.utils.stats import aligned_accuracy
    from repro.victims.rsa import RsaModexpVictim, generate_test_key

    result = FigureResult(
        figure="Sweep S5",
        title="RSA recovery vs SGX-Step interrupt interval",
        notes="one interrupt per victim operation is what makes the "
        "case studies precise; coarser stepping blurs operations together",
    )
    accuracies = []
    for interval in intervals:
        config = SecureProcessorConfig.sct_default(
            protected_size=256 * MIB, functional_crypto=False
        )
        proc = SecureProcessor(config)
        allocator = PageAllocator.for_machine(proc)
        process = Process(proc, allocator, core=0, cleanse=True)
        allocator.stage_for_next_alloc(50 * 32, core=0)
        allocator.stage_for_next_alloc(10 * 32, core=0)
        victim = RsaModexpVictim(process)
        attack = MetaLeakT(proc, allocator, core=1)
        classifier = PairClassifier(
            attack.monitor_for_page(victim.square_frame, level=0),
            attack.monitor_for_page(victim.multiply_frame, level=0),
            name_a="square",
            name_b="multiply",
        )
        labels: list[str] = []

        def before(step, _payload):
            classifier.m_evict()

        def probe(step, _payload):
            labels.append(classifier.m_reload())

        base, exponent, modulus = generate_test_key(exponent_bits)
        SgxStep(interval=interval).run(
            victim.modexp(base, exponent, modulus), probe=probe, before_step=before
        )
        accuracy = aligned_accuracy(
            decode_exponent_bits(labels), _exponent_bits(exponent)
        )
        accuracies.append(accuracy)
        result.add(f"interval={interval} bit accuracy", accuracy, None)
    result.claim("the finest interval's accuracy >= 0.95", accuracies[0] >= 0.95)
    result.claim(
        "the finest interval beats the coarsest",
        accuracies[0] > accuracies[-1],
    )
    return result


def sweep_noise_intensity(
    intensities: tuple[int, ...] = (0, 16), bits: int = 40
) -> FigureResult:
    """Covert accuracy vs co-running background traffic."""
    result = FigureResult(
        figure="Sweep S4",
        title="MetaLeak-T vs background-noise intensity",
        notes="graceful degradation; errors come from noise evicting the "
        "shared node between victim access and reload",
    )
    payload = _bits(bits)
    accuracies = []
    for reads_per_step in intensities:
        config = SecureProcessorConfig.sct_default(
            protected_size=256 * MIB, functional_crypto=False
        )
        proc = SecureProcessor(config)
        allocator = PageAllocator.for_machine(proc)
        noise = (
            NoiseProcess(proc, allocator, reads_per_step=reads_per_step)
            if reads_per_step
            else None
        )
        report = CovertChannelT(proc, allocator, noise=noise).transmit(payload)
        accuracies.append(report.accuracy)
        result.add(f"{reads_per_step} noise reads/step", report.accuracy, None)
    result.claim(
        "the quietest run is at least as accurate as the noisiest",
        accuracies[0] >= accuracies[-1],
    )
    result.claim("the quietest run's accuracy >= 0.95", accuracies[0] >= 0.95)
    return result


def sweep_noise_ecc(
    intensities: tuple[int, ...] = (0, 1, 2, 4),
    bits: int = 48,
    include_c: bool = True,
) -> FigureResult:
    """Raw vs ECC-framed covert accuracy under a conflicting co-runner.

    The "with ECC" series for the Fig. 11/14 noise story: the co-runner's
    working set conflicts with the transmission node's metadata-cache
    set, so raw accuracy degrades with its intensity while the framed
    channel (sync preambles, Hamming(7,4)+CRC-8, majority votes, bounded
    ARQ) keeps delivering the payload — at a goodput cost, which is the
    honest trade the protocol makes.
    """
    result = FigureResult(
        figure="Sweep S6",
        title="ECC-framed covert channels vs co-runner noise",
        notes="raw BER grows with conflict intensity; framed payload "
        "accuracy holds via Hamming(7,4)+CRC-8 and bounded ARQ",
    )
    payload = _bits(bits)
    for reads_per_step in intensities:
        config = SecureProcessorConfig.sct_default(
            protected_size=128 * MIB, functional_crypto=False
        )
        proc = SecureProcessor(config)
        allocator = PageAllocator.for_machine(proc)
        channel = CovertChannelT(proc, allocator)
        if reads_per_step:
            channel.noise = co_located_noise(
                channel, allocator, reads_per_step=reads_per_step
            )
        raw = channel.transmit(payload)
        framed = ReliableChannel(channel).send(payload, max_retries=8, votes=3)
        label = f"{reads_per_step} conflict reads/step"
        result.add(f"{label}: raw accuracy", round(raw.accuracy, 4), None)
        result.add(f"{label}: raw wire BER", round(framed.raw_ber, 4), None)
        result.add(
            f"{label}: ECC payload accuracy",
            round(framed.payload_accuracy, 4),
            ">= 0.99",
        )
        result.add(
            f"{label}: ECC goodput (bits/kcycle)",
            round(framed.goodput_bits_per_kilocycle, 4),
            None,
        )
    if include_c:
        config = SecureProcessorConfig.sct_default(
            protected_size=128 * MIB, functional_crypto=False
        )
        proc = SecureProcessor(config)
        allocator = PageAllocator.for_machine(proc)
        channel_c = CovertChannelC(proc, allocator)
        framed_c = ReliableChannel(BitSymbolAdapter(channel_c)).send(
            payload[:16], max_retries=2
        )
        result.add(
            "MetaLeak-C framed payload accuracy",
            round(framed_c.payload_accuracy, 4),
            ">= 0.99",
        )
        result.add(
            "MetaLeak-C framed goodput (bits/kcycle)",
            round(framed_c.goodput_bits_per_kilocycle, 4),
            None,
        )
    return result
