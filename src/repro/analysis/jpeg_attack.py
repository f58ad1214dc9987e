"""The libjpeg case study (Section VIII-A, Figure 15).

``run_jpeg_metaleak_t`` mounts the MetaLeak-T variant: the attacker
monitors the tree nodes of the victim's ``r`` and ``nbits`` pages and
recovers, per block and coefficient position, whether the coefficient was
zero — then reconstructs the image from the leaked entropy mask.

``run_jpeg_metaleak_c`` mounts the write-observing variant: a shared tree
minor counter on the ``r`` page's path is preset so a single victim write
saturates it; overflow counting reveals the zero positions (VIII-A2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.classify import PairClassifier
from repro.attacks.metaleak_c import MetaLeakC
from repro.attacks.metaleak_t import MetaLeakT
from repro.attacks.noise import NoiseProcess
from repro.config import SecureProcessorConfig
from repro.os.page_alloc import PageAllocator
from repro.os.process import Process
from repro.proc.processor import SecureProcessor
from repro.sgx.sgx_step import SgxStep
from repro.victims.jpeg.encoder import JpegVictim
from repro.victims.jpeg.images import sample_image
from repro.victims.jpeg.reconstruct import (
    feature_correlation,
    mask_accuracy,
    pixel_correlation,
    reconstruct_from_mask,
    zero_recovery_accuracy,
)

# Frames for the victim's two variables: separate leaf groups, "positioned
# sufficiently apart in the SCT" via the free-list staging primitive.
_R_FRAME = 10 * 32
_NBITS_FRAME = 50 * 32


@dataclass
class JpegAttackResult:
    image_name: str
    stealing_accuracy: float
    zero_accuracy: float
    original: np.ndarray = field(repr=False, default=None)
    reconstructed: np.ndarray = field(repr=False, default=None)
    oracle: np.ndarray = field(repr=False, default=None)
    reconstruction_correlation: float = 0.0
    oracle_correlation: float = 0.0
    steps: int = 0
    attacker_cycles: int = 0
    # Per coefficient decision: belief in the underlying reading (0.0 =
    # defaulted, not observed).  ``degraded`` flags runs whose mask is
    # built on guesses or a degenerate calibration.
    confidences: list[float] = field(repr=False, default_factory=list)
    mean_confidence: float = 0.0
    degraded: bool = False
    degraded_reasons: tuple[str, ...] = ()


def _confidence_summary(
    confidences: list[float], extra_reasons: tuple[str, ...] = ()
) -> tuple[float, bool, tuple[str, ...]]:
    mean = sum(confidences) / len(confidences) if confidences else 0.0
    reasons = list(extra_reasons)
    if mean < 0.5:
        reasons.append("low-confidence")
    return mean, bool(reasons), tuple(reasons)


def _build_environment(
    config: SecureProcessorConfig | None,
) -> tuple[SecureProcessor, PageAllocator, Process]:
    proc = SecureProcessor(
        config
        or SecureProcessorConfig.sct_default(
            protected_size=256 * 1024 * 1024, functional_crypto=False
        )
    )
    allocator = PageAllocator.for_machine(proc)
    victim_process = Process(proc, allocator, core=0, cleanse=True, name="jpeg")
    return proc, allocator, victim_process


def _stage_victim_pages(allocator: PageAllocator) -> None:
    """Free-list massage: the victim's next two allocations land on the
    attacker-chosen frames (r first, nbits second — LIFO order)."""
    allocator.stage_for_next_alloc(_NBITS_FRAME, core=0)
    allocator.stage_for_next_alloc(_R_FRAME, core=0)


def run_jpeg_metaleak_t(
    image_name: str = "circles",
    *,
    size: int = 32,
    config: SecureProcessorConfig | None = None,
    noise_reads: int = 0,
) -> JpegAttackResult:
    """Full MetaLeak-T image-stealing attack (Figure 15), at JPEG quality 50."""
    proc, allocator, victim_process = _build_environment(config)
    _stage_victim_pages(allocator)
    victim = JpegVictim(victim_process)
    assert victim.r_frame == _R_FRAME and victim.nbits_frame == _NBITS_FRAME

    attack = MetaLeakT(proc, allocator, core=1)
    classifier = PairClassifier(
        attack.monitor_for_page(victim.r_frame, level=0),
        attack.monitor_for_page(victim.nbits_frame, level=0),
        name_a="zero",
        name_b="nonzero",
    )
    noise = (
        NoiseProcess(proc, allocator, reads_per_step=noise_reads)
        if noise_reads
        else None
    )

    image = sample_image(image_name, size)
    decisions: list[bool] = []
    confidences: list[float] = []
    start_cycle = proc.cycle

    def before(step: int, _payload: object) -> None:
        classifier.m_evict()
        if noise is not None:
            noise.step()

    def probe(step: int, _payload: object) -> None:
        label = classifier.m_reload()
        # "none" most often means the zero-path write was merged away;
        # zero runs dominate JPEG AC coefficients, so default to zero.
        decisions.append(label != "nonzero")
        confidences.append(classifier.observations[-1].confidence)

    stepper = SgxStep(interval=1)
    encoded = stepper.run(victim.encode_image(image), probe=probe, before_step=before)

    truth = encoded.zero_masks()
    recovered = _decisions_to_masks(decisions, truth)
    reconstructed = reconstruct_from_mask(recovered, encoded.shape)
    oracle = reconstruct_from_mask(truth, encoded.shape)
    mean_confidence, degraded, reasons = _confidence_summary(
        confidences,
        () if classifier.calibration_ok else ("degenerate-calibration",),
    )
    return JpegAttackResult(
        image_name=image_name,
        stealing_accuracy=mask_accuracy(recovered, truth),
        zero_accuracy=zero_recovery_accuracy(recovered, truth),
        original=image,
        reconstructed=reconstructed,
        oracle=oracle,
        reconstruction_correlation=feature_correlation(
            recovered, truth, encoded.shape
        ),
        oracle_correlation=pixel_correlation(oracle, reconstructed),
        steps=stepper.trace.steps,
        attacker_cycles=proc.cycle - start_cycle,
        confidences=confidences,
        mean_confidence=mean_confidence,
        degraded=degraded,
        degraded_reasons=reasons,
    )


def _decisions_to_masks(
    decisions: list[bool], truth: list[list[bool]]
) -> list[list[bool]]:
    per_block = len(truth[0])
    masks = []
    for block_index in range(len(truth)):
        chunk = decisions[block_index * per_block : (block_index + 1) * per_block]
        chunk += [True] * (per_block - len(chunk))
        masks.append(chunk)
    return masks


def run_jpeg_metaleak_c(
    image_name: str = "circles",
    *,
    size: int = 16,
    config: SecureProcessorConfig | None = None,
) -> JpegAttackResult:
    """MetaLeak-C write monitoring of ``r`` (Section VIII-A2).

    Per coefficient step: the shared level-1 tree counter on ``r``'s
    verification path is armed one write short of saturation; after the
    victim's step the attacker collects pending metadata updates and
    counts writes to overflow — one bump means the victim wrote ``r`` (a
    zero coefficient).  The victim encodes at JPEG quality 50.
    """
    proc, allocator, victim_process = _build_environment(config)
    _stage_victim_pages(allocator)
    victim = JpegVictim(victim_process)

    attack = MetaLeakC(proc, allocator, core=1)
    handle = attack.handle_for_page(victim.r_frame)
    handle.arm_for_writes(1)
    armed_value = handle.minor_max - 1

    image = sample_image(image_name, size)
    decisions: list[bool] = []
    confidences: list[float] = []
    reasons: set[str] = set()
    start_cycle = proc.cycle

    def probe(step: int, _payload: object) -> None:
        attack.collect_victim_updates(victim.r_frame)
        scan = handle.scan_to_overflow(max_bumps=3)
        if not scan.fired:
            # The counter is not where arming left it (noise swallowed the
            # overflow tell, or a neighbour reset the node): default to
            # zero (zero runs dominate) at zero confidence and re-arm
            # from scratch rather than trusting the next readings.
            decisions.append(True)
            confidences.append(0.0)
            reasons.add("counter-desync")
            handle.arm_for_writes(1)
            return
        victim_wrote = scan.bumps == 1
        decisions.append(victim_wrote)  # write to r <=> zero coefficient
        confidences.append(1.0)
        handle.preset(armed_value)

    stepper = SgxStep(interval=1)
    encoded = stepper.run(victim.encode_image(image), probe=probe)

    truth = encoded.zero_masks()
    recovered = _decisions_to_masks(decisions, truth)
    reconstructed = reconstruct_from_mask(recovered, encoded.shape)
    oracle = reconstruct_from_mask(truth, encoded.shape)
    mean_confidence, degraded, reason_tuple = _confidence_summary(
        confidences, tuple(sorted(reasons))
    )
    return JpegAttackResult(
        image_name=image_name,
        stealing_accuracy=mask_accuracy(recovered, truth),
        zero_accuracy=zero_recovery_accuracy(recovered, truth),
        original=image,
        reconstructed=reconstructed,
        oracle=oracle,
        reconstruction_correlation=feature_correlation(
            recovered, truth, encoded.shape
        ),
        oracle_correlation=pixel_correlation(oracle, reconstructed),
        steps=stepper.trace.steps,
        attacker_cycles=proc.cycle - start_cycle,
        confidences=confidences,
        mean_confidence=mean_confidence,
        degraded=degraded,
        degraded_reasons=reason_tuple,
    )
