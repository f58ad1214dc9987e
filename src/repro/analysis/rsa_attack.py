"""The libgcrypt RSA case study (Section VIII-B1, Figure 16).

The victim runs square-and-multiply modular exponentiation inside an
enclave (SGX preset, SIT, L1 tree sharing via OS frame placement) or on
the simulated academic design (SCT, leaf-level sharing).  The attacker
single-steps the victim with SGX-Step, mEvict+mReloads the square and
multiply code pages each step, and decodes the exponent from the observed
operation sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.classify import PairClassifier
from repro.analysis.report import experiment_config
from repro.attacks.metaleak_t import MetaLeakT
from repro.config import MIB, SecureProcessorConfig
from repro.os.page_alloc import PageAllocator
from repro.os.process import Process
from repro.proc.processor import SecureProcessor
from repro.sgx.enclave import Enclave
from repro.sgx.sgx_step import SgxStep
from repro.utils.stats import accuracy, aligned_accuracy
from repro.victims.rsa import RsaModexpVictim, generate_test_key


@dataclass
class RsaAttackResult:
    machine: str
    bit_accuracy: float
    op_accuracy: float
    true_bits: list[int] = field(repr=False, default_factory=list)
    recovered_bits: list[int] = field(repr=False, default_factory=list)
    labels: list[str] = field(repr=False, default_factory=list)
    latency_trace: list[tuple[int, int]] = field(repr=False, default_factory=list)
    steps: int = 0
    # Per recovered bit: how much the underlying monitor readings deserve
    # to be believed (0.0 = the decode guessed).  ``degraded`` marks runs
    # whose output should not be trusted at face value.
    confidences: list[float] = field(repr=False, default_factory=list)
    mean_confidence: float = 0.0
    degraded: bool = False
    degraded_reasons: tuple[str, ...] = ()


def decode_exponent_with_confidence(
    labels: list[str], step_confidences: list[float] | None = None
) -> tuple[list[int], list[float]]:
    """Noise-tolerant square/multiply decode (MSB-first bits).

    Unknown steps are treated as squares (squares dominate), and stray
    multiplies without a preceding square are skipped — local errors stay
    local instead of shifting the whole bitstream.  Each decoded bit
    carries the weakest step confidence it was built from.
    """
    if step_confidences is None:
        step_confidences = [1.0] * len(labels)
    bits: list[int] = []
    confidences: list[float] = []
    index = 0
    while index < len(labels):
        label = labels[index]
        if label == "multiply":
            index += 1  # stray multiply: already folded into previous bit
            continue
        if index + 1 < len(labels) and labels[index + 1] == "multiply":
            bits.append(1)
            confidences.append(
                min(step_confidences[index], step_confidences[index + 1])
            )
            index += 2
        else:
            bits.append(0)
            confidences.append(step_confidences[index])
            index += 1
    return bits, confidences


def decode_exponent_bits(labels: list[str]) -> list[int]:
    """Decode without confidence tracking (see the scored variant above)."""
    bits, _ = decode_exponent_with_confidence(labels)
    return bits


def _exponent_bits(exponent: int) -> list[int]:
    return [int(b) for b in bin(exponent)[2:]]


def run_rsa_attack(
    machine: str = "sgx",
    *,
    exponent_bits: int = 64,
    config: SecureProcessorConfig | None = None,
) -> RsaAttackResult:
    """Recover an RSA exponent through MetaLeak-T (Figure 16).

    Without ``config`` the SGX machine has a 64 MiB EPC and the SCT
    machine is the experiment default.
    """
    if machine == "sgx":
        config = config or experiment_config("sgx", protected_size=64 * MIB)
    elif machine == "sct":
        config = config or experiment_config("sct")
    else:
        raise ValueError("machine must be 'sgx' or 'sct'")
    proc = SecureProcessor(config)
    allocator = PageAllocator.for_machine(proc)
    if machine == "sgx":
        process = Enclave(proc, allocator, core=0, name="libgcrypt-enclave")
        # L0 in SGX maps to exactly one page and cannot be shared; the
        # attack targets L1 (Section VIII-B), so the OS places the
        # victim's two code pages in distinct 8-page groups.
        level, square_frame, multiply_frame = 1, 80, 160
    else:
        process = Process(proc, allocator, core=0, cleanse=True, name="libgcrypt")
        level, square_frame, multiply_frame = 0, 10 * 32, 50 * 32  # leaf level

    # Victim page placement (privileged attacker / free-list staging).
    allocator.stage_for_next_alloc(multiply_frame, core=process.core)
    allocator.stage_for_next_alloc(square_frame, core=process.core)
    victim = RsaModexpVictim(process)
    assert victim.square_frame == square_frame
    assert victim.multiply_frame == multiply_frame

    attack = MetaLeakT(proc, allocator, core=1)
    classifier = PairClassifier(
        attack.monitor_for_page(square_frame, level=level),
        attack.monitor_for_page(multiply_frame, level=level),
        name_a="square",
        name_b="multiply",
    )

    base, exponent, modulus = generate_test_key(exponent_bits, seed=99)
    labels: list[str] = []
    truth_ops: list[str] = []

    def before(step: int, _payload: object) -> None:
        classifier.m_evict()

    def probe(step: int, payload: object) -> None:
        labels.append(classifier.m_reload())
        truth_ops.append(payload.operation)

    stepper = SgxStep(interval=1)
    stepper.run(victim.modexp(base, exponent, modulus), probe=probe, before_step=before)

    step_confidences = [obs.confidence for obs in classifier.observations]
    recovered_bits, bit_confidences = decode_exponent_with_confidence(
        labels, step_confidences
    )
    true_bits = _exponent_bits(exponent)
    latency_trace = [
        (obs.latency_a, obs.latency_b) for obs in classifier.observations
    ]
    mean_confidence = (
        sum(bit_confidences) / len(bit_confidences) if bit_confidences else 0.0
    )
    reasons: list[str] = []
    if not classifier.calibration_ok:
        reasons.append("degenerate-calibration")
    if mean_confidence < 0.5:
        reasons.append("low-confidence")
    return RsaAttackResult(
        machine=machine,
        # Alignment-tolerant scoring: a single op misclassification costs
        # one bit, not the rest of the positional stream.
        bit_accuracy=aligned_accuracy(recovered_bits, true_bits),
        op_accuracy=accuracy(labels, truth_ops),
        true_bits=true_bits,
        recovered_bits=recovered_bits,
        labels=labels,
        latency_trace=latency_trace,
        steps=stepper.trace.steps,
        confidences=bit_confidences,
        mean_confidence=mean_confidence,
        degraded=bool(reasons),
        degraded_reasons=tuple(reasons),
    )
