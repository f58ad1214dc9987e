"""The mbedTLS key-loading case study (Section VIII-B2, Figure 17).

The enclave computes ``d = e^{-1} mod phi`` with a binary extended GCD;
the attacker monitors four pages through L1 tree sharing — the shift and
sub *code* pages (Figure 17's metric: 90.7% detection) and the ``u``/``v``
operand *buffer* pages, which attribute each shift run to its variable.
Attribution completes the trace, and
:func:`repro.victims.mbedtls.recover_secret_from_trace` then recovers the
secret ``phi`` computationally; the public modulus ``n`` verifies it
(``phi`` yields p and q by the factor check).  Noisy traces are cleaned by
majority-voting over repeated runs — key loading recomputes the same
deterministic sequence every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.classify import PairClassifier
from repro.analysis.report import experiment_config
from repro.attacks.metaleak_t import MetaLeakT
from repro.config import MIB, SecureProcessorConfig
from repro.os.page_alloc import PageAllocator
from repro.proc.processor import SecureProcessor
from repro.sgx.enclave import Enclave
from repro.sgx.sgx_step import SgxStep
from repro.utils.stats import accuracy
from repro.victims.mbedtls import (
    KeyLoadVictim,
    TraceInconsistent,
    attribute_trace,
    factor_from_phi,
    generate_rsa_key,
    recover_secret_from_trace,
)


@dataclass
class MbedtlsAttackResult:
    op_accuracy: float
    shift_accuracy: float
    sub_accuracy: float
    labels: list[str] = field(repr=False, default_factory=list)
    truth: list[str] = field(repr=False, default_factory=list)
    latency_trace: list[tuple[int, int]] = field(repr=False, default_factory=list)
    steps: int = 0
    # End-to-end key recovery (when recover=True):
    recovered_phi: int | None = None
    recovery_correct: bool = False
    factors_verified: bool = False
    runs_used: int = 0


def _one_run(
    config: SecureProcessorConfig,
    e: int,
    phi: int,
    *,
    frames: tuple[int, int, int, int],
) -> tuple[list[str], list[str | None], list[str], list[tuple[int, int]]]:
    """Execute key loading once under monitoring, on a fresh machine.

    Returns (op_labels, operand_labels, truth_details, op_latencies).
    """
    shift_frame, sub_frame, u_frame, v_frame = frames
    proc = SecureProcessor(config)
    allocator = PageAllocator.for_machine(proc)
    enclave = Enclave(proc, allocator, core=0, name="mbedtls-enclave")
    for frame in (v_frame, u_frame, sub_frame, shift_frame):
        allocator.stage_for_next_alloc(frame, core=0)
    victim = KeyLoadVictim(enclave)
    assert victim.shift_frame == shift_frame
    assert victim.v_buffer_frame == v_frame

    attack = MetaLeakT(proc, allocator, core=1)
    op_classifier = PairClassifier(
        attack.monitor_for_page(shift_frame, level=1),
        attack.monitor_for_page(sub_frame, level=1),
        name_a="shift",
        name_b="sub",
    )
    operand_classifier = PairClassifier(
        attack.monitor_for_page(u_frame, level=1),
        attack.monitor_for_page(v_frame, level=1),
        name_a="u",
        name_b="v",
    )

    op_labels: list[str] = []
    operand_labels: list[str | None] = []
    truth: list[str] = []

    def before(step: int, _payload: object) -> None:
        # Force pending victim stores to service *before* the eviction
        # pass: a posted write draining mid-step would re-load its tree
        # node and masquerade as the victim's current access.
        proc.drain_writes()
        op_classifier.m_evict()
        operand_classifier.m_evict()

    def probe(step: int, payload: object) -> None:
        op_labels.append(op_classifier.m_reload())
        operand_labels.append(operand_classifier.m_reload())
        truth.append(payload.detail)

    SgxStep(interval=1).run(
        victim.mod_inverse(e, phi), probe=probe, before_step=before
    )
    latencies = [(o.latency_a, o.latency_b) for o in op_classifier.observations]
    return op_labels, operand_labels, truth, latencies


def _majority(column: list[str | None], fallback: str) -> str:
    counts: dict[str, int] = {}
    for value in column:
        if value is not None and value not in ("none",):
            counts[value] = counts.get(value, 0) + 1
    if not counts:
        return fallback
    return max(counts, key=counts.get)


def _try_recover(
    ops: list[str], operands: list[str | None], e: int, modulus: int
) -> int | None:
    try:
        details = attribute_trace(ops, operands)
        candidate = recover_secret_from_trace(details, e)
    except (TraceInconsistent, ValueError):
        return None
    return candidate if factor_from_phi(modulus, candidate) else None


def _recover_with_repair(
    ops: list[str], operands: list[str | None], e: int, modulus: int
) -> int | None:
    """Recovery with single-label error repair.

    A residual voted misclassification makes the 2-adic constraints
    inconsistent; since the public modulus verifies any candidate, the
    attacker can simply retry with each single shift-operand (and each
    single op label) flipped — O(trace length) cheap recoveries.
    """
    candidate = _try_recover(ops, operands, e, modulus)
    if candidate is not None:
        return candidate
    for index, op in enumerate(ops):
        if op == "shift":
            flipped = list(operands)
            flipped[index] = "v" if operands[index] == "u" else "u"
            candidate = _try_recover(ops, flipped, e, modulus)
        else:
            # A spurious 'sub' (or missed one) cannot be fixed by relabel
            # alone, but flipping it to 'shift' with either operand is the
            # common single-error case.
            for operand in ("u", "v"):
                flipped_ops = list(ops)
                flipped_ops[index] = "shift"
                flipped_operands = list(operands)
                flipped_operands[index] = operand
                candidate = _try_recover(flipped_ops, flipped_operands, e, modulus)
                if candidate is not None:
                    break
        if candidate is not None:
            return candidate
    return None


def run_mbedtls_attack(
    *,
    secret_bits: int = 64,
    config: SecureProcessorConfig | None = None,
    recover: bool = False,
    max_runs: int = 5,
) -> MbedtlsAttackResult:
    """Detect shift/sub accesses (Figure 17); optionally recover the key.

    With ``recover=True`` the attack repeats the (deterministic) key load,
    majority-votes the traces, attributes shift runs via the operand
    buffers, runs the 2-adic recovery and verifies the candidate ``phi``
    against the public modulus — stopping early once verification passes.
    """
    machine_config = config or experiment_config("sgx", protected_size=64 * MIB)
    frames = (96, 192, 288, 384)  # distinct 8-page (L1) groups
    e, phi, modulus = generate_rsa_key(bits=secret_bits, seed=5)

    all_ops: list[list[str]] = []
    all_operands: list[list[str | None]] = []
    truth: list[str] = []
    latencies: list[tuple[int, int]] = []
    recovered: int | None = None
    runs = 0
    total_runs = max_runs if recover else 1
    for run_index in range(total_runs):
        # Fresh noise per repetition (a fixed seed would replay identical
        # jitter and make majority voting pointless).
        op_labels, operand_labels, truth, run_latencies = _one_run(
            replace(machine_config, seed=machine_config.seed + run_index),
            e,
            phi,
            frames=frames,
        )
        runs += 1
        all_ops.append(op_labels)
        all_operands.append(operand_labels)
        latencies = run_latencies
        if not recover:
            break
        # Majority-vote the aligned traces, attribute, recover, verify.
        steps = len(truth)
        ops_voted = [
            _majority([run[i] for run in all_ops if i < len(run)], "shift")
            for i in range(steps)
        ]
        operands_voted = [
            _majority([run[i] for run in all_operands if i < len(run)], "u")
            for i in range(steps)
        ]
        recovered = _recover_with_repair(ops_voted, operands_voted, e, modulus)
        if recovered is not None:
            break

    op_labels = all_ops[0]
    truth_ops = [detail.split("_")[0] for detail in truth]

    def per_op(op: str) -> float:
        pairs = [(l, t) for l, t in zip(op_labels, truth_ops) if t == op]
        if not pairs:
            return 1.0
        return sum(1 for l, t in pairs if l == t) / len(pairs)

    return MbedtlsAttackResult(
        op_accuracy=accuracy(op_labels, truth_ops),
        shift_accuracy=per_op("shift"),
        sub_accuracy=per_op("sub"),
        labels=op_labels,
        truth=truth_ops,
        latency_trace=latencies,
        steps=len(truth),
        recovered_phi=recovered,
        recovery_correct=recovered == phi,
        factors_verified=bool(recovered and factor_from_phi(modulus, recovered)),
        runs_used=runs,
    )
