"""Tests for end-to-end RSA key recovery from mbedTLS traces."""

import pytest

from repro.config import MIB, preset_config
from repro.victims.mbedtls import (
    KeyLoadVictim,
    attribute_trace,
    factor_from_phi,
    generate_rsa_key,
    recover_secret_from_trace,
)


class _FakeProcess:
    def alloc(self, pages=1):
        return 0x1000

    def paddr(self, vaddr):
        return vaddr

    def read(self, vaddr):
        pass

    def write(self, vaddr, data=None):
        pass


def run_victim(e, phi):
    victim = KeyLoadVictim(_FakeProcess())
    generator = victim.mod_inverse(e, phi)
    steps = []
    while True:
        try:
            steps.append(next(generator))
        except StopIteration:
            return steps


class TestAttributeTrace:
    def test_perfect_observations_reconstruct_details(self):
        e, phi, _ = generate_rsa_key(bits=64, seed=2)
        steps = run_victim(e, phi)
        operations = [s.operation for s in steps]
        operands = [
            s.detail.split("_")[1] if s.operation == "shift" else None
            for s in steps
        ]
        details = attribute_trace(operations, operands)
        assert details == [s.detail for s in steps]

    def test_final_sub_is_sub_u(self):
        details = attribute_trace(["shift", "sub"], ["v", None])
        assert details == ["shift_v", "sub_u"]

    def test_sub_inherits_following_run(self):
        details = attribute_trace(
            ["shift", "sub", "shift", "shift"], ["v", None, "u", "u"]
        )
        assert details == ["shift_v", "sub_u", "shift_u", "shift_u"]

    def test_missing_operand_rejected(self):
        with pytest.raises(ValueError):
            attribute_trace(["shift"], [None])

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            attribute_trace(["shift"], [])

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            attribute_trace(["jump"], ["u"])


class TestFactorCheck:
    def test_accepts_true_phi(self):
        e, phi, n = generate_rsa_key(bits=64, seed=3)
        factors = factor_from_phi(n, phi)
        assert factors is not None
        p, q = factors
        assert p * q == n
        assert (p - 1) * (q - 1) == phi

    def test_rejects_wrong_phi(self):
        _, phi, n = generate_rsa_key(bits=64, seed=3)
        assert factor_from_phi(n, phi + 2) is None
        assert factor_from_phi(n, phi - 2) is None

    def test_rejects_negative_discriminant(self):
        assert factor_from_phi(15, 15) is None


class TestEndToEnd:
    def test_noiseless_single_run_recovery(self):
        from repro.analysis.mbedtls_attack import run_mbedtls_attack

        config = preset_config(
            "sgx", protected_size=64 * MIB, functional_crypto=False
        )
        outcome = run_mbedtls_attack(
            secret_bits=48, config=config, recover=True, max_runs=2
        )
        assert outcome.recovery_correct
        assert outcome.factors_verified
        assert outcome.runs_used == 1

    @pytest.mark.slow
    def test_noisy_recovery_with_majority_voting(self):
        from repro.analysis.mbedtls_attack import run_mbedtls_attack

        config = preset_config(
            "sgx", protected_size=64 * MIB,
            functional_crypto=False,
            timer_jitter_sigma=60,
        )
        outcome = run_mbedtls_attack(
            secret_bits=48, config=config, recover=True, max_runs=9
        )
        assert outcome.recovery_correct
        assert outcome.runs_used >= 2  # noise forced extra voting rounds


class TestLabeledRecoveryStillGreen:
    def test_trace_recovery_roundtrip(self):
        e, phi, _ = generate_rsa_key(bits=96, seed=11)
        details = [s.detail for s in run_victim(e, phi)]
        assert recover_secret_from_trace(details, e) == phi
