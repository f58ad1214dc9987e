"""Tests for the RSA and mbedTLS victims and their trace-recovery math."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MIB, PAGE_SIZE, SecureProcessorConfig
from repro.os import PageAllocator, Process
from repro.proc import SecureProcessor
from repro.victims.mbedtls import (
    KeyLoadVictim,
    TraceInconsistent,
    generate_keypair_inputs,
    recover_secret_from_trace,
)
from repro.victims.rsa import RsaModexpVictim, generate_test_key


def recover_exponent_from_ops(operations: list[str]) -> int:
    """Rebuild the exponent from a square/multiply operation trace.

    A square followed by a multiply is a 1 bit; a square followed by
    another square (or end of trace) is a 0 bit.  The leading bit of any
    non-zero exponent is implicitly 1 (the loop starts at the MSB).
    """
    bits: list[int] = []
    index = 0
    while index < len(operations):
        operation = operations[index]
        if operation != "square":
            raise ValueError(f"malformed trace at {index}: {operation!r}")
        if index + 1 < len(operations) and operations[index + 1] == "multiply":
            bits.append(1)
            index += 2
        else:
            bits.append(0)
            index += 1
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    return value


def make_process():
    proc = SecureProcessor(
        SecureProcessorConfig.sct_default(
            protected_size=64 * MIB, functional_crypto=False
        )
    )
    alloc = PageAllocator(proc.layout.data_size // PAGE_SIZE)
    return Process(proc, alloc, cleanse=True)


def drain(generator):
    """Run a victim generator; returns (payloads, return_value)."""
    payloads = []
    while True:
        try:
            payloads.append(next(generator))
        except StopIteration as stop:
            return payloads, stop.value


class TestRsaVictim:
    def setup_method(self):
        self.victim = RsaModexpVictim(make_process())

    def test_functions_on_distinct_pages(self):
        assert self.victim.square_frame != self.victim.multiply_frame

    def test_modexp_correct(self):
        _, result = drain(self.victim.modexp(7, 0b1011, 1000))
        assert result == pow(7, 0b1011, 1000)

    def test_operation_sequence_matches_bits(self):
        steps, _ = drain(self.victim.modexp(3, 0b101, 97))
        ops = [s.operation for s in steps]
        # 0b101: S M (msb), S (0), S M (1)
        assert ops == ["square", "multiply", "square", "square", "multiply"]

    def test_zero_exponent(self):
        steps, result = drain(self.victim.modexp(3, 0, 97))
        assert result == 1
        assert steps == []

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            drain(self.victim.modexp(3, 5, 0))
        with pytest.raises(ValueError):
            drain(self.victim.modexp(3, -1, 97))

    @given(st.integers(min_value=1, max_value=2**32), st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_modexp_matches_pow(self, exponent, modulus):
        victim = self.victim
        steps, result = drain(victim.modexp(5, exponent, modulus))
        assert result == pow(5, exponent, modulus)


class TestRsaRecovery:
    def test_recover_from_perfect_trace(self):
        victim = RsaModexpVictim(make_process())
        base, exponent, modulus = generate_test_key(96)
        steps, _ = drain(victim.modexp(base, exponent, modulus))
        assert recover_exponent_from_ops([s.operation for s in steps]) == exponent

    def test_malformed_trace_rejected(self):
        with pytest.raises(ValueError):
            recover_exponent_from_ops(["multiply"])

    @given(st.integers(min_value=1, max_value=2**64 - 1))
    @settings(max_examples=40, deadline=None)
    def test_recovery_roundtrip_property(self, exponent):
        victim = RsaModexpVictim(make_process())
        steps, _ = drain(victim.modexp(2, exponent, 10**9 + 7))
        assert recover_exponent_from_ops([s.operation for s in steps]) == exponent


class TestKeyLoadVictim:
    def setup_method(self):
        self.victim = KeyLoadVictim(make_process())

    def test_inverse_correct(self):
        e, phi = generate_keypair_inputs(bits=48, seed=1)
        _, d = drain(self.victim.mod_inverse(e, phi))
        assert (d * e) % phi == 1

    def test_ops_are_shift_or_sub(self):
        e, phi = generate_keypair_inputs(bits=32, seed=2)
        steps, _ = drain(self.victim.mod_inverse(e, phi))
        assert steps  # non-trivial trace
        assert {s.operation for s in steps} <= {"shift", "sub"}
        assert {s.detail for s in steps} <= {
            "shift_u",
            "shift_v",
            "sub_u",
            "sub_v",
        }

    def test_even_e_rejected(self):
        with pytest.raises(ValueError):
            drain(self.victim.mod_inverse(4, 9))

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            drain(self.victim.mod_inverse(3, 9))

    def test_small_inputs_rejected(self):
        with pytest.raises(ValueError):
            drain(self.victim.mod_inverse(0, 5))
        with pytest.raises(ValueError):
            drain(self.victim.mod_inverse(3, 1))

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_inverse_property(self, seed):
        e, phi = generate_keypair_inputs(bits=32, seed=seed)
        _, d = drain(self.victim.mod_inverse(e, phi))
        assert (d * e) % phi == 1
        assert 0 <= d < phi


class TestMbedtlsRecovery:
    def _trace(self, e, phi):
        victim = KeyLoadVictim(make_process())
        steps, _ = drain(victim.mod_inverse(e, phi))
        return [s.detail for s in steps]

    def test_recover_phi_from_trace(self):
        e, phi = generate_keypair_inputs(bits=64, seed=3)
        assert recover_secret_from_trace(self._trace(e, phi), e) == phi

    def test_recover_with_e_65537(self):
        e, phi = generate_keypair_inputs(bits=96, seed=7)
        assert e == 65537
        assert recover_secret_from_trace(self._trace(e, phi), e) == phi

    def test_garbage_trace_detected_or_wrong(self):
        e, phi = generate_keypair_inputs(bits=32, seed=4)
        trace = self._trace(e, phi)
        corrupted = ["shift_u"] * 200
        try:
            recovered = recover_secret_from_trace(corrupted, e)
        except TraceInconsistent:
            return
        assert recovered != phi

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError):
            recover_secret_from_trace(["wiggle"], 65537)

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=25, deadline=None)
    def test_recovery_property(self, seed):
        e, phi = generate_keypair_inputs(bits=48, seed=seed)
        assert recover_secret_from_trace(self._trace(e, phi), e) == phi

    def test_larger_secret(self):
        e, phi = generate_keypair_inputs(bits=256, seed=9)
        assert recover_secret_from_trace(self._trace(e, phi), e) == phi
