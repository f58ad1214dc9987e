#!/usr/bin/env python3
"""Exfiltrate an RSA exponent from an SGX enclave (Figure 16).

The victim runs libgcrypt-style square-and-multiply inside an enclave.
The malicious OS places the two routine pages in chosen EPC frames, puts
attacker pages in the same SIT L1 groups, single-steps the enclave
(SGX-Step) and mEvict+mReloads the shared tree nodes at every step.

Run:  python examples/sgx_rsa_attack.py [bits]
"""

import sys

from repro.analysis import run_rsa_attack
from repro.config import MIB, preset_config


def bits_to_str(bits, limit=48):
    text = "".join(map(str, bits[:limit]))
    return text + ("..." if len(bits) > limit else "")


def main() -> None:
    bits = int(sys.argv[1]) if len(sys.argv) > 1 else 96
    config = preset_config(
        "sgx", protected_size=64 * MIB, functional_crypto=False, timer_jitter_sigma=88
    )
    print(f"Recovering a {bits}-bit exponent from an SGX enclave ...")
    outcome = run_rsa_attack("sgx", exponent_bits=bits, config=config)
    print(f"  victim operations stepped : {outcome.steps}")
    print(f"  true exponent bits        : {bits_to_str(outcome.true_bits)}")
    print(f"  recovered bits            : {bits_to_str(outcome.recovered_bits)}")
    print(f"  per-op detection accuracy : {outcome.op_accuracy:.1%}")
    print(f"  exponent bit accuracy     : {outcome.bit_accuracy:.1%}  (paper: 91.2%)")
    square, multiply = outcome.latency_trace[0]
    print(f"  sample reload latencies   : square-page={square}, multiply-page={multiply}")

    print("\nSame attack on the simulated academic design (SCT):")
    sct_config = preset_config(
        "sct", protected_size=256 * MIB, functional_crypto=False, timer_jitter_sigma=11
    )
    sct = run_rsa_attack("sct", exponent_bits=bits, config=sct_config)
    print(f"  exponent bit accuracy     : {sct.bit_accuracy:.1%}  (paper: 95.1%)")


if __name__ == "__main__":
    main()
