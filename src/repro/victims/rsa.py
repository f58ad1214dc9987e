"""libgcrypt-style RSA modular exponentiation (Listing 2, Section VIII-B1).

libgcrypt 1.5.2's ``_gcry_mpi_powm`` uses square-and-multiply: every
exponent bit squares the accumulator, and a set bit additionally
multiplies.  Compiled with ``--disable-asm`` the two helpers
(``_gcry_mpih_sqr_n_basecase`` / ``_gcry_mpih_mul_karatsuba_case``) live on
separate code pages; instruction fetches into them are the leak.  The
victim models a fetch as a read of the function's page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.os.process import Process
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class ModexpStep:
    """One square or multiply operation (generator payload)."""

    operation: str  # "square" | "multiply"
    bit_index: int


class RsaModexpVictim:
    """Square-and-multiply with page-distinct square/multiply routines."""

    def __init__(self, process: Process) -> None:
        self.process = process
        self.square_page_vaddr = process.alloc(1)
        self.multiply_page_vaddr = process.alloc(1)

    @property
    def square_frame(self) -> int:
        return self.process.paddr(self.square_page_vaddr) // 4096

    @property
    def multiply_frame(self) -> int:
        return self.process.paddr(self.multiply_page_vaddr) // 4096

    def _fetch_square(self) -> None:
        self.process.read(self.square_page_vaddr)

    def _fetch_multiply(self) -> None:
        self.process.read(self.multiply_page_vaddr)

    def modexp(
        self, base: int, exponent: int, modulus: int
    ) -> Generator[ModexpStep, None, int]:
        """Compute ``base**exponent % modulus``, yielding per operation.

        MSB-first left-to-right square-and-multiply, the libgcrypt 1.5.2
        structure: each iteration squares; bit=1 iterations also multiply.
        """
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        result = 1
        bits = exponent.bit_length()
        for bit_index in range(bits - 1, -1, -1):
            self._fetch_square()
            result = (result * result) % modulus
            yield ModexpStep(operation="square", bit_index=bit_index)
            if (exponent >> bit_index) & 1:
                self._fetch_multiply()
                result = (result * base) % modulus
                yield ModexpStep(operation="multiply", bit_index=bit_index)
        return result

    def modexp_batched(self, base: int, exponent: int, modulus: int) -> int:
        """Run the exponentiation submitting its fetches as one batch.

        The instruction-fetch sequence is a pure function of the
        exponent's bits, so it can be recorded up front and submitted
        through the processor's batch API — the access order (and
        therefore every simulated event) is identical to draining
        :meth:`modexp`, just without one Python call per fetch.
        """
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        batch = self.process.batch()
        result = 1
        for bit_index in range(exponent.bit_length() - 1, -1, -1):
            batch.read(self.square_page_vaddr)
            result = (result * result) % modulus
            if (exponent >> bit_index) & 1:
                batch.read(self.multiply_page_vaddr)
                result = (result * base) % modulus
        batch.run()
        return result


def generate_test_key(bits: int = 128, seed: int = 99) -> tuple[int, int, int]:
    """A (base, exponent, modulus) triple for experiments.

    Not cryptographically meaningful — the attack targets the *access
    pattern*, which depends only on the exponent's bits.
    """
    rng = derive_rng(seed, "rsa-key")
    exponent = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
    base = rng.getrandbits(bits // 2) | 1
    return base, exponent, modulus
