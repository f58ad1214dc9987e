"""mbedTLS-style private-key loading (Section VIII-B2).

RSA key loading computes the private exponent ``d = e^{-1} mod phi`` with
``phi = (p-1)(q-1)`` via a binary extended Euclidean algorithm whose inner
loop alternates two page-distinct primitives: right shifts
(``mbedtls_mpi_shift_r``) and subtractions (``mbedtls_mpi_sub_mpi``).  The
shift/sub pattern is a function of the *secret* ``phi``, and — as the works
the paper cites ([91], [93], [94]) establish — the secret is computationally
recoverable from the operation trace.  :func:`recover_secret_from_trace`
implements that recovery with 2-adic constraint propagation: every parity
decision in the trace is one congruence on ``phi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Generator

from repro.os.process import Process
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class KeyLoadStep:
    """One binary-GCD operation (generator payload).

    ``operation`` is what the attacker can hope to distinguish (the page:
    "shift" or "sub"); ``detail`` carries the which-variable ground truth
    ("shift_u", "sub_v", ...) used by the computational recovery.
    """

    operation: str
    detail: str


class KeyLoadVictim:
    """Binary extended Euclid with page-distinct shift/sub routines.

    Besides the two *code* pages, the two bignum operands ``u`` and ``v``
    live in their own heap buffers (as mbedTLS MPI limb arrays do), each
    on its own page.  A shift touches its operand's buffer; that is what
    lets an attacker attribute each shift run to ``u`` or ``v`` — and
    shift-run attribution determines the preceding subtraction's
    direction, completing the trace the computational recovery needs.
    """

    def __init__(self, process: Process) -> None:
        self.process = process
        self.shift_page_vaddr = process.alloc(1)
        self.sub_page_vaddr = process.alloc(1)
        self.u_buffer_vaddr = process.alloc(1)
        self.v_buffer_vaddr = process.alloc(1)

    @property
    def shift_frame(self) -> int:
        return self.process.paddr(self.shift_page_vaddr) // 4096

    @property
    def v_buffer_frame(self) -> int:
        return self.process.paddr(self.v_buffer_vaddr) // 4096

    def _shift(self, operand_vaddr: int) -> None:
        self.process.read(self.shift_page_vaddr)
        # Shifting is read-modify-write over the limb buffer; the read is
        # what walks the integrity tree and exposes the operand identity.
        self.process.read(operand_vaddr)
        self.process.write(operand_vaddr)

    def _sub(self) -> None:
        # A subtraction reads both operands; it does not identify its
        # written target to a page-granular observer.
        self.process.read(self.sub_page_vaddr)
        self.process.read(self.u_buffer_vaddr)
        self.process.read(self.v_buffer_vaddr)

    def mod_inverse(
        self, e: int, phi: int
    ) -> Generator[KeyLoadStep, None, int]:
        """Compute ``e^{-1} mod phi``, yielding one step per shift/sub.

        Binary extended GCD (HAC Algorithm 14.61, the structure mbedTLS's
        ``mbedtls_mpi_inv_mod`` follows): invariants ``A·e + B·phi = u``
        and ``C·e + D·phi = v``; the coefficient adjustments ride along
        inside the same shift/sub primitives.
        """
        if e <= 0 or phi <= 1:
            raise ValueError("need e > 0 and phi > 1")
        if e % 2 == 0:
            raise ValueError("public exponent must be odd (e.g. 65537)")
        if gcd(e, phi) != 1:
            raise ValueError("e and phi must be coprime")
        u, v = e, phi
        coeff_a, coeff_b, coeff_c, coeff_d = 1, 0, 0, 1
        while u != 0:
            while u % 2 == 0:
                u >>= 1
                if coeff_a % 2 == 0 and coeff_b % 2 == 0:
                    coeff_a >>= 1
                    coeff_b >>= 1
                else:
                    coeff_a = (coeff_a + phi) >> 1
                    coeff_b = (coeff_b - e) >> 1
                self._shift(self.u_buffer_vaddr)
                yield KeyLoadStep(operation="shift", detail="shift_u")
            while v % 2 == 0:
                v >>= 1
                if coeff_c % 2 == 0 and coeff_d % 2 == 0:
                    coeff_c >>= 1
                    coeff_d >>= 1
                else:
                    coeff_c = (coeff_c + phi) >> 1
                    coeff_d = (coeff_d - e) >> 1
                self._shift(self.v_buffer_vaddr)
                yield KeyLoadStep(operation="shift", detail="shift_v")
            if u >= v:
                u -= v
                coeff_a -= coeff_c
                coeff_b -= coeff_d
                self._sub()
                yield KeyLoadStep(operation="sub", detail="sub_u")
            else:
                v -= u
                coeff_c -= coeff_a
                coeff_d -= coeff_b
                self._sub()
                yield KeyLoadStep(operation="sub", detail="sub_v")
        # v now holds gcd(e, phi) = 1 with C·e + D·phi = 1.
        return coeff_c % phi


# ----------------------------------------------------------------------
# Computational recovery from the operation trace
# ----------------------------------------------------------------------


class TraceInconsistent(Exception):
    """The trace cannot have been produced by any secret value."""


class _Congruences:
    """Accumulates V ≡ r (mod 2^t) knowledge from B·V ≡ c (mod 2^m)."""

    def __init__(self) -> None:
        self.residue = 0
        self.bits = 0

    def add(self, b: int, c: int, m: int) -> None:
        if m <= 0:
            return
        c %= 1 << m
        if b == 0:
            if c != 0:
                raise TraceInconsistent("constraint 0 ≡ c with c != 0")
            return
        val = (b & -b).bit_length() - 1  # 2-adic valuation of b
        if val >= m:
            if c % (1 << m) != 0:
                raise TraceInconsistent("unsatisfiable congruence")
            return
        if c % (1 << val) != 0:
            raise TraceInconsistent("valuation mismatch")
        b_odd = b >> val
        c_reduced = c >> val
        modulus_bits = m - val
        inverse = pow(b_odd, -1, 1 << modulus_bits)
        residue = (c_reduced * inverse) % (1 << modulus_bits)
        self._merge(residue, modulus_bits)

    def _merge(self, residue: int, bits: int) -> None:
        common = min(bits, self.bits)
        if (residue ^ self.residue) & ((1 << common) - 1):
            raise TraceInconsistent("conflicting residues")
        if bits > self.bits:
            self.residue = residue
            self.bits = bits


class _Affine:
    """An exact integer of the form (a + b·V) / 2^s."""

    __slots__ = ("a", "b", "s")

    def __init__(self, a: int, b: int, s: int = 0) -> None:
        self.a, self.b, self.s = a, b, s

    def constrain_even(self, congruences: _Congruences) -> None:
        # (a + bV)/2^s even  <=>  bV ≡ -a (mod 2^{s+1})
        congruences.add(self.b, -self.a, self.s + 1)

    def constrain_odd(self, congruences: _Congruences) -> None:
        # (a + bV)/2^s odd  <=>  bV ≡ 2^s - a (mod 2^{s+1})
        congruences.add(self.b, (1 << self.s) - self.a, self.s + 1)

    def shifted(self) -> "_Affine":
        return _Affine(self.a, self.b, self.s + 1)

    def minus(self, other: "_Affine") -> "_Affine":
        s = max(self.s, other.s)
        return _Affine(
            self.a * (1 << (s - self.s)) - other.a * (1 << (s - other.s)),
            self.b * (1 << (s - self.s)) - other.b * (1 << (s - other.s)),
            s,
        )


def recover_secret_from_trace(details: list[str], e: int) -> int:
    """Recover ``phi`` from a perfect binary-GCD operation trace.

    ``details`` is the per-step which-variable trace ("shift_u",
    "shift_v", "sub_u", "sub_v").  Every step's implied parity facts are
    2-adic congruences on ``phi``; the terminal ``u == v`` equality pins
    any remaining slack.  Raises :class:`TraceInconsistent` for impossible
    traces.
    """
    u = _Affine(e, 0)
    v = _Affine(0, 1)
    congruences = _Congruences()
    for detail in details:
        if detail == "shift_u":
            u.constrain_even(congruences)
            u = u.shifted()
        elif detail == "shift_v":
            u.constrain_odd(congruences)
            v.constrain_even(congruences)
            v = v.shifted()
        elif detail == "sub_u":
            u.constrain_odd(congruences)
            v.constrain_odd(congruences)
            u = u.minus(v)
        elif detail == "sub_v":
            u.constrain_odd(congruences)
            v.constrain_odd(congruences)
            v = v.minus(u)
        else:
            raise ValueError(f"unknown trace step {detail!r}")
    # Terminal state (HAC 14.61): u == 0, an exact linear equation in V.
    if u.b != 0:
        if u.a % u.b != 0:
            raise TraceInconsistent("terminal u = 0 unsolvable")
        candidate = -u.a // u.b
        if candidate > 0:
            return candidate
    if congruences.bits == 0:
        raise TraceInconsistent("trace carries no information")
    if congruences.bits > 8192:
        raise TraceInconsistent("secret larger than 8192 bits")
    return congruences.residue


def attribute_trace(
    operations: list[str], operands: list[str | None]
) -> list[str]:
    """Rebuild full ``shift_u``-style labels from attacker observations.

    ``operations[i]`` is "shift"/"sub" (from the code-page monitors);
    ``operands[i]`` is "u"/"v" for shift steps (from the operand-buffer
    monitors; subs touch both buffers so their entry is ignored).  A sub's
    direction equals the operand of the *following* shift run (``u - v``
    leaves u even), and the final sub is always ``sub_u`` (it zeroes u).
    """
    if len(operations) != len(operands):
        raise ValueError("operations and operands must align")
    details: list[str] = []
    for index, operation in enumerate(operations):
        if operation == "shift":
            operand = operands[index]
            if operand not in ("u", "v"):
                raise ValueError(f"shift step {index} lacks an operand label")
            details.append(f"shift_{operand}")
        elif operation == "sub":
            following = next(
                (
                    operands[j]
                    for j in range(index + 1, len(operations))
                    if operations[j] == "shift"
                ),
                "u",  # the final sub zeroes u
            )
            details.append(f"sub_{following}")
        else:
            raise ValueError(f"unknown operation {operation!r}")
    return details


def factor_from_phi(n: int, phi: int) -> tuple[int, int] | None:
    """Recover (p, q) from the RSA modulus and a candidate phi.

    phi = (p-1)(q-1) = n - (p+q) + 1, so p and q are the integer roots of
    x^2 - s·x + n with s = n - phi + 1.  Returns None when the candidate
    is not consistent with n.
    """
    s = n - phi + 1
    discriminant = s * s - 4 * n
    if discriminant < 0:
        return None
    root = _isqrt(discriminant)
    if root * root != discriminant:
        return None
    p = (s + root) // 2
    q = (s - root) // 2
    if p * q != n or p <= 1 or q <= 1:
        return None
    return p, q


def _isqrt(value: int) -> int:
    import math

    return math.isqrt(value)


def generate_keypair_inputs(bits: int = 64, seed: int = 5) -> tuple[int, int]:
    """(e, phi) pair shaped like RSA key loading: e = 65537, phi even."""
    e, phi, _ = generate_rsa_key(bits, seed)
    return e, phi


def generate_rsa_key(bits: int = 64, seed: int = 5) -> tuple[int, int, int]:
    """(e, phi, n) with n = p*q public, as in real RSA key loading.

    p and q are random odd numbers (not certified primes — the leak and
    the recovery math only need the multiplicative structure), with a
    factor-check-friendly shape: gcd(e, phi) = 1.
    """
    rng = derive_rng(seed, "mbedtls-key")
    e = 65537
    while True:
        p = rng.getrandbits(bits // 2) | (1 << (bits // 2 - 1)) | 1
        q = rng.getrandbits(bits // 2) | (1 << (bits // 2 - 1)) | 1
        phi = (p - 1) * (q - 1)
        if p != q and phi > 1 and gcd(e, phi) == 1:
            return e, phi, p * q
