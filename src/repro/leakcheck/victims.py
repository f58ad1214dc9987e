"""Victim harnesses for the automated leakage detector.

Each :class:`VictimSpec` packages a *paired-secret* experiment: a way to
derive two secrets that share every public parameter (key size, message
length, image dimensions, operation count...) while differing in the bits
an attacker wants, plus a driver that runs the victim to completion on a
given machine.  The detector runs the driver twice — once per secret, on
identically configured machines — and diffs the metadata event streams.

The pairing discipline is what makes the check sound: any distinguishing
event between the two runs is attributable to the secret, because nothing
else differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.config import PAGE_SIZE
from repro.os.page_alloc import PageAllocator
from repro.os.process import Process
from repro.proc.processor import SecureProcessor
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class VictimSpec:
    """One paired-secret leakage experiment.

    ``secrets(seed)`` returns the pair; ``run(proc, secret)`` drives the
    victim to completion (including any trailing write drain) on a fresh
    machine.  ``run`` must perform the same *public* work for any secret —
    same allocations in the same order, same call count — so the only
    divergence between the paired runs is secret-dependent behaviour.
    """

    name: str
    description: str
    secrets: Callable[[int], tuple[object, object]]
    run: Callable[[SecureProcessor, object], None]


def _make_process(proc: SecureProcessor) -> Process:
    allocator = PageAllocator.for_machine(proc)
    return Process(proc, allocator, core=0, cleanse=True, name="victim")


# ----------------------------------------------------------------------
# rsa: square-and-multiply exponent bits (MetaLeak-T's headline target)
# ----------------------------------------------------------------------


def _rsa_secrets(seed: int) -> tuple[int, int]:
    """Two exponents of equal bit length but very different weight.

    Same public parameters (bit length, base, modulus); the dense/sparse
    Hamming weights guarantee differing multiply counts, which is exactly
    the signal square-and-multiply leaks.
    """
    rng = derive_rng(seed, "leakcheck-rsa")
    bits = 48
    top = 1 << (bits - 1)
    dense = top | (rng.getrandbits(bits - 1) | rng.getrandbits(bits - 1)) | 1
    sparse = top | (rng.getrandbits(bits - 1) & rng.getrandbits(bits - 1) & rng.getrandbits(bits - 1)) | 1
    return dense, sparse


def _rsa_run(proc: SecureProcessor, secret: object) -> None:
    from repro.victims.rsa import RsaModexpVictim

    process = _make_process(proc)
    victim = RsaModexpVictim(process)
    rng = derive_rng(0, "leakcheck-rsa-public")
    base = rng.getrandbits(24) | 1
    modulus = rng.getrandbits(48) | (1 << 47) | 1
    # The fetch sequence is a pure function of the secret's bits, so it
    # goes through the batch API, which emits the same events as per-op
    # calls.
    victim.modexp_batched(base, int(secret), modulus)
    proc.drain_writes()


# ----------------------------------------------------------------------
# mbedtls: binary-GCD key loading (shift/sub pattern is phi-dependent)
# ----------------------------------------------------------------------


def _mbedtls_secrets(seed: int) -> tuple[int, int]:
    from repro.victims.mbedtls import generate_keypair_inputs

    _, phi_a = generate_keypair_inputs(bits=40, seed=seed)
    _, phi_b = generate_keypair_inputs(bits=40, seed=seed + 1009)
    return phi_a, phi_b


def _mbedtls_run(proc: SecureProcessor, secret: object) -> None:
    from repro.victims.mbedtls import KeyLoadVictim

    process = _make_process(proc)
    victim = KeyLoadVictim(process)
    for _ in victim.mod_inverse(65537, int(secret)):
        pass
    proc.drain_writes()


# ----------------------------------------------------------------------
# kvstore: persistent writes reveal which bucket pages the keys hash to
# ----------------------------------------------------------------------


def _kvstore_secrets(seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    rng = derive_rng(seed, "leakcheck-kv")
    count = 12  # public: same number of puts either way
    keys_a = tuple(f"user-{rng.getrandbits(30):08x}" for _ in range(count))
    keys_b = tuple(f"user-{rng.getrandbits(30):08x}" for _ in range(count))
    return keys_a, keys_b


def _kvstore_run(proc: SecureProcessor, secret: object) -> None:
    from repro.victims.kvstore import PersistentKvStore

    process = _make_process(proc)
    store = PersistentKvStore(process, buckets=8)
    for key in secret:  # type: ignore[union-attr]
        for _ in store.put(key, b"v"):
            pass
    proc.drain_writes()


# ----------------------------------------------------------------------
# jpeg: per-block zero-run structure of the image drives Huffman work
# ----------------------------------------------------------------------


def _jpeg_secrets(seed: int) -> tuple[str, str]:
    del seed  # the image catalogue is fixed; quality/size stay public
    return "text", "gradient"


def _jpeg_run(proc: SecureProcessor, secret: object) -> None:
    from repro.victims.jpeg.encoder import JpegVictim
    from repro.victims.jpeg.images import sample_image

    process = _make_process(proc)
    victim = JpegVictim(process, quality=50)
    image = sample_image(str(secret), size=16)
    for _ in victim.encode_image(image):
        pass
    proc.drain_writes()


# ----------------------------------------------------------------------
# const: a constant-time reference that must come back clean
# ----------------------------------------------------------------------


def _const_secrets(seed: int) -> tuple[int, int]:
    rng = derive_rng(seed, "leakcheck-const")
    return rng.getrandbits(64), rng.getrandbits(64)


def _const_run(proc: SecureProcessor, secret: object) -> None:
    """Fixed access pattern: the secret is loaded but never branches."""
    del secret
    process = _make_process(proc)
    base = process.alloc(4)
    for sweep in range(3):
        for page in range(4):
            process.write(base + page * PAGE_SIZE + sweep * 64, b"x")
    for page in range(4):
        process.read(base + page * PAGE_SIZE)
    proc.drain_writes()


VICTIMS: dict[str, VictimSpec] = {
    spec.name: spec
    for spec in (
        VictimSpec(
            name="rsa",
            description="libgcrypt square-and-multiply modexp "
            "(exponent weight drives multiply count)",
            secrets=_rsa_secrets,
            run=_rsa_run,
        ),
        VictimSpec(
            name="mbedtls",
            description="mbedTLS binary-GCD key loading "
            "(shift/sub schedule is a function of phi)",
            secrets=_mbedtls_secrets,
            run=_mbedtls_run,
        ),
        VictimSpec(
            name="kvstore",
            description="persistent KV store "
            "(bucket-page writes reveal key hashes)",
            secrets=_kvstore_secrets,
            run=_kvstore_run,
        ),
        VictimSpec(
            name="jpeg",
            description="JPEG encoder (zero-run structure drives "
            "Huffman-table accesses)",
            secrets=_jpeg_secrets,
            run=_jpeg_run,
        ),
        VictimSpec(
            name="const",
            description="constant-time reference workload "
            "(must produce a clean report)",
            secrets=_const_secrets,
            run=_const_run,
        ),
    )
}


def victim_names() -> list[str]:
    return sorted(VICTIMS)


def list_victims() -> list[VictimSpec]:
    """Every registered victim, sorted by name (CLI/service enumeration)."""
    return [VICTIMS[name] for name in victim_names()]


def get_victim(name: str) -> VictimSpec:
    spec = VICTIMS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown leakcheck victim {name!r}; choose from {victim_names()}"
        )
    return spec
