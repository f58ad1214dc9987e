"""IR -> leakcheck bridge: compile and evaluate synthesized programs.

``evaluate_program`` is the fuzzer's oracle and a module-level,
campaign-resolvable callable: its kwargs (a :class:`Program` dataclass
plus plain scalars) encode through the campaign payload codec, so
generated programs hash into stable campaign config hashes, cache in
the campaign DB, and journal through the service exactly like the
hand-written figure/leakcheck tasks.

Classification is per (component, kind): a program *leaks* if the
paired-secret detector flags any kind at all, and it hits a *metadata
channel* if a flagged kind belongs to the metadata path (``mee`` /
``tree`` / ``memctrl`` / ``dram`` / ``crypto``) rather than just the
data caches.  The two paper attacks appear as named targets:

* ``metaleak_t`` — flagged ``mee``/``tree`` kinds (counter fetches,
  tree walks, node loads);
* ``metaleak_c`` — flagged ``memctrl``/``dram`` kinds (write-queue
  enqueues/drains, bank addresses of serviced writes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.config import BLOCK_SIZE, MIB, SecureProcessorConfig, preset_config
from repro.leakcheck.detector import leak_verdict
from repro.leakcheck.victims import VictimSpec
from repro.os.page_alloc import PageAllocator
from repro.os.process import Process
from repro.proc.processor import SecureProcessor
from repro.synth.ir import (
    Guard,
    OpKind,
    Program,
    op_lines,
    validate_program,
)

#: Components that make up the metadata path; a leak confined to the
#: other components (core caches, proc) is a classical data channel.
METADATA_COMPONENTS = frozenset({"mee", "tree", "memctrl", "dram", "crypto"})

#: Named channel targets the minimizer and CI gate on.  Each maps to the
#: trace components whose flagged kinds count as a hit.
TARGETS: dict[str, frozenset[str]] = {
    "metaleak_t": frozenset({"mee", "tree"}),
    "metaleak_c": frozenset({"memctrl", "dram"}),
    "metadata": METADATA_COMPONENTS,
    "any": frozenset(),  # empty = any flagged kind counts
}


def target_names() -> list[str]:
    return sorted(TARGETS)


def resolve_target(name: str) -> frozenset[str]:
    components = TARGETS.get(name)
    if components is None:
        raise ValueError(
            f"unknown synth target {name!r}; choose from {target_names()}"
        )
    return components


def synth_config(
    preset: str = "sct", defense: str = "none", **overrides: object
) -> SecureProcessorConfig:
    """The machine a synthesized program runs on: ``preset`` under
    ``defense`` (:data:`repro.config.DEFENSES`).

    Functional crypto is off (the oracle reads event streams, not
    plaintexts) and the timer is jitter-free so the paired runs are
    exactly reproducible; the protected size is scaled down because a
    synth program's footprint is at most ``MAX_PAGES`` pages.  Explicit
    ``overrides`` win over all of these.
    """
    base: dict[str, object] = {
        "functional_crypto": False,
        "timer_jitter_sigma": 0.0,
    }
    if preset != "sgx":
        base["protected_size"] = 64 * MIB
    base.update(overrides)
    return preset_config(preset, defense=defense, **base)


def _execute(proc: SecureProcessor, program: Program, secret: object) -> None:
    """Run one side of the paired experiment (``secret`` is the bit).

    The whole program is a pure function of the bit (guards are resolved
    at record time), so it compiles to one access batch, whose event
    stream is identical to per-op execution.
    """
    bit = int(secret) & 1  # type: ignore[call-overload]
    allocator = PageAllocator.for_machine(proc)
    process = Process(
        proc, allocator, core=0, cleanse=program.cleanse, name="synth"
    )
    base = process.alloc(program.pages)
    batch = process.batch()
    for op in program.ops:
        if op.guard is Guard.IF_ONE and bit != 1:
            continue
        if op.guard is Guard.IF_ZERO and bit != 0:
            continue
        if op.kind is OpKind.DRAIN:
            batch.drain()
            continue
        for line in op_lines(program, op):
            vaddr = base + line * BLOCK_SIZE
            if op.kind is OpKind.READ:
                batch.read(vaddr)
            elif op.kind is OpKind.WRITE:
                batch.write(vaddr, b"\x5a")
            else:  # FLUSH / EVICT
                batch.flush(vaddr)
    batch.drain()
    batch.run()


def compile_program(program: Program, *, name: str = "synth") -> VictimSpec:
    """A :class:`VictimSpec` whose paired secrets are the bits 0 and 1."""
    validate_program(program)

    def _secrets(seed: int) -> tuple[int, int]:
        del seed  # the IR's secret space is exactly one bit
        return 0, 1

    def _run(proc: SecureProcessor, secret: object) -> None:
        _execute(proc, program, secret)

    return VictimSpec(
        name=name,
        description=program.describe(),
        secrets=_secrets,
        run=_run,
    )


@dataclass(frozen=True)
class SynthResult:
    """The oracle's verdict for one generated program.

    Carries the program itself so a recorded campaign row, which is
    what the corpus reads, is self-contained: any stored result can be
    re-run or minimized without the generator seed that produced it.
    """

    program: Program
    preset: str
    defense: str
    alpha: float
    gen_seed: int
    leaky: bool
    metadata_leaky: bool
    channels: tuple[tuple[str, str], ...]  # flagged (component, kind)
    events: int

    def hits(self, components: frozenset[str]) -> bool:
        """Does any flagged kind land in ``components`` (empty = any)?"""
        if not self.leaky:
            return False
        if not components:
            return True
        return any(component in components for component, _ in self.channels)


def evaluate_program(
    *,
    program: Program,
    preset: str = "sct",
    defense: str = "none",
    alpha: float = 0.01,
    gen_seed: int = -1,
    capacity: int = 1 << 18,
) -> SynthResult:
    """Run the paired-secret oracle on one program and classify it."""
    config = synth_config(preset, defense)
    spec = compile_program(program)
    with obs.start_span(
        "oracle.evaluate", kind="oracle.evaluate",
        attrs={"preset": preset, "defense": defense, "gen_seed": gen_seed},
    ) as span:
        channels, events = leak_verdict(
            spec, alpha=alpha, capacity=capacity, config=config
        )
        span.set("leaky", bool(channels))
    return SynthResult(
        program=program,
        preset=preset,
        defense=defense,
        alpha=alpha,
        gen_seed=gen_seed,
        leaky=bool(channels),
        metadata_leaky=any(
            component in METADATA_COMPONENTS for component, _ in channels
        ),
        channels=channels,
        events=events,
    )
