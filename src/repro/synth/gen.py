"""Seeded random program generator (the fuzzer's front end).

Programs are drawn from :func:`~repro.utils.rng.derive_rng`-seeded
randomness, so generation is a pure function of ``(seed, GenConfig)``:
the fuzz driver, the service's ``synth`` job kind, and the repository
benchmark's ``oracle`` workload all regenerate identical programs from
the same seed, which is what lets generated programs cache in the
campaign DB like any other task.

The op mix is biased toward the shapes that reach the metadata path:
flush-then-read sequences force counter fetches and tree walks
(MetaLeak-T territory), and cleansed writes plus drains exercise the
memory-controller write queue (MetaLeak-C territory).  Every program is
guaranteed at least one secret-guarded op — a program with no guards is
constant by construction and can never trip the paired-secret oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.synth.ir import (
    LINES_PER_PAGE,
    MAX_COUNT,
    MAX_OPS,
    MAX_PAGES,
    MAX_STRIDE,
    Guard,
    Op,
    OpKind,
    Program,
    ProgramError,
    validate_program,
)
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class GenConfig:
    """Generator knobs (see docs/synth.md for the tuning rationale)."""

    max_pages: int = 4
    min_ops: int = 6
    max_ops: int = 24
    p_guard: float = 0.35        # per-op probability of a secret guard
    p_cleanse: float = 0.5       # per-program write-through threat model
    max_count: int = 8           # repetitions per op
    max_stride: int = 4          # line stride per op
    # Relative op-kind weights (READ, WRITE, FLUSH, EVICT, DRAIN).
    weights: tuple[float, float, float, float, float] = (4, 3, 2, 1, 1)

    def validate(self) -> "GenConfig":
        if not 1 <= self.max_pages <= MAX_PAGES:
            raise ProgramError(
                f"max_pages must be in [1, {MAX_PAGES}], got {self.max_pages}"
            )
        if not 1 <= self.min_ops <= self.max_ops <= MAX_OPS:
            raise ProgramError(
                f"need 1 <= min_ops <= max_ops <= {MAX_OPS}, got "
                f"[{self.min_ops}, {self.max_ops}]"
            )
        if not 1 <= self.max_count <= MAX_COUNT:
            raise ProgramError(
                f"max_count must be in [1, {MAX_COUNT}], got {self.max_count}"
            )
        if not 1 <= self.max_stride <= MAX_STRIDE:
            raise ProgramError(
                f"max_stride must be in [1, {MAX_STRIDE}], "
                f"got {self.max_stride}"
            )
        if not 0.0 <= self.p_guard <= 1.0 or not 0.0 <= self.p_cleanse <= 1.0:
            raise ProgramError("p_guard and p_cleanse must be in [0, 1]")
        if len(self.weights) != 5 or any(w < 0 for w in self.weights) or \
                sum(self.weights) <= 0:
            raise ProgramError(
                "weights must be 5 non-negative numbers with a positive sum"
            )
        return self


_KINDS = (OpKind.READ, OpKind.WRITE, OpKind.FLUSH, OpKind.EVICT, OpKind.DRAIN)


def generate_program(seed: int, config: GenConfig | None = None) -> Program:
    """Draw one valid program from ``seed`` (deterministic)."""
    cfg = (config or GenConfig()).validate()
    rng = derive_rng(seed, "synth-gen")
    pages = rng.randint(1, cfg.max_pages)
    n_ops = rng.randint(cfg.min_ops, cfg.max_ops)
    ops = []
    for _ in range(n_ops):
        kind = rng.choices(_KINDS, weights=cfg.weights)[0]
        guard = Guard.ALWAYS
        if rng.random() < cfg.p_guard:
            guard = Guard.IF_ONE if rng.random() < 0.5 else Guard.IF_ZERO
        ops.append(
            Op(
                kind=kind,
                guard=guard,
                page=rng.randrange(pages),
                offset=rng.randrange(LINES_PER_PAGE),
                count=rng.randint(1, cfg.max_count),
                stride=rng.randint(1, cfg.max_stride),
            )
        )
    if all(op.guard is Guard.ALWAYS for op in ops):
        # An unguarded program is constant-time by construction; force
        # one secret-dependent op so the draw can at least participate.
        index = rng.randrange(len(ops))
        ops[index] = replace(ops[index], guard=Guard.IF_ONE)
    program = Program(
        pages=pages,
        ops=tuple(ops),
        cleanse=rng.random() < cfg.p_cleanse,
    )
    return validate_program(program)


def generate_batch(
    seed: int, count: int, config: GenConfig | None = None
) -> list[tuple[int, Program]]:
    """``count`` programs at consecutive generator seeds from ``seed``."""
    if count < 1:
        raise ProgramError(f"batch count must be positive, got {count}")
    return [(seed + i, generate_program(seed + i, config))
            for i in range(count)]
