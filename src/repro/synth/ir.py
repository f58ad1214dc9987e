"""Declarative access-pattern IR for synthesized attacker/victim programs.

A :class:`Program` is a tiny straight-line program over a private pool of
``pages`` mapped pages: a sequence of :class:`Op` records (reads, writes,
flushes, contiguous evictions, write-queue drains), each optionally
guarded on the paired-secret bit.  The IR is deliberately small and
declarative so that

* a program is *data* — it round-trips through the campaign payload
  codec (enums, tuples, nested dataclasses), hashes into a stable
  campaign config hash, and serialises to human-readable JSON for the
  corpus key and witness files;
* compilation to a :class:`~repro.leakcheck.victims.VictimSpec` is
  deterministic: the same program always performs the same accesses for
  a given secret bit, so the leakcheck oracle's paired-run discipline
  holds (public work identical, divergence only behind guards);
* the delta-debugging minimizer can shrink a program structurally
  (drop ops, reduce counts/strides, clear guards) without ever leaving
  the language.

Addresses are line-granular: op ``i`` of a ``READ page=p offset=o
count=c stride=s`` accesses line ``(p * lines_per_page + o + i*s) mod
span`` of the program's page span, so every generated or shrunk program
stays inside its mapped footprint by construction.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace

from repro.config import BLOCK_SIZE, PAGE_SIZE

#: Cache lines per mapped page (address arithmetic unit of the IR).
LINES_PER_PAGE = PAGE_SIZE // BLOCK_SIZE

#: Hard caps keeping any program laptop-fast and the minimizer bounded.
MAX_PAGES = 16
MAX_OPS = 64
MAX_COUNT = 64
MAX_STRIDE = LINES_PER_PAGE

#: Witness JSON schema version.
SCHEMA_VERSION = 1


class OpKind(enum.Enum):
    """What one op does to the memory system."""

    READ = "read"
    WRITE = "write"
    FLUSH = "flush"          # strided clflush: builds metadata-miss paths
    EVICT = "evict"          # contiguous flush run from (page, offset)
    DRAIN = "drain"          # force the MC write queue to service


class Guard(enum.Enum):
    """When an op executes, as a function of the paired-secret bit."""

    ALWAYS = "always"
    IF_ONE = "if_one"
    IF_ZERO = "if_zero"


@dataclass(frozen=True)
class Op:
    """One guarded access-pattern operation."""

    kind: OpKind
    guard: Guard = Guard.ALWAYS
    page: int = 0
    offset: int = 0
    count: int = 1
    stride: int = 1


@dataclass(frozen=True)
class Program:
    """A synthesized victim program: a page pool plus guarded ops.

    ``cleanse`` selects the Section-III write-through threat model (every
    access reaches the LLC/memory controller), which is what exposes the
    MetaLeak-C write-path kinds; with it off, writes coalesce in the data
    caches and the read-path (MetaLeak-T) kinds dominate.
    """

    pages: int
    ops: tuple[Op, ...]
    cleanse: bool = False

    @property
    def span_lines(self) -> int:
        return self.pages * LINES_PER_PAGE

    @property
    def guarded_ops(self) -> int:
        return sum(1 for op in self.ops if op.guard is not Guard.ALWAYS)

    def describe(self) -> str:
        mode = "cleanse" if self.cleanse else "cached"
        return (
            f"synth program: {len(self.ops)} op(s) over {self.pages} "
            f"page(s) [{mode}], {self.guarded_ops} secret-guarded"
        )


class ProgramError(ValueError):
    """A structurally invalid IR program."""


def validate_program(program: Program) -> Program:
    """Check structural invariants; returns the program for chaining."""
    if not 1 <= program.pages <= MAX_PAGES:
        raise ProgramError(
            f"program pages must be in [1, {MAX_PAGES}], got {program.pages}"
        )
    if not program.ops:
        raise ProgramError("program has no ops")
    if len(program.ops) > MAX_OPS:
        raise ProgramError(
            f"program has {len(program.ops)} ops (max {MAX_OPS})"
        )
    for index, op in enumerate(program.ops):
        if not isinstance(op.kind, OpKind) or not isinstance(op.guard, Guard):
            raise ProgramError(f"op {index}: kind/guard must be IR enums")
        if not 0 <= op.page < program.pages:
            raise ProgramError(
                f"op {index}: page {op.page} outside pool of {program.pages}"
            )
        if not 0 <= op.offset < LINES_PER_PAGE:
            raise ProgramError(
                f"op {index}: offset {op.offset} outside page "
                f"({LINES_PER_PAGE} lines)"
            )
        if not 1 <= op.count <= MAX_COUNT:
            raise ProgramError(
                f"op {index}: count must be in [1, {MAX_COUNT}], got {op.count}"
            )
        if not 1 <= op.stride <= MAX_STRIDE:
            raise ProgramError(
                f"op {index}: stride must be in [1, {MAX_STRIDE}], "
                f"got {op.stride}"
            )
    return program


# -- line/address arithmetic (shared by executor and docs examples) --------


def op_lines(program: Program, op: Op) -> list[int]:
    """The line indices (within the program span) an op touches, in order."""
    if op.kind is OpKind.DRAIN:
        return []
    base = op.page * LINES_PER_PAGE + op.offset
    step = 1 if op.kind is OpKind.EVICT else op.stride
    return [(base + i * step) % program.span_lines for i in range(op.count)]


# -- human-readable JSON (corpus keys, witness files) ----------------------


def op_to_dict(op: Op) -> dict[str, object]:
    return {
        "kind": op.kind.value,
        "guard": op.guard.value,
        "page": op.page,
        "offset": op.offset,
        "count": op.count,
        "stride": op.stride,
    }


def op_from_dict(data: dict[str, object]) -> Op:
    return Op(
        kind=OpKind(data["kind"]),
        guard=Guard(data.get("guard", Guard.ALWAYS.value)),
        page=int(data.get("page", 0)),
        offset=int(data.get("offset", 0)),
        count=int(data.get("count", 1)),
        stride=int(data.get("stride", 1)),
    )


def program_to_dict(program: Program) -> dict[str, object]:
    return {
        "pages": program.pages,
        "cleanse": program.cleanse,
        "ops": [op_to_dict(op) for op in program.ops],
    }


def program_from_dict(data: dict[str, object]) -> Program:
    ops = data.get("ops")
    if not isinstance(ops, list):
        raise ProgramError("program JSON needs an 'ops' list")
    program = Program(
        pages=int(data.get("pages", 1)),
        cleanse=bool(data.get("cleanse", False)),
        ops=tuple(op_from_dict(item) for item in ops),
    )
    return validate_program(program)


def program_to_json(program: Program) -> str:
    """Canonical (byte-stable) JSON text of one program."""
    return json.dumps(
        program_to_dict(program), sort_keys=True, separators=(",", ":")
    )


def program_from_json(text: str) -> Program:
    return program_from_dict(json.loads(text))


def format_program(program: Program) -> str:
    """Assembly-style listing, one op per line (CLI / witness review)."""
    lines = [program.describe()]
    for index, op in enumerate(program.ops):
        guard = "" if op.guard is Guard.ALWAYS else f" [{op.guard.value}]"
        if op.kind is OpKind.DRAIN:
            lines.append(f"  {index:>2}: drain{guard}")
            continue
        lines.append(
            f"  {index:>2}: {op.kind.value:<5} page={op.page} "
            f"off={op.offset} x{op.count} stride={op.stride}{guard}"
        )
    return "\n".join(lines)


def strip_guards(program: Program) -> Program:
    """The same program with every guard cleared (its public skeleton)."""
    return replace(
        program,
        ops=tuple(replace(op, guard=Guard.ALWAYS) for op in program.ops),
    )


__all__ = [
    "LINES_PER_PAGE",
    "MAX_COUNT",
    "MAX_OPS",
    "MAX_PAGES",
    "MAX_STRIDE",
    "SCHEMA_VERSION",
    "Guard",
    "Op",
    "OpKind",
    "Program",
    "ProgramError",
    "format_program",
    "op_from_dict",
    "op_lines",
    "op_to_dict",
    "program_from_dict",
    "program_from_json",
    "program_to_dict",
    "program_to_json",
    "strip_guards",
    "validate_program",
]
