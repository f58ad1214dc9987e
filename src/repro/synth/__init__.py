"""Attack-synthesis fuzzer with witness minimization (``repro.synth``).

AMuLeT-style automated leak discovery on top of the existing stack: a
seeded generator emits random attacker/victim access-pattern programs
in a small declarative IR, the campaign engine fans them out to the
``repro.leakcheck`` paired-secret oracle at scale, the campaign DB
that records every result doubles as the corpus of leaking programs
with per-(component, kind) channel coverage, and a delta-debugging
minimizer reduces any find to a small machine-checkable witness.  See
docs/synth.md.
"""

from repro.synth.fuzz import (
    CorpusReport,
    FuzzReport,
    build_fuzz_tasks,
    corpus_key,
    read_corpus,
    run_fuzz,
    task_name,
)
from repro.synth.gen import GenConfig, generate_batch, generate_program
from repro.synth.ir import (
    Guard,
    Op,
    OpKind,
    Program,
    ProgramError,
    format_program,
    program_from_dict,
    program_from_json,
    program_to_dict,
    program_to_json,
    strip_guards,
    validate_program,
)
from repro.synth.minimize import (
    MinimizationError,
    MinimizeResult,
    Witness,
    load_witness,
    minimize_program,
    witness_to_dict,
    write_witness,
)
from repro.synth.runner import (
    METADATA_COMPONENTS,
    TARGETS,
    SynthResult,
    compile_program,
    evaluate_program,
    resolve_target,
    synth_config,
    target_names,
)

__all__ = [
    "METADATA_COMPONENTS",
    "TARGETS",
    "CorpusReport",
    "FuzzReport",
    "GenConfig",
    "Guard",
    "MinimizationError",
    "MinimizeResult",
    "Op",
    "OpKind",
    "Program",
    "ProgramError",
    "SynthResult",
    "Witness",
    "build_fuzz_tasks",
    "compile_program",
    "corpus_key",
    "evaluate_program",
    "format_program",
    "generate_batch",
    "generate_program",
    "load_witness",
    "minimize_program",
    "program_from_dict",
    "program_from_json",
    "program_to_dict",
    "program_to_json",
    "read_corpus",
    "resolve_target",
    "run_fuzz",
    "strip_guards",
    "synth_config",
    "target_names",
    "task_name",
    "validate_program",
    "witness_to_dict",
    "write_witness",
]
