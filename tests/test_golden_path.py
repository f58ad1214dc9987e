"""Golden digest of the simulated memory path.

Every number the simulator produces must survive a speedup of the
memory path unchanged: the final cycle, every machine tally, the trace
and the cycle attribution.  ``TestGoldenVerdicts`` (test_leakcheck.py)
hashes only leak reports and ``repro bench --compare`` only cycle and
access totals, so this test hashes all four, over generated programs on
every preset and defense, run bare, traced and profiled.
"""

from __future__ import annotations

import hashlib
import json

from repro.perf import CycleAttributor
from repro.proc.processor import SecureProcessor
from repro.synth import compile_program, generate_program
from repro.synth.runner import DEFENSES, synth_config
from repro.trace import Tracer, write_jsonl

PRESETS = ("sct", "ht", "sgx")
INSTRUMENTS = ("bare", "traced", "profiled")
GEN_SEEDS = range(12)

# sha256 over _golden_runs().  Any change to a simulated cycle, tally,
# trace event or attributed cycle changes it.
_GOLDEN_DIGEST = (
    "08ad572c2afff6068e868938a55e97721bf9bd69b2d3099a5a66a1b53f897ef0"
)


def _golden_runs(tmp_path):
    """One record per run: preset × defense × program × secret × instrument."""
    specs = [compile_program(generate_program(seed)) for seed in GEN_SEEDS]
    trace_file = tmp_path / "trace.jsonl"
    for preset in PRESETS:
        for defense in DEFENSES:
            config = synth_config(preset, defense)
            for gen_seed, spec in zip(GEN_SEEDS, specs):
                for secret in (0, 1):
                    for instrument in INSTRUMENTS:
                        proc = SecureProcessor(config)
                        tracer = profiler = None
                        if instrument == "traced":
                            tracer = Tracer()
                            proc.attach(tracer)
                        elif instrument == "profiled":
                            profiler = CycleAttributor()
                            proc.attach(profiler)
                        spec.run(proc, secret)
                        record = [
                            f"{preset}/{defense}/g{gen_seed}/{secret}/"
                            f"{instrument}",
                            str(proc.cycle),
                            json.dumps(proc.registry.snapshot(), sort_keys=True),
                        ]
                        if tracer is not None:
                            assert tracer.dropped == 0
                            write_jsonl(tracer.events(), trace_file)
                            record.append(trace_file.read_text())
                        if profiler is not None:
                            profiler.verify()
                            record.append(profiler.report())
                            record.extend(
                                profiler.collapsed_stacks(include_shadowed=True)
                            )
                        yield "\n".join(record)


class TestGoldenMemoryPath:
    def test_runs_match_recorded_digest(self, tmp_path):
        digest = hashlib.sha256()
        runs = 0
        for record in _golden_runs(tmp_path):
            digest.update(record.encode() + b"\n\x00")
            runs += 1
        assert runs == (
            len(PRESETS) * len(DEFENSES) * len(GEN_SEEDS) * 2 * len(INSTRUMENTS)
        )
        assert digest.hexdigest() == _GOLDEN_DIGEST
