"""Golden digest and pins of the simulated memory path.

Every number the simulator produces must survive a speedup of the
memory path unchanged: the final cycle, every machine tally, the trace
and the cycle attribution.  ``TestGoldenVerdicts`` (test_leakcheck.py)
hashes only leak reports, so ``TestGoldenMemoryPath`` hashes all four,
over generated programs on every preset and defense, run bare, traced
and profiled.  Those programs all run on core 0; ``TestGoldenScenarios``
pins the cycle, access count and tallies of seeded multi-core steady
mixes, the RSA victim and a covert-channel round.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

import pytest

from repro.attacks.covert import CovertChannelT
from repro.config import MIB, PAGE_SIZE, preset_config
from repro.leakcheck.victims import get_victim
from repro.os.page_alloc import PageAllocator
from repro.perf import CycleAttributor
from repro.proc.batch import AccessBatch
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


# -- seeded scenarios -----------------------------------------------------

_STEADY_OPS = 4000


def _scenario_machine(preset: str) -> tuple[SecureProcessor, PageAllocator]:
    overrides: dict[str, object] = {"functional_crypto": False,
                                    "timer_jitter_sigma": 0.0}
    if preset != "sgx":
        # The SGX preset derives its protected size from the EPC model.
        overrides["protected_size"] = 256 * MIB
    config = preset_config(preset, **overrides)
    proc = SecureProcessor(config)
    allocator = PageAllocator(
        proc.layout.data_size // PAGE_SIZE, cores=proc.config.cores
    )
    return proc, allocator


def _steady(preset: str, seed: int) -> tuple[SecureProcessor, int]:
    """Seeded steady-state mix: reads, writes, occasional flush + fence.

    The flushes keep the miss paths (counter fetch, tree walks) live, and
    reads and writes come from every core.  The mix is recorded as one
    :class:`~repro.proc.AccessBatch` and submitted in a single
    ``run_batch`` call.
    """
    proc, allocator = _scenario_machine(preset)
    rng = Random(seed)
    frames = allocator.alloc_many(32, core=0)
    addrs = [frame * PAGE_SIZE + 64 * rng.randrange(PAGE_SIZE // 64)
             for frame in frames for _ in range(4)]
    cores = proc.config.cores
    batch = AccessBatch()
    for i in range(_STEADY_OPS):
        addr = rng.choice(addrs)
        roll = rng.random()
        if roll < 0.70:
            batch.read(addr, core=rng.randrange(cores))
        elif roll < 0.90:
            batch.write(addr, i.to_bytes(8, "little"),
                        core=rng.randrange(cores))
        elif roll < 0.98:
            batch.flush(addr)
        else:
            batch.drain()
    batch.drain()
    proc.run_batch(batch)
    return proc, len(batch)


def _accesses(proc: SecureProcessor) -> int:
    """Software-visible reads, writes and flushes the machine executed."""
    tally = proc.registry.get
    return tally("proc.reads") + tally("proc.writes") + tally("proc.flushes")


def _victim_rsa(seed: int) -> tuple[SecureProcessor, int]:
    """One full leakage-victim run (square-and-multiply RSA)."""
    spec = get_victim("rsa")
    secret, _ = spec.secrets(seed)
    config = preset_config("sct", functional_crypto=False,
                           protected_size=256 * MIB)
    proc = SecureProcessor(config)
    spec.run(proc, secret)
    return proc, _accesses(proc)


def _covert_t(seed: int) -> tuple[SecureProcessor, int]:
    """One 32-bit covert-channel round over the shared integrity tree."""
    proc, allocator = _scenario_machine("sct")
    channel = CovertChannelT(proc, allocator)
    rng = Random(seed)
    bits = [rng.randrange(2) for _ in range(32)]
    channel.transmit(bits)
    return proc, _accesses(proc)


_SCENARIOS = {
    "steady_sct": lambda seed: _steady("sct", seed),
    "steady_ht": lambda seed: _steady("ht", seed),
    "steady_sgx": lambda seed: _steady("sgx", seed),
    "victim_rsa": _victim_rsa,
    "covert_t": _covert_t,
}

# (proc.cycle, accesses, sha256 of the sorted registry snapshot) of each
# scenario at seed 0.  Any change to a simulated cycle or tally moves one.
_SCENARIO_PINS = {
    "steady_sct": (
        148419, 4001,
        "4ff4de3d754551a49f3114b3b2852a1799a2a617e631743a07f21b4bff9e1e75",
    ),
    "steady_ht": (
        148569, 4001,
        "3ca19014abd6d808030a76d24dffe6aa5045b4abd82243217e27d6fc39591e34",
    ),
    "steady_sgx": (
        199677, 4001,
        "6975350a885d65de11660941b7e19d045e720b940b45014a64df28e6b0bb3c80",
    ),
    "victim_rsa": (
        18652, 172,
        "7aaa0a1a563fb9ee70e9cd3c921c2b5e7d106ea2c159f9b43d0ccdeb6773209f",
    ),
    "covert_t": (
        1097751, 6822,
        "eb05bb71a537d8e623825d08dcfa8c9191878b3f983214371e70d573b74fd842",
    ),
}


class TestGoldenScenarios:
    @pytest.mark.parametrize("name", list(_SCENARIO_PINS))
    def test_scenario_matches_its_pin(self, name):
        proc, accesses = _SCENARIOS[name](0)
        snapshot = json.dumps(proc.registry.snapshot(), sort_keys=True)
        digest = hashlib.sha256(snapshot.encode()).hexdigest()
        assert (proc.cycle, accesses, digest) == _SCENARIO_PINS[name]
