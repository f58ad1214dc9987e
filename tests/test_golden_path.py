"""Golden digest and pins of the simulated memory path.

Every number the simulator produces must survive a speedup of the
memory path unchanged: the final cycle, every machine tally, the trace
and the cycle attribution.  ``TestGoldenVerdicts`` (test_leakcheck.py)
hashes only leak reports, so ``TestGoldenMemoryPath`` hashes all four,
over generated programs on every preset and defense, run bare, traced
and profiled.  Those programs all run on core 0; ``TestGoldenScenarios``
pins the cycle, access count and tallies of seeded multi-core steady
mixes, the RSA victim and a covert-channel round.  The machine state
does not show what each op returned, so ``TestGoldenResults`` hashes
every op's result of the steady mixes, with timer jitter and with a
profiler too.  Every machine above has a large combined LRU metadata
cache, the lazy tree policy, MAC-in-ECC and timing-only crypto, so
``TestGoldenVariants`` hashes the steady mix on a small metadata cache
under each replacement policy, split counter and tree caches, the eager
policy, the separate MAC word and functional crypto.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from random import Random

import pytest

from repro.attacks.covert import CovertChannelT
from repro.config import (
    DEFENSES,
    KIB,
    MIB,
    PAGE_SIZE,
    CacheConfig,
    CryptoConfig,
    TreeUpdatePolicy,
    preset_config,
)
from repro.leakcheck.victims import get_victim
from repro.os.page_alloc import PageAllocator
from repro.perf import CycleAttributor
from repro.proc.batch import AccessBatch, BatchResult
from repro.proc.processor import AccessResult, SecureProcessor
from repro.synth import compile_program, generate_program
from repro.synth.runner import synth_config
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


def _scenario_machine(
    preset: str, **overrides: object
) -> tuple[SecureProcessor, PageAllocator]:
    overrides = {"functional_crypto": False, "timer_jitter_sigma": 0.0,
                 **overrides}
    if preset != "sgx":
        # The SGX preset derives its protected size from the EPC model.
        overrides["protected_size"] = 256 * MIB
    config = preset_config(preset, **overrides)
    proc = SecureProcessor(config)
    allocator = PageAllocator(
        proc.layout.data_size // PAGE_SIZE, cores=proc.config.cores
    )
    return proc, allocator


def _steady_run(
    preset: str, seed: int, instrument: object = None, **overrides: object
) -> tuple[SecureProcessor, BatchResult]:
    """Seeded steady-state mix: reads, writes, occasional flush + fence.

    The flushes keep the miss paths (counter fetch, tree walks) live, and
    reads and writes come from every core.  The mix is recorded as one
    :class:`~repro.proc.AccessBatch` and submitted in a single
    ``run_batch`` call, with ``instrument`` attached when given and
    ``overrides`` applied to the preset.
    """
    proc, allocator = _scenario_machine(preset, **overrides)
    if instrument is not None:
        proc.attach(instrument)
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
    return proc, proc.run_batch(batch)


def _steady(preset: str, seed: int) -> tuple[SecureProcessor, int]:
    proc, results = _steady_run(preset, seed)
    return proc, len(results)


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


# -- per-op results ------------------------------------------------------

_RESULT_RUNS = {
    "steady_sct": lambda: _steady_run("sct", 0),
    "steady_ht": lambda: _steady_run("ht", 0),
    "steady_sgx": lambda: _steady_run("sgx", 0),
    "steady_sct_jitter": lambda: _steady_run(
        "sct", 0, timer_jitter_sigma=4.0
    ),
    "steady_sct_profiled": lambda: _steady_run(
        "sct", 0, instrument=CycleAttributor()
    ),
}

# sha256 over every op's result of each run at seed 0.  The machine
# state the pins above hash does not show a wrong ``data``,
# ``counter_hit`` or ``tree_levels_missed``, or jitter drawn in another
# order; these do.
_RESULT_PINS = {
    "steady_sct": (
        "836a6fe92c988ab84e03b7a900f1a62df5df0a7e2c03be5afe10579bbe34e254"
    ),
    "steady_ht": (
        "ec9b9cc5a219759c971a27e3babf786f7cbd06945d02a3b3cd3a1eb2002cb4ed"
    ),
    "steady_sgx": (
        "a608bbfa9f71b5d6685021e88df9e4c04725c6fc4f34ea20abcc27e7648d11ca"
    ),
    "steady_sct_jitter": (
        "72c5c0ba6812980d521c4c53551b34806e35015b568063e2b4ea60325ecb3031"
    ),
    "steady_sct_profiled": (
        "e2595cc8c11093c450d24df5421a36a568295c8cdce29752adad6c2b31f49a28"
    ),
}


def _result_record(result: object) -> str:
    """An access's every field, or a flush's latency or a drain's None."""
    if not isinstance(result, AccessResult):
        return repr(result)
    breakdown = result.breakdown
    return repr((
        result.latency, result.path.name, result.cycle, result.counter_hit,
        result.tree_levels_missed, result.data.hex(),
        None if breakdown is None else sorted(breakdown.items()),
    ))


class TestGoldenResults:
    @pytest.mark.parametrize("name", list(_RESULT_PINS))
    def test_every_result_matches_its_pin(self, name):
        _, results = _RESULT_RUNS[name]()
        digest = hashlib.sha256()
        for result in results:
            digest.update(_result_record(result).encode() + b"\n")
        assert digest.hexdigest() == _RESULT_PINS[name]


# -- metadata-path variants -----------------------------------------------

# Small enough that the steady mix evicts metadata: at the presets'
# 256 KiB it never does, and every replacement policy reads the same.
_SMALL_META = CacheConfig("MetaCache", 2 * KIB, 4, 2)

# (preset, overrides) of the metadata-path variants no other pin runs:
# replacement policies of the metadata cache, split counter and tree
# caches (ablation A6's, shrunk), the eager tree policy, the classical
# separate MAC word, and functional crypto's freshness hashes.
_VARIANTS = {
    "sct_lru": ("sct", {"metadata_cache": _SMALL_META}),
    "sct_plru": ("sct", {
        "metadata_cache": replace(_SMALL_META, replacement="plru"),
    }),
    "sct_random": ("sct", {
        "metadata_cache": replace(_SMALL_META, replacement="random"),
    }),
    "sct_split": ("sct", {
        "split_metadata_caches": True,
        "metadata_cache": CacheConfig("CtrCache", 1 * KIB, 8, 2),
        "tree_cache": CacheConfig("TreeCache", 1 * KIB, 8, 2),
    }),
    "sct_eager": ("sct", {
        "metadata_cache": _SMALL_META,
        "tree_update_policy": TreeUpdatePolicy.EAGER,
    }),
    "sct_mac_word": ("sct", {
        "metadata_cache": _SMALL_META,
        "crypto": CryptoConfig(mac_in_ecc=False),
    }),
    "sct_functional": ("sct", {
        "metadata_cache": _SMALL_META, "functional_crypto": True,
    }),
    "ht_functional": ("ht", {
        "metadata_cache": _SMALL_META, "functional_crypto": True,
    }),
}

# sha256 over the bare and the traced seed-0 steady run of each variant:
# its cycle, sorted registry snapshot and every op's result, then the
# traced run's JSONL.
_VARIANT_PINS = {
    "sct_lru": (
        "b7d44704290bcee562b589aff00fea8b2d17768c1b3ac4e8cdf73ef8d8d8472d"
    ),
    "sct_plru": (
        "14497105543c179fdeeee1e4c7b3fc9c66294f9f7f335c57bbe007bfa4178389"
    ),
    "sct_random": (
        "fb93454cf61605d92e9c6df646571dfe33b3408c517cdbf65975e55f6a31c522"
    ),
    "sct_split": (
        "66f7aeff312aafaafa335d07b481ced5c42efd0202ab01f17cd014756b01326d"
    ),
    "sct_eager": (
        "0345c75a8f8b390fb0c7860a078364634f98e43a76a4e0ee22b4b36a3a93aafb"
    ),
    "sct_mac_word": (
        "6fdb8fed01ddd847a574667f28dd7348d50b30edadf41c7b9a0224f2d6312350"
    ),
    "sct_functional": (
        "1a1589efde7bca2ffae64e8c2c43f651051b716eef22f8c975805f935767b611"
    ),
    "ht_functional": (
        "be5bcc3aea1d9c7bce1710967ad26f4901812de5573c20279882dceba2c6620c"
    ),
}


def _variant_digest(name: str, tmp_path) -> str:
    preset, overrides = _VARIANTS[name]
    digest = hashlib.sha256()
    tracer = Tracer(capacity=1 << 20)
    for instrument in (None, tracer):
        proc, results = _steady_run(preset, 0, instrument, **overrides)
        snapshot = json.dumps(proc.registry.snapshot(), sort_keys=True)
        digest.update(f"{proc.cycle}\n{snapshot}\n".encode())
        for result in results:
            digest.update(_result_record(result).encode() + b"\n")
    assert tracer.dropped == 0
    trace_file = tmp_path / "trace.jsonl"
    write_jsonl(tracer.events(), trace_file)
    digest.update(trace_file.read_bytes())
    return digest.hexdigest()


class TestGoldenVariants:
    @pytest.mark.parametrize("name", list(_VARIANT_PINS))
    def test_variant_matches_its_pin(self, name, tmp_path):
        assert _variant_digest(name, tmp_path) == _VARIANT_PINS[name]
