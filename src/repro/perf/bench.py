"""Benchmark scenario suite and regression comparison.

``repro bench`` runs a fixed set of scenarios — steady-state access mixes
for each preset, one leakage-detection victim, one covert-channel round —
and writes one ``BENCH_<scenario>.json`` per scenario.  Each result
records enough to diagnose a regression after the fact:

* ``simulated_cycles`` / ``accesses`` — the simulated workload's shape;
* ``host_wall_time_s`` / ``sim_accesses_per_second`` — host throughput,
  the figure :func:`compare` regresses on;
* ``peak_rss_kb`` — process peak resident set (``ru_maxrss``);
* ``git_rev`` and a full counter snapshot for provenance.

Scenario workloads are seeded (``--seed``), so the *simulated* columns are
deterministic for a given seed and code version; only the host-side
columns (wall time, throughput, RSS) vary between machines and runs.
Comparison is intentionally loose for that reason: a regression is flagged
only when current throughput drops more than ``threshold`` (default 20%)
below the baseline's.
"""

from __future__ import annotations

import contextlib
import gc
import json
import pathlib
import resource
import time
from dataclasses import asdict, dataclass
from random import Random
from typing import Callable

from repro import obs
from repro.attacks.covert import CovertChannelT
from repro.config import MIB, PAGE_SIZE, preset_config
from repro.leakcheck.victims import get_victim
from repro.os.page_alloc import PageAllocator
from repro.proc.batch import AccessBatch
from repro.proc.processor import SecureProcessor
from repro.utils.provenance import git_rev as _git_rev

SCHEMA_VERSION = 1
_STEADY_OPS = 4000
_STEADY_OPS_QUICK = 800


@dataclass(frozen=True)
class BenchResult:
    """One scenario's measurement; serialised to ``BENCH_<scenario>.json``."""

    schema_version: int
    scenario: str
    preset: str
    seed: int
    quick: bool
    git_rev: str
    simulated_cycles: int
    accesses: int
    host_wall_time_s: float
    sim_accesses_per_second: float
    peak_rss_kb: int
    counters: dict[str, float]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @property
    def filename(self) -> str:
        return f"BENCH_{self.scenario}.json"


#: When set (see :func:`machine_instrument`), every scenario machine is
#: passed through this hook right after construction — the seam that lets
#: ``repro profile --scenario`` attach the cycle attributor without the
#: scenarios knowing about profiling.  Instrumented machines run the same
#: executor as bare ones, so the attribution covers the exact op stream.
_MACHINE_INSTRUMENT: Callable[[SecureProcessor], None] | None = None


@contextlib.contextmanager
def machine_instrument(hook: Callable[[SecureProcessor], None]):
    """Attach ``hook`` to every machine built by scenarios in this block."""
    global _MACHINE_INSTRUMENT
    previous = _MACHINE_INSTRUMENT
    _MACHINE_INSTRUMENT = hook
    try:
        yield
    finally:
        _MACHINE_INSTRUMENT = previous


def _bench_machine(preset: str) -> tuple[SecureProcessor, PageAllocator]:
    overrides: dict[str, object] = {"functional_crypto": False,
                                    "timer_jitter_sigma": 0.0}
    if preset != "sgx":
        # The SGX preset derives its protected size from the EPC model.
        overrides["protected_size"] = 256 * MIB
    config = preset_config(preset, **overrides)
    proc = SecureProcessor(config)
    if _MACHINE_INSTRUMENT is not None:
        _MACHINE_INSTRUMENT(proc)
    allocator = PageAllocator(
        proc.layout.data_size // PAGE_SIZE, cores=proc.config.cores
    )
    return proc, allocator


def _steady(preset: str, seed: int, quick: bool) -> tuple[SecureProcessor, int]:
    """Seeded steady-state mix: reads, writes, occasional flush + fence.

    The flushes keep the miss paths (counter fetch, tree walks) live so the
    benchmark exercises the full MEE read path, not just L1 hits.  The mix
    is recorded as one :class:`~repro.proc.AccessBatch` — drawing from the
    RNG in exactly the per-op order of the original scalar loop, so the
    simulated columns are bit-identical — and submitted in a single
    ``run_batch`` call.
    """
    proc, allocator = _bench_machine(preset)
    rng = Random(seed)
    frames = allocator.alloc_many(32, core=0)
    addrs = [frame * PAGE_SIZE + 64 * rng.randrange(PAGE_SIZE // 64)
             for frame in frames for _ in range(4)]
    ops = _STEADY_OPS_QUICK if quick else _STEADY_OPS
    cores = proc.config.cores
    batch = AccessBatch()
    for i in range(ops):
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


def _victim_rsa(seed: int, quick: bool) -> tuple[SecureProcessor, int]:
    """One full leakage-victim run (square-and-multiply RSA)."""
    spec = get_victim("rsa")
    secret, _ = spec.secrets(seed)
    config = preset_config("sct", functional_crypto=False,
                           protected_size=256 * MIB)
    proc = SecureProcessor(config)
    if _MACHINE_INSTRUMENT is not None:
        _MACHINE_INSTRUMENT(proc)
    spec.run(proc, secret)
    return proc, _accesses(proc)


def _covert_t(seed: int, quick: bool) -> tuple[SecureProcessor, int]:
    """One covert-channel round over the shared integrity tree."""
    proc, allocator = _bench_machine("sct")
    channel = CovertChannelT(proc, allocator)
    rng = Random(seed)
    bits = [rng.randrange(2) for _ in range(8 if quick else 32)]
    channel.transmit(bits)
    return proc, _accesses(proc)


@dataclass(frozen=True)
class RawMeasure:
    """A runner's pre-folded measurement when no single processor exists.

    Most scenarios return ``(SecureProcessor, accesses)`` and let
    :func:`run_scenario` read cycles and counters off the machine; system
    scenarios (like the service throughput bench, which drives a whole
    server) measure across many machines and return this instead.
    ``accesses`` keeps its role as the numerator of
    ``sim_accesses_per_second`` — for the service scenario that makes the
    compared figure sustained *jobs* per second.
    """

    simulated_cycles: int
    accesses: int
    counters: dict[str, float]


_SERVICE_JOBS = 48
_SERVICE_JOBS_QUICK = 12


def _service_jobs(seed: int, quick: bool) -> RawMeasure:
    """Sustained jobs/sec through the leakcheck service.

    Boots a real :class:`~repro.service.LeakcheckService` on a loopback
    port with a *fresh* campaign DB (so the dedup cache cannot inflate
    the figure), pushes distinct-seed probe jobs through the public load
    generator, and reports completed jobs as ``accesses``.
    """
    import asyncio
    import os
    import tempfile

    from repro.service import LeakcheckService, run_load

    jobs = _SERVICE_JOBS_QUICK if quick else _SERVICE_JOBS

    async def _run():
        with tempfile.TemporaryDirectory() as tmp:
            service = LeakcheckService(
                os.path.join(tmp, "bench-campaign.sqlite"),
                port=0,
                capacity=max(64, jobs),
                concurrency=2,
            )
            await service.start()
            try:
                report = await run_load(
                    "127.0.0.1",
                    service.port,
                    jobs=jobs,
                    concurrency=8,
                    kind="probe",
                    spec={"ops": 300, "seed": seed},
                )
            finally:
                await service.close()
            return report, service.registry.snapshot()

    report, counters = asyncio.run(_run())
    if not report.ok:
        raise RuntimeError(
            f"service load degraded during bench: {report.to_dict()}"
        )
    return RawMeasure(
        simulated_cycles=0, accesses=report.completed, counters=counters
    )


_SYNTH_PROGRAMS = 48
_SYNTH_PROGRAMS_QUICK = 12


def _synth_throughput(seed: int, quick: bool) -> RawMeasure:
    """Sustained fuzzed programs/sec through the synthesis oracle.

    Generates a fixed batch of programs and pushes them through the full
    fuzz path (in-thread engine, caching disabled so every program pays
    its two paired-secret runs); ``accesses`` is evaluated programs, so
    the compared figure is oracle evaluations per second.
    """
    from repro.campaign import CampaignEngine
    from repro.synth import run_fuzz

    budget = _SYNTH_PROGRAMS_QUICK if quick else _SYNTH_PROGRAMS
    engine = CampaignEngine(jobs=1, db=None, use_cache=False)
    report = run_fuzz(
        preset="sct", defense="none", budget=budget, seed=seed,
        engine=engine,
    )
    if report.failed:
        raise RuntimeError(
            f"synth bench had {report.failed} failed evaluation(s): "
            f"{report.errors[:3]}"
        )
    return RawMeasure(
        simulated_cycles=0,
        accesses=report.evaluated,
        counters=engine.registry.snapshot(),
    )


_Runner = Callable[[int, bool], "tuple[SecureProcessor, int] | RawMeasure"]

SCENARIOS: dict[str, tuple[str, _Runner]] = {
    "steady_sct": ("sct", lambda seed, quick: _steady("sct", seed, quick)),
    "steady_ht": ("ht", lambda seed, quick: _steady("ht", seed, quick)),
    "steady_sgx": ("sgx", lambda seed, quick: _steady("sgx", seed, quick)),
    "victim_rsa": ("sct", _victim_rsa),
    "covert_t": ("sct", _covert_t),
    "service_jobs": ("service", _service_jobs),
    "synth_throughput": ("synth", _synth_throughput),
}


def scenario_names() -> list[str]:
    return list(SCENARIOS)


def run_scenario(
    name: str, *, seed: int = 0, quick: bool = False, repeats: int = 1
) -> BenchResult:
    """Run one scenario and measure it; raises ValueError on unknown name.

    With ``repeats > 1`` the scenario runs that many times and the
    *fastest* wall time is reported (the standard noise-robust estimator:
    host load only ever slows a run down, so the minimum is the best
    approximation of the true cost).  The simulated columns must be
    identical across repeats — scenarios are deterministic — and this is
    asserted, so repeats double as a determinism check.
    """
    entry = SCENARIOS.get(name)
    if entry is None:
        raise ValueError(
            f"unknown bench scenario {name!r}; choose from {scenario_names()}"
        )
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    preset, runner = entry
    with obs.start_span(
        "bench.scenario", kind="bench.scenario",
        attrs={
            "scenario": name, "seed": seed, "quick": quick, "repeats": repeats,
        },
    ):
        wall = 0.0
        cycles = accesses = 0
        counters: dict[str, int] = {}
        gc_was_enabled = gc.isenabled()
        for rep in range(repeats):
            # Collector hygiene: collect leftovers from the previous rep,
            # then keep the collector out of the timed region so pauses
            # don't pollute the wall time.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                measured = runner(seed, quick)
                rep_wall = time.perf_counter() - start
            finally:
                if gc_was_enabled:
                    gc.enable()
            if isinstance(measured, RawMeasure):
                rep_cycles = measured.simulated_cycles
                rep_accesses = measured.accesses
                rep_counters = measured.counters
            else:
                proc, rep_accesses = measured
                rep_cycles = proc.cycle
                rep_counters = proc.registry.snapshot()
            if rep == 0:
                wall = rep_wall
                cycles, accesses, counters = rep_cycles, rep_accesses, rep_counters
            elif (rep_cycles, rep_accesses) != (cycles, accesses):
                raise RuntimeError(
                    f"scenario {name!r} is non-deterministic across repeats: "
                    f"({rep_cycles}, {rep_accesses}) vs ({cycles}, {accesses})"
                )
            else:
                wall = min(wall, rep_wall)
    return BenchResult(
        schema_version=SCHEMA_VERSION,
        scenario=name,
        preset=preset,
        seed=seed,
        quick=quick,
        git_rev=_git_rev(),
        simulated_cycles=cycles,
        accesses=accesses,
        host_wall_time_s=round(wall, 6),
        sim_accesses_per_second=round(accesses / wall, 2) if wall > 0 else 0.0,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        counters=counters,
    )


def profile_scenario(name: str, *, seed: int = 0, quick: bool = False):
    """Run one scenario under the cycle-attribution profiler.

    Returns ``(attributor, proc)`` for the scenario's machine.  The
    profiled machine runs the same executor as the uninstrumented
    benchmark, so the attribution is exact per-leg cycle accounting of
    the op stream the benchmark simulates.  Only processor-backed
    scenarios (``steady_*``, ``victim_rsa``, ``covert_t``) can be
    profiled; system scenarios measure across many short-lived machines.
    """
    from repro.perf.attribution import CycleAttributor

    instrumented: list[tuple[SecureProcessor, CycleAttributor]] = []

    def _attach(proc: SecureProcessor) -> None:
        attributor = CycleAttributor()
        proc.attach(attributor)
        instrumented.append((proc, attributor))

    with machine_instrument(_attach):
        run_scenario(name, seed=seed, quick=quick)
    if not instrumented:
        raise ValueError(
            f"scenario {name!r} is not processor-backed and cannot be "
            f"profiled; choose one of the steady_*/victim/covert scenarios"
        )
    proc, attributor = instrumented[-1]
    attributor.verify()
    return attributor, proc


def write_result(result: BenchResult, out_dir: str | pathlib.Path) -> pathlib.Path:
    out = pathlib.Path(out_dir) / result.filename
    out.write_text(result.to_json())
    return out


def load_result(path: str | pathlib.Path) -> BenchResult:
    data = json.loads(pathlib.Path(path).read_text())
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported bench schema "
            f"{data.get('schema_version')!r} (want {SCHEMA_VERSION})"
        )
    return BenchResult(**data)


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing one current result against its baseline.

    ``ratio`` is current over baseline throughput (old -> new), ``None``
    when no comparable baseline exists (missing, quick/full mismatch, or
    a diverged simulated workload).
    """

    scenario: str
    status: str  # "ok" | "regression" | "diverged" | "no-baseline" | "skipped"
    detail: str
    ratio: float | None = None


def compare(
    results: list[BenchResult],
    baseline_dir: str | pathlib.Path,
    *,
    threshold: float = 0.2,
    min_ratio: float | None = None,
    min_ratio_prefix: str = "steady_",
) -> list[Comparison]:
    """Compare against the ``BENCH_*.json`` files in ``baseline_dir``.

    A baseline with the same seed and mode must match the simulated
    columns (``simulated_cycles``, ``accesses``) exactly; a scenario
    whose columns differ is ``diverged`` and its throughput is not
    compared.  Counters are not compared: some depend on host timing
    (a service client's polling) and old baselines may carry counters
    that no longer exist.

    A scenario regresses when its ``sim_accesses_per_second`` falls more
    than ``threshold`` (a fraction) below the baseline's.  ``min_ratio``
    additionally requires scenarios whose name starts with
    ``min_ratio_prefix`` to reach at least that multiple of the baseline
    throughput — the CI speedup gate for committed pre-refactor
    baselines.  Quick/full mode mismatches are skipped rather than
    compared — the workloads differ.  Missing baselines are reported,
    not failed, so the first run of a new scenario does not break CI.
    """
    import math

    if not (threshold > 0 and math.isfinite(threshold)):
        raise ValueError(
            f"comparison threshold must be a positive finite fraction, "
            f"got {threshold!r}"
        )
    if min_ratio is not None and not (min_ratio > 0 and math.isfinite(min_ratio)):
        raise ValueError(
            f"min_ratio must be a positive finite multiple, got {min_ratio!r}"
        )
    outcomes: list[Comparison] = []
    base = pathlib.Path(baseline_dir)
    for result in results:
        ref_path = base / result.filename
        if not ref_path.exists():
            outcomes.append(Comparison(
                result.scenario, "no-baseline", f"{ref_path} not found"
            ))
            continue
        ref = load_result(ref_path)
        if ref.quick != result.quick:
            outcomes.append(Comparison(
                result.scenario, "skipped",
                "quick/full mode differs from baseline",
            ))
            continue
        simulated = (result.simulated_cycles, result.accesses)
        expected = (ref.simulated_cycles, ref.accesses)
        if ref.seed == result.seed and simulated != expected:
            outcomes.append(Comparison(
                result.scenario, "diverged",
                f"simulated_cycles/accesses {simulated[0]}/{simulated[1]} "
                f"vs baseline {expected[0]}/{expected[1]} at seed "
                f"{result.seed}",
            ))
            continue
        current = result.sim_accesses_per_second
        baseline = ref.sim_accesses_per_second
        ratio = current / baseline if baseline > 0 else math.inf
        floor = baseline * (1 - threshold)
        detail = (
            f"{current:.0f} acc/s vs baseline {baseline:.0f} "
            f"({ratio:.2f}x, floor {floor:.0f})"
        )
        gated = min_ratio is not None and result.scenario.startswith(
            min_ratio_prefix
        )
        if current < floor:
            outcomes.append(
                Comparison(result.scenario, "regression", detail, ratio)
            )
        elif gated and ratio < min_ratio:
            outcomes.append(Comparison(
                result.scenario, "regression",
                f"{detail}; below required {min_ratio:.2f}x speedup gate",
                ratio,
            ))
        else:
            outcomes.append(Comparison(result.scenario, "ok", detail, ratio))
    return outcomes
