"""The benchmark's workloads: what each one builds, runs and checks.

Every workload draws a fixed list of inputs from its seed (batches of
accesses, fuzz programs, job specs) and has the same shape, driven by
``run.py``:

* ``setup()`` builds the system up to the point where it has served its
  first operation (machine construction plus a cache warm-up, a fuzz
  oracle's first evaluations, a started service that finished one job)
  and returns the host time the program spent doing so, leaving out the
  benchmark's own bookkeeping.  ``run.py`` calls it several times.
* ``run_round()`` runs every input once and returns a :class:`Round`
  with one host time per input, each paired with the time of the
  calibration loop (``probe``, normally :func:`calibration_probe`) run
  just before it.  ``run.py`` runs rounds until the measured time is
  used up, so each input is timed several times, at different moments.
* ``check()`` verifies the program's outputs once measuring is over and
  returns a list of problems (empty when everything was correct).

The same seed gives the same accesses, programs and job specs.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from random import Random
from typing import Callable

from repro.campaign.db import CampaignDB
from repro.campaign.payload import decode_payload
from repro.config import BLOCK_SIZE, MIB, PAGE_SIZE, preset_config
from repro.leakcheck import run_leakcheck
from repro.os.page_alloc import PageAllocator
from repro.proc.batch import AccessBatch
from repro.proc.processor import SecureProcessor
from repro.service import LeakcheckService
from repro.service.client import http_request
from repro.synth import (
    evaluate_program,
    generate_program,
    program_from_dict,
    strip_guards,
)

_READ, _WRITE, _FLUSH, _DRAIN = range(4)
_ZERO_BLOCK = bytes(BLOCK_SIZE)


def _block(data: bytes) -> bytes:
    return data + bytes(BLOCK_SIZE - len(data))


def _mix(a: int, b: int) -> int:
    return a ^ b


def calibration_probe() -> float:
    """Host time of a fixed loop of Python calls, best of three.

    The loop is the benchmark's own code, so no change to the program
    moves it; it slows down with the host, for example when a co-tenant
    shares the core, and ``run.py`` divides measured times by it.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        value = 0
        for i in range(1500):
            value = _mix(value, i)
        best = min(best, time.perf_counter() - start)
    return best


class Round:
    """One pass over a workload's inputs, which run one after another.

    ``times[i]`` is the host time input ``i`` took in seconds, ``ops[i]``
    the operations it holds and ``probes[i]`` the calibration loop's time
    just before it.  ``failed`` counts operations whose outputs were
    wrong.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.ops: list[int] = []
        self.probes: list[float] = []
        self.failed = 0

    def add(self, seconds: float, probe: float, ops: int = 1) -> None:
        self.times.append(seconds)
        self.probes.append(probe)
        self.ops.append(ops)


class MemoryPath:
    """Batched access mix on one SCT machine through ``run_batch``.

    One operation is one recorded access (read, write, flush or drain)
    and one input is a batch of them: the host time to record the batch
    with :class:`AccessBatch` and execute it.  The benchmark keeps a
    shadow copy of every written block and checks the data of every read
    against it, and checks that the first batches leave the machine in
    the same state when replayed through the scalar calls.

    hot: 64 lines on 16 pages, reads and writes from all four cores and
    1% flushes, so nearly every access is an L1 hit served by the inlined
    fast path of ``run_batch``.

    cold: one line on each of 8192 pages (32 MiB), and every access is
    preceded by a flush of its line, so every access misses the data
    caches and takes the memory-encryption path: counter fetch, integrity
    tree walk, memory controller and DRAM.  8192 counter blocks exceed
    the 4096-entry metadata cache.  One step in twenty drains the write
    queue instead.

    The set-up sweeps every line once (on every core when hot), so the
    caches and the dirty state of lines are steady before timing.
    """

    def __init__(self, seed: int, probe: Callable[[], float], *,
                 hot: bool) -> None:
        self.probe = probe
        self.hot = hot
        if hot:
            pages, lines_per_page, batches, steps = 16, 4, 32, 2048
        else:
            pages, lines_per_page, batches, steps = 8192, 1, 24, 256
        self.pages = pages
        rng = Random(seed)
        self.lines = [
            (page, rng.randrange(PAGE_SIZE // BLOCK_SIZE))
            for page in range(pages) for _ in range(lines_per_page)
        ]
        self._serial = 0
        order = list(range(len(self.lines)))
        rng.shuffle(order)
        cores = range(4) if hot else range(1)
        self.warmup = [op for core in cores for index in order
                       for op in self._step(rng, index, core)]
        self.batches = [self._batch(rng, steps) for _ in range(batches)]
        self.proc: SecureProcessor | None = None
        self.addrs: list[int] = []
        self.shadow: dict[int, bytes] = {}
        self.mismatches = 0
        self.reads_checked = 0

    # -- inputs --------------------------------------------------------------

    def _step(self, rng: Random, index: int, core: int) -> tuple:
        self._serial += 1
        roll = rng.random()
        if self.hot:
            if roll < 0.70:
                return ((_READ, index, core, None),)
            if roll < 0.99:
                return ((_WRITE, index, core, self._data()),)
            return ((_FLUSH, index, -1, None),)
        if roll < 0.05:
            return ((_DRAIN, -1, -1, None),)
        if roll < 0.75:
            return ((_FLUSH, index, -1, None), (_READ, index, core, None))
        return ((_FLUSH, index, -1, None),
                (_WRITE, index, core, self._data()))

    def _data(self) -> bytes:
        return self._serial.to_bytes(8, "little")

    def _batch(self, rng: Random, steps: int) -> list[tuple]:
        ops: list[tuple] = []
        for _ in range(steps):
            index = rng.randrange(len(self.lines))
            core = rng.randrange(4) if self.hot else 0
            ops.extend(self._step(rng, index, core))
        return ops

    # -- system --------------------------------------------------------------

    def setup(self) -> float:
        start = time.perf_counter()
        config = preset_config(
            "sct", functional_crypto=False, timer_jitter_sigma=0.0,
            protected_size=256 * MIB,
        )
        proc = SecureProcessor(config)
        allocator = PageAllocator(
            proc.layout.data_size // PAGE_SIZE, cores=proc.config.cores
        )
        frames = allocator.alloc_many(self.pages, core=0)
        self.addrs = [frames[page] * PAGE_SIZE + line * BLOCK_SIZE
                      for page, line in self.lines]
        self.proc = proc
        built = time.perf_counter() - start
        self.shadow = {}
        return built + self._run(self.warmup)

    def _record(self, ops: list[tuple]) -> AccessBatch:
        batch = AccessBatch()
        addrs = self.addrs
        for kind, index, core, data in ops:
            if kind == _READ:
                batch.read(addrs[index], core=core)
            elif kind == _WRITE:
                batch.write(addrs[index], data, core=core)
            elif kind == _FLUSH:
                batch.flush(addrs[index])
            else:
                batch.drain()
        return batch

    def _run(self, ops: list[tuple]) -> float:
        """Record and execute one batch; returns the host time it took."""
        start = time.perf_counter()
        result = self.proc.run_batch(self._record(ops))
        elapsed = time.perf_counter() - start
        self._verify(ops, result)
        return elapsed

    def _verify(self, ops: list[tuple], result) -> None:
        shadow = self.shadow
        addrs = self.addrs
        results = list(result)
        if len(results) != len(ops):
            self.mismatches += abs(len(ops) - len(results)) or 1
            return
        for (kind, index, _, data), outcome in zip(ops, results):
            if kind == _WRITE:
                shadow[addrs[index]] = _block(data)
            elif kind == _READ:
                self.reads_checked += 1
                if outcome.data != shadow.get(addrs[index], _ZERO_BLOCK):
                    self.mismatches += 1

    def run_round(self) -> Round:
        measured = Round()
        before = self.mismatches
        for ops in self.batches:
            probe = self.probe()
            measured.add(self._run(ops), probe, len(ops))
        measured.failed = self.mismatches - before
        return measured

    def sim_rates(self) -> dict[str, float]:
        """Modelled hit ratios of the measured machine."""
        snap = self.proc.registry.snapshot()

        def ratio(prefixes: tuple[str, ...]) -> float:
            hits = sum(v for k, v in snap.items()
                       if k.startswith(prefixes) and k.endswith(".hits"))
            misses = sum(v for k, v in snap.items()
                         if k.startswith(prefixes) and k.endswith(".misses"))
            return hits / (hits + misses) if hits + misses else 0.0

        l1 = tuple(f"core{i}.l1." for i in range(self.proc.config.cores))
        return {
            "l1_hit_rate": ratio(l1),
            "meta_cache_hit_rate": ratio(("meta_cache.",)),
        }

    def check(self) -> list[str]:
        problems = []
        if self.mismatches:
            problems.append(
                f"{self.mismatches} read(s) returned data other than the "
                f"last value written"
            )
        if not self.reads_checked:
            problems.append("no read was checked")
        problems.extend(self._check_scalar_equivalence())
        return problems

    def _check_scalar_equivalence(self) -> list[str]:
        """Batched and scalar execution of the same ops agree exactly."""
        states = []
        for batched in (True, False):
            self.setup()
            proc = self.proc
            for ops in self.batches[:2]:
                if batched:
                    proc.run_batch(self._record(ops))
                    continue
                for kind, index, core, data in ops:
                    addr = self.addrs[index]
                    if kind == _READ:
                        proc.read(addr, core=core)
                    elif kind == _WRITE:
                        proc.write(addr, data, core=core)
                    elif kind == _FLUSH:
                        proc.flush(addr)
                    else:
                        proc.drain_writes()
            states.append((proc.cycle, proc.registry.snapshot()))
        if states[0] != states[1]:
            return ["run_batch and the scalar calls disagree on simulated "
                    f"cycles or counters ({states[0][0]} vs {states[1][0]} "
                    f"cycles)"]
        return []


#: The MetaLeak-T/C witness the fuzzer found and minimised, in the synth
#: IR: a secret-guarded burst of writes to one page.
_WITNESS = {
    "pages": 2,
    "cleanse": False,
    "ops": [{"kind": "write", "guard": "if_zero", "page": 1, "offset": 0,
             "count": 8, "stride": 2}],
}


class FuzzOracle:
    """Seeded fuzz programs through the paired-secret leakage oracle.

    One operation generates one program and evaluates it: two traced
    machines (secret 0 and 1) whose event streams the detector compares.
    This is the instrumented scalar memory path plus the statistics.  One
    input is a group of ten consecutive programs, so that a sample
    averages over programs of different sizes.
    The set-up evaluates the MetaLeak witness and its unguarded skeleton,
    which must come out leaky on both metadata channels and clean; every
    verdict must be consistent and repeat exactly in later rounds.
    """

    PROGRAMS = 600
    GROUP = 10

    def __init__(self, seed: int, probe: Callable[[], float]) -> None:
        self.probe = probe
        self.gen_seeds = [seed * 1_000_003 + i for i in range(self.PROGRAMS)]
        self.verdicts: dict[int, object] = {}
        self.problems: list[str] = []
        self.witness = program_from_dict(_WITNESS)

    def setup(self) -> float:
        start = time.perf_counter()
        leaky = evaluate_program(program=self.witness)
        clean = evaluate_program(program=strip_guards(self.witness))
        elapsed = time.perf_counter() - start
        components = {component for component, _ in leaky.channels}
        if not (leaky.leaky and components & {"mee", "tree"}
                and components & {"memctrl", "dram"}):
            self.problems.append(
                f"witness not flagged on both metadata channels: "
                f"{sorted(components)}"
            )
        if clean.leaky:
            self.problems.append("unguarded witness flagged as leaky")
        return elapsed

    def run_round(self) -> Round:
        measured = Round()
        for first in range(0, len(self.gen_seeds), self.GROUP):
            elapsed = weighted = 0.0
            for gen_seed in self.gen_seeds[first:first + self.GROUP]:
                probe = self.probe()
                start = time.perf_counter()
                result = evaluate_program(
                    program=generate_program(gen_seed), gen_seed=gen_seed
                )
                took = time.perf_counter() - start
                elapsed += took
                weighted += took / probe
                measured.failed += self._check_verdict(gen_seed, result)
            # Each program is calibrated by its own probe: the group's
            # calibration is their time-weighted harmonic mean.
            measured.add(elapsed, elapsed / weighted, self.GROUP)
        return measured

    def _check_verdict(self, gen_seed: int, result) -> int:
        """1 if the verdict is inconsistent or changed since round one."""
        earlier = self.verdicts.setdefault(gen_seed, result)
        if result == earlier and result.events > 0 \
                and result.leaky == bool(result.channels):
            return 0
        self.problems.append(f"verdict for program {gen_seed} is "
                             f"inconsistent or changed")
        return 1

    def check(self) -> list[str]:
        return self.problems[:5]


class JobService:
    """Leakcheck jobs through a live service on a loopback port.

    Every job asks for a leakage check of the constant-time victim with
    its own seed, which runs the paired-secret oracle through the whole
    path: HTTP admission, the write-ahead journal, a campaign engine, the
    oracle and the simulator.  The victim is small, so the service's own
    layers are a large share of each job.  Each round starts a service
    on a fresh database, so no job is served from the result cache, and
    one client submits the seeded jobs one at a time, each when the last
    is done.  An input's time is its job's time from admission to its
    terminal state as the server stamps it, so how often the client polls
    does not count.  The set-up starts a service and runs its first job.
    Every report must come out clean, since the victim's paired traces
    are identical, and the first reports must equal the oracle's run
    in-process.
    """

    JOBS = 60
    POLL_S = 0.005

    def __init__(self, seed: int, probe: Callable[[], float],
                 work_dir: str) -> None:
        self.probe = probe
        self.seeds = [seed * 1_000_003 + i for i in range(self.JOBS)]
        self.work_dir = work_dir
        self.services = 0
        self.failures: list[str] = []
        self.served: list[tuple[int, object]] = []
        self.queue_waits: list[float] = []
        #: Runs in every job-executor thread as it starts (tracing hook).
        self.executor_initializer = None

    async def _start(self) -> LeakcheckService:
        self.services += 1
        path = os.path.join(self.work_dir, f"service{self.services}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        if self.executor_initializer is not None:
            asyncio.get_running_loop().set_default_executor(
                ThreadPoolExecutor(initializer=self.executor_initializer)
            )
        service = LeakcheckService(
            os.path.join(path, "campaign.sqlite"), port=0,
            git_rev="perfbench",
        )
        await service.start()
        return service

    async def _request(self, service: LeakcheckService, method: str,
                       path: str, body: dict | None = None) -> dict:
        status, _, data = await http_request(
            "127.0.0.1", service.port, method, path, body
        )
        if status not in (200, 202):
            raise RuntimeError(f"{method} {path} answered HTTP {status}")
        return data

    async def _job(self, service: LeakcheckService, seed: int) -> dict:
        """Submit one job and poll it to its terminal state."""
        job = await self._request(
            service, "POST", "/jobs",
            {"kind": "leakcheck", "spec": {"victim": "const", "seed": seed}},
        )
        while job["state"] in ("queued", "running"):
            await asyncio.sleep(self.POLL_S)
            job = await self._request(service, "GET", f"/jobs/{job['id']}")
        return job

    def _verify(self, seed: int, job: dict) -> bool:
        result = job.get("result") or {}
        if job.get("state") != "done" or result.get("ok") != 1:
            self.failures.append(f"job {seed} ended {job.get('state')}: "
                                 f"{job.get('error')}")
            return False
        report = decode_payload(json.dumps(result["tasks"][0]["result"]))
        if report.leaky:
            self.failures.append(f"constant-time job {seed} flagged leaky")
            return False
        if len(self.served) < 3:
            self.served.append((seed, report))
        return True

    def setup(self) -> float:
        async def once() -> float:
            start = time.perf_counter()
            service = await self._start()
            started = time.perf_counter() - start
            try:
                job = await self._job(service, self.seeds[0])
            finally:
                await service.close()
            self._verify(self.seeds[0], job)
            return started + job["updated"] - job["submitted"]

        return asyncio.run(once())

    def run_round(self) -> Round:
        measured = Round()

        async def run() -> str:
            service = await self._start()
            try:
                for seed in self.seeds:
                    probe = self.probe()
                    job = await self._job(service, seed)
                    measured.add(job["updated"] - job["submitted"], probe)
                    if not self._verify(seed, job):
                        measured.failed += 1
            finally:
                await service.close()
            return service.db_path

        db_path = asyncio.run(run())
        with CampaignDB(db_path) as db:
            self.queue_waits.extend(
                span["end"] - span["start"] for span in db.spans()
                if span["name"] == "job.queue"
            )
        return measured

    def check(self) -> list[str]:
        problems = list(self.failures[:5])
        for seed, served in self.served:
            local = run_leakcheck("const", seed=seed)
            if served.to_dict() != local.to_dict():
                problems.append(f"service report for seed {seed} differs "
                                f"from the in-process oracle")
        return problems
