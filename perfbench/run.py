"""Repository benchmark: simulator memory path, fuzz oracle, job service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mem_hot --seed 1 --seconds 10 --trace 0

Each run draws a fixed list of inputs from ``--seed``, sets the system up
several times (reporting the median as ``setup_s``), then times rounds
over those inputs until ``--seconds`` of measured host time are spent,
checks the program's outputs, and prints one JSON object as its last
line of output::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every time is host-calibrated.  On a shared host a co-tenant can slow
the benchmark's core by half for seconds to minutes at a time, which
would swamp any change to the program.  So just before each input the
run times a fixed loop of the benchmark's own code
(``calibration_probe`` in ``workloads.py``) and scales the input's time
by ``CALIBRATION_REF_S`` over that loop's time: the result is the time
the input would take on a host where the loop takes ``CALIBRATION_REF_S``,
which is about its time on an idle core of the 2-vCPU Xeon VM this
benchmark was written on.  No change to the program moves the loop.
The run is pinned to one CPU, so the loop and the program's threads
share the core it measures.  Latency is the median and 90th percentile
of the calibrated samples per operation, and throughput is operations
over their calibrated time.

``--trace 0`` reports the end-to-end metrics: throughput, latency, set-up
time and peak memory.  ``--trace 1`` is a separate, profiled run that
reports per-layer host busy time and layer entries per operation (see
``layers.py``), the traced latency, the service's queue wait, the
modelled cache hit rates and the raw calibration loop time.  What one
operation is depends on the workload; see ``workloads.py``.

The program is imported from ``src/`` of the checkout this file sits
in; without it the run fails with exit code 2 before measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5
CALIBRATION_REF_S = 80e-6

WORKLOADS = ("mem_hot", "mem_cold", "oracle", "service")


def _build(name: str, seed: int, probe, work_dir: Path):
    from workloads import FuzzOracle, JobService, MemoryPath

    if name == "mem_hot":
        return MemoryPath(seed, probe, hot=True)
    if name == "mem_cold":
        return MemoryPath(seed, probe, hot=False)
    if name == "oracle":
        return FuzzOracle(seed, probe)
    return JobService(seed, probe, str(work_dir))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _calibrated(seconds: float, probe: float) -> float:
    return seconds * CALIBRATION_REF_S / probe


def _per_op(rounds) -> tuple[list[float], float]:
    """Calibrated per-op latency of every sample, and the throughput."""
    latencies: list[float] = []
    ops = seconds = 0.0
    for r in rounds:
        for elapsed, probe, count in zip(r.times, r.probes, r.ops):
            calibrated = _calibrated(elapsed, probe)
            latencies.append(calibrated / count)
            ops += count
            seconds += calibrated
    return latencies, ops / seconds


def _end_to_end(rounds, setup_times: list[float]) -> dict:
    latencies, throughput = _per_op(rounds)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] \
        if len(latencies) > 1 else latencies[0]
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput": _metric(throughput, "ops/s"),
        "latency_us": _metric(statistics.median(latencies) * 1e6, "us"),
        "latency_p90_us": _metric(p90 * 1e6, "us"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(peak_rss_kb / 1024, "MB"),
    }


def _per_layer(workload, rounds, profiler) -> dict:
    ops = sum(sum(r.ops) for r in rounds)
    probe = statistics.median(p for r in rounds for p in r.probes)
    metrics = {
        name: _metric(value * CALIBRATION_REF_S / probe, "us/op")
        if name.endswith("_us") else _metric(value, "calls/op")
        for name, value in profiler.breakdown(ops).items()
    }
    latencies, _ = _per_op(rounds)
    metrics["traced_latency_us"] = _metric(
        statistics.median(latencies) * 1e6, "us"
    )
    metrics["calibration_us"] = _metric(probe * 1e6, "us")
    waits = getattr(workload, "queue_waits", [])
    metrics["queue_wait_us"] = _metric(
        statistics.median(waits) * 1e6 if waits else 0.0, "us"
    )
    rates = workload.sim_rates() if hasattr(workload, "sim_rates") else {}
    for name in ("l1_hit_rate", "meta_cache_hit_rate"):
        metrics[name] = _metric(rates.get(name, 0.0), "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'repro'}; run this "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from layers import LayerProfiler
    from workloads import calibration_probe

    work_dir = ROOT / ".perfbench-work" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    profiler = LayerProfiler(str(BENCH_DIR))
    try:
        workload = _build(args.workload, args.seed,
                          profiler.unprofiled(calibration_probe), work_dir)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            probe = calibration_probe()
            setup_times.append(_calibrated(workload.setup(), probe))

        if args.trace:
            if hasattr(workload, "executor_initializer"):
                workload.executor_initializer = \
                    profiler.profile_current_thread
            profiler.start()
        gc.collect()
        rounds = []
        spent = 0.0
        try:
            while spent < args.seconds:
                rounds.append(workload.run_round())
                spent += sum(rounds[-1].times)
        finally:
            profiler.stop()
        if args.trace:
            metrics = _per_layer(workload, rounds, profiler)
        else:
            metrics = _end_to_end(rounds, setup_times)
        problems = workload.check()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    attempted = sum(sum(r.ops) for r in rounds)
    failed = sum(r.failed for r in rounds)
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"{args.workload} seed={args.seed}: {len(rounds)} round(s), "
          f"{attempted} ops in {spent:.3f} s uncalibrated, {failed} failed; "
          f"calibrated set-up {', '.join(f'{t:.4f}' for t in setup_times)} s")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
