"""Stdlib asyncio HTTP client + load generator for the leakcheck service.

Two layers:

* :func:`http_request` — a minimal one-shot HTTP/1.1 JSON client over
  ``asyncio.open_connection`` (the service speaks one request per
  connection, so this is all a client needs).
* :func:`run_load` — the ``repro service-load`` engine: submit ``jobs``
  job specs with bounded client-side concurrency, honour 429 shedding by
  sleeping the server's ``Retry-After`` and resubmitting, poll each
  accepted job to a terminal state, and fold everything into a
  :class:`LoadReport` (sustained jobs/sec, state tally, dedup hits).

The load generator is also what the CI ``service-smoke`` job drives, so
its report fields (``cached``, sustained jobs/sec) are part of the
measured surface — keep them stable.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any

from repro.service.jobs import CANCELLED, DONE, FAILED, TERMINAL_STATES, TIMEOUT

#: Seconds :func:`http_request` waits for the connection and each read.
_IO_TIMEOUT_S = 30.0

#: Shed (429) submissions of one job the load generator retries.
_MAX_SHED_RETRIES = 50


class ServiceClientError(RuntimeError):
    """The service could not be reached or spoke something unexpected."""


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict[str, Any] | None = None,
) -> tuple[int, dict[str, str], Any]:
    """One HTTP/1.1 request; returns ``(status, headers, decoded_body)``."""
    raw = b""
    if body is not None:
        raw = json.dumps(body, sort_keys=True).encode("utf-8")
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout=_IO_TIMEOUT_S
        )
    except (OSError, asyncio.TimeoutError) as error:
        raise ServiceClientError(
            f"cannot connect to {host}:{port}: {error}"
        ) from error
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(raw)}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + raw)
        await writer.drain()
        status_line = await asyncio.wait_for(
            reader.readline(), timeout=_IO_TIMEOUT_S
        )
        parts = status_line.decode("latin-1").split()
        if len(parts) < 2 or not parts[1].isdigit():
            raise ServiceClientError(
                f"malformed status line {status_line!r} from {host}:{port}"
            )
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(
                reader.readline(), timeout=_IO_TIMEOUT_S
            )
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await asyncio.wait_for(reader.read(), timeout=_IO_TIMEOUT_S)
        if headers.get("content-type", "").startswith("application/json"):
            try:
                decoded: Any = json.loads(payload.decode("utf-8") or "null")
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                raise ServiceClientError(
                    f"undecodable JSON body from {host}:{port}: {error}"
                ) from error
        else:
            decoded = payload.decode("utf-8", errors="replace")
        return status, headers, decoded
    except (asyncio.TimeoutError, ConnectionError, asyncio.IncompleteReadError) as error:
        raise ServiceClientError(
            f"request {method} {path} to {host}:{port} failed: {error}"
        ) from error
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class LoadReport:
    """Outcome of one ``run_load`` campaign against a running service."""

    jobs: int = 0
    accepted: int = 0
    shed: int = 0
    rejected: int = 0
    states: dict[str, int] = field(default_factory=dict)
    cached: int = 0
    elapsed_s: float = 0.0
    retries_after_shed: int = 0

    @property
    def completed(self) -> int:
        return sum(self.states.get(state, 0) for state in TERMINAL_STATES)

    @property
    def jobs_per_second(self) -> float:
        if self.elapsed_s <= 0:
            return 0.0
        return self.completed / self.elapsed_s

    @property
    def ok(self) -> bool:
        """Every submitted job reached ``done`` (possibly via the cache)."""
        bad = (
            self.rejected
            + self.states.get(FAILED, 0)
            + self.states.get(TIMEOUT, 0)
            + self.states.get(CANCELLED, 0)
        )
        return bad == 0 and self.states.get(DONE, 0) == self.jobs

    def to_dict(self) -> dict[str, Any]:
        return {
            "jobs": self.jobs,
            "accepted": self.accepted,
            "shed": self.shed,
            "rejected": self.rejected,
            "retries_after_shed": self.retries_after_shed,
            "states": dict(sorted(self.states.items())),
            "cached": self.cached,
            "completed": self.completed,
            "elapsed_s": round(self.elapsed_s, 6),
            "jobs_per_second": round(self.jobs_per_second, 3),
            "ok": self.ok,
        }


def format_load_report(report: LoadReport) -> str:
    lines = [
        "service load report",
        f"  submitted          {report.jobs}",
        f"  accepted           {report.accepted}"
        + (f" ({report.cached} dedup-served)" if report.cached else ""),
        f"  shed (429)         {report.shed}"
        + (
            f" -> {report.retries_after_shed} resubmitted"
            if report.retries_after_shed else ""
        ),
        f"  rejected (4xx)     {report.rejected}",
    ]
    for state, count in sorted(report.states.items()):
        lines.append(f"  {state:<19}{count}")
    lines.append(f"  elapsed            {report.elapsed_s:.3f} s")
    lines.append(f"  throughput         {report.jobs_per_second:.2f} jobs/s")
    lines.append(f"  verdict            {'OK' if report.ok else 'DEGRADED'}")
    return "\n".join(lines)


async def _drive_one(
    host: str,
    port: int,
    spec: dict[str, Any],
    kind: str,
    report: LoadReport,
    lock: asyncio.Lock,
    *,
    poll_interval: float,
) -> None:
    """Submit one job (retrying shed submissions) and poll it terminal,
    for at most two minutes."""
    job: dict[str, Any] | None = None
    for attempt in range(_MAX_SHED_RETRIES + 1):
        status, headers, data = await http_request(
            host, port, "POST", "/jobs", {"kind": kind, "spec": spec}
        )
        if status in (200, 202):
            job = data
            async with lock:
                report.accepted += 1
            break
        if status == 429:
            async with lock:
                report.shed += 1
            if attempt == _MAX_SHED_RETRIES:
                async with lock:
                    report.states["shed_gave_up"] = (
                        report.states.get("shed_gave_up", 0) + 1
                    )
                return
            retry_after = 1.0
            try:
                retry_after = float(headers.get("retry-after", "1"))
            except ValueError:
                pass
            async with lock:
                report.retries_after_shed += 1
            # Cap the honoured delay: the point is back-pressure, not a
            # stalled load test when the server estimates a long queue.
            await asyncio.sleep(min(retry_after, 2.0))
            continue
        async with lock:
            report.rejected += 1
        return
    assert job is not None
    if job.get("state") in TERMINAL_STATES:
        async with lock:
            report.states[job["state"]] = report.states.get(job["state"], 0) + 1
            if job.get("cached"):
                report.cached += 1
        return
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        await asyncio.sleep(poll_interval)
        status, _, data = await http_request(
            host, port, "GET", f"/jobs/{job['id']}"
        )
        if status != 200:
            async with lock:
                report.states["lost"] = report.states.get("lost", 0) + 1
            return
        if data.get("state") in TERMINAL_STATES:
            async with lock:
                report.states[data["state"]] = (
                    report.states.get(data["state"], 0) + 1
                )
                if data.get("cached"):
                    report.cached += 1
            return
    async with lock:
        report.states["poll_deadline"] = (
            report.states.get("poll_deadline", 0) + 1
        )


async def run_load(
    host: str,
    port: int,
    *,
    jobs: int,
    concurrency: int = 8,
    kind: str = "probe",
    spec: dict[str, Any] | None = None,
    distinct_seeds: bool = True,
    poll_interval: float = 0.05,
) -> LoadReport:
    """Submit ``jobs`` jobs with bounded concurrency; poll all terminal.

    With ``distinct_seeds`` each job gets ``spec["seed"] = base + i`` so
    the run measures real executions; with it off every job is identical
    and everything after the first is a dedup hit — useful for measuring
    the warm-cache fast path.
    """
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if concurrency < 1:
        raise ValueError("concurrency must be positive")
    base_spec = dict(spec or {})
    base_seed = int(base_spec.get("seed", 0))
    report = LoadReport(jobs=jobs)
    lock = asyncio.Lock()
    sem = asyncio.Semaphore(concurrency)

    async def one(i: int) -> None:
        job_spec = dict(base_spec)
        if distinct_seeds:
            job_spec["seed"] = base_seed + i
        async with sem:
            await _drive_one(
                host, port, job_spec, kind, report, lock,
                poll_interval=poll_interval,
            )

    started = time.monotonic()
    await asyncio.gather(*(one(i) for i in range(jobs)))
    report.elapsed_s = time.monotonic() - started
    return report
