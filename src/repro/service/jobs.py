"""Service job model: state machine, specs, and campaign-task mapping.

A *job* is what the HTTP server accepts: a kind (one of
:func:`job_kinds`: ``probe``, ``leakcheck``, ``synth``), a JSON spec,
and a server-assigned id.  A job expands into one or more
:class:`~repro.campaign.CampaignTask` — the unit the campaign engine
executes, retries, and caches — via :func:`build_job_tasks`, which
dispatches on the one table of kinds.  ``leakcheck`` and ``synth`` jobs
build their tasks with the same functions as ``repro leakcheck`` and
``repro synth run`` (:func:`~repro.leakcheck.build_leakcheck_tasks`,
:func:`~repro.synth.build_fuzz_tasks`), so the service and the CLI
share those cache entries.

Whether the job is live, served from the cache at admission, or read
back from the journal (:meth:`Job.from_row`), its result is the
:func:`summarize_records` summary, and :attr:`Job.cached` is read from
that summary.

The state machine is strict::

    queued ──► running ──► done | failed | timeout | cancelled
       │                                      ▲
       ├──────────────────────────────────────┘   (cancelled in queue)
       └──► done                                  (served from cache)

Invalid transitions raise :class:`JobStateError` instead of silently
corrupting the journal, and terminal states never change again.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any

from repro.campaign.db import JobRow
from repro.campaign.engine import CampaignTask
from repro.campaign.payload import PayloadError, encode_payload
from repro.campaign.records import STATUS_OK, STATUS_SKIPPED, STATUS_TIMEOUT

# -- job states ------------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
TIMEOUT = "timeout"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, TIMEOUT, CANCELLED})

#: Every state, for validation when rows come back from the journal.
ALL_STATES = frozenset({QUEUED, RUNNING}) | TERMINAL_STATES

_ALLOWED: dict[str, frozenset[str]] = {
    QUEUED: frozenset({RUNNING, CANCELLED, DONE}),
    RUNNING: frozenset({DONE, FAILED, TIMEOUT, CANCELLED}),
}

#: Guardrail on probe work so a single load-test job cannot wedge a
#: worker for minutes; real workloads go through leakcheck/synth kinds.
MAX_PROBE_OPS = 1_000_000


class JobStateError(RuntimeError):
    """An illegal job state transition (or an unknown state)."""


@dataclass
class Job:
    """One accepted service job and its lifecycle bookkeeping."""

    id: str
    kind: str
    spec: dict[str, Any]
    state: str = QUEUED
    submitted: float = field(default_factory=time.time)
    updated: float = field(default_factory=time.time)
    attempts: int = 0
    resumed: bool = False
    cancel_requested: bool = False
    error: str = ""
    result: dict[str, Any] | None = None
    #: Fleet-tracing trace id, minted once at admission and preserved by
    #: journal resume — the same id spans every attempt of this job.
    trace_id: str = ""

    @classmethod
    def from_row(cls, row: JobRow) -> Job:
        """The job a journal row records; stored JSON that does not parse
        reads as an empty spec and no result."""
        return cls(
            id=row.id, kind=row.kind, spec=_parsed(row.spec, {}),
            state=row.state, submitted=row.submitted, updated=row.updated,
            attempts=row.attempts, resumed=bool(row.resumed),
            error=row.error, result=_parsed(row.result, None),
            trace_id=row.trace,
        )

    def advance(self, new_state: str) -> None:
        """Transition to ``new_state``; raises JobStateError if illegal."""
        if new_state not in ALL_STATES:
            raise JobStateError(f"unknown job state {new_state!r}")
        allowed = _ALLOWED.get(self.state, frozenset())
        if new_state not in allowed:
            raise JobStateError(
                f"job {self.id}: illegal transition "
                f"{self.state!r} -> {new_state!r}"
            )
        self.state = new_state
        self.updated = time.time()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def cached(self) -> bool:
        """Every task of the job was served from the campaign cache, as
        its result summary tells."""
        summary = self.result
        return (
            summary is not None and summary["ok"] > 0
            and summary["cached"] == summary["ok"]
            and summary["failed"] == summary["timeout"] == 0
        )

    def to_dict(self, *, brief: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "submitted": self.submitted,
            "updated": self.updated,
            "attempts": self.attempts,
            "resumed": self.resumed,
            "cached": self.cached,
            "trace_id": self.trace_id,
        }
        if brief:
            return out
        out["spec"] = self.spec
        out["error"] = self.error
        out["result"] = self.result
        return out


def _parsed(text: str | None, default: Any) -> Any:
    """``text`` parsed as JSON, or ``default`` if it is empty or malformed."""
    if not text:
        return default
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return default


# -- probe workload --------------------------------------------------------


def run_probe(*, preset: str = "sct", ops: int = 400, seed: int = 0) -> dict:
    """A small seeded steady-state workload: the service's load-test job.

    Runs ``ops`` mixed accesses (reads, writes, occasional flushes) on a
    deliberately small machine so the job finishes in tens of
    milliseconds.  The simulated columns are deterministic per
    ``(preset, ops, seed)``, which makes probe jobs ideal both for load
    tests (``repro service-load``) and for exercising the campaign cache
    (an identical resubmission is a dedup hit).
    """
    from random import Random

    from repro.config import MIB, PAGE_SIZE, preset_config
    from repro.os.page_alloc import PageAllocator
    from repro.proc.processor import SecureProcessor

    overrides: dict[str, object] = {
        "functional_crypto": False, "timer_jitter_sigma": 0.0,
    }
    if preset != "sgx":
        overrides["protected_size"] = 8 * MIB
    config = preset_config(preset, **overrides)
    proc = SecureProcessor(config)
    allocator = PageAllocator.for_machine(proc)
    rng = Random(seed)
    frames = allocator.alloc_many(8, core=0)
    addrs = [
        frame * PAGE_SIZE + 64 * rng.randrange(PAGE_SIZE // 64)
        for frame in frames for _ in range(4)
    ]
    for i in range(ops):
        addr = rng.choice(addrs)
        roll = rng.random()
        if roll < 0.72:
            proc.read(addr, core=0)
        elif roll < 0.94:
            proc.write(addr, i.to_bytes(8, "little"), core=0)
        else:
            proc.flush(addr)
    proc.drain_writes()
    return {
        "preset": preset,
        "ops": ops,
        "seed": seed,
        "simulated_cycles": proc.cycle,
        "accesses": ops + 1,
    }


# -- spec validation and task expansion ------------------------------------


def _require_int(spec: dict, key: str, default: int, *, lo: int | None = None,
                 hi: int | None = None) -> int:
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"spec[{key!r}] must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ValueError(f"spec[{key!r}] must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"spec[{key!r}] must be <= {hi}, got {value}")
    return value


def _require_alpha(spec: dict) -> float:
    alpha = spec.get("alpha", 0.01)
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ValueError(f"spec['alpha'] must be a number, got {alpha!r}")
    if not 0 < alpha < 1:
        raise ValueError(f"spec['alpha'] must be in (0, 1), got {alpha}")
    return float(alpha)


def _require_preset(spec: dict) -> str:
    from repro.config import preset_config

    preset = spec.get("preset", "sct")
    preset_config(preset)  # raises ValueError naming the valid presets
    return preset


def _probe_tasks(spec: dict) -> tuple[dict[str, Any], list[CampaignTask]]:
    preset = _require_preset(spec)
    ops = _require_int(spec, "ops", 400, lo=1, hi=MAX_PROBE_OPS)
    seed = _require_int(spec, "seed", 0)
    normalized = {"preset": preset, "ops": ops, "seed": seed}
    task = CampaignTask(
        name=f"probe_{preset}_o{ops}_s{seed}",
        fn=run_probe,
        kwargs=normalized,
    )
    return normalized, [task]


def _leakcheck_tasks(spec: dict) -> tuple[dict[str, Any], list[CampaignTask]]:
    from repro.leakcheck import build_leakcheck_tasks
    from repro.leakcheck.victims import victim_names

    victim = spec.get("victim")
    if victim not in victim_names():
        raise ValueError(
            f"unknown leakcheck victim {victim!r}; "
            f"choose from {victim_names()}"
        )
    seed = _require_int(spec, "seed", 0)
    seeds = _require_int(spec, "seeds", 1, lo=1, hi=64)
    alpha = _require_alpha(spec)
    normalized = {"victim": victim, "seed": seed, "seeds": seeds,
                  "alpha": alpha}
    return normalized, build_leakcheck_tasks(
        victim, seed=seed, seeds=seeds, alpha=alpha
    )


def _synth_tasks(spec: dict) -> tuple[dict[str, Any], list[CampaignTask]]:
    from repro.synth import build_fuzz_tasks

    preset = spec.get("preset", "sct")
    defense = spec.get("defense", "none")
    seed = _require_int(spec, "seed", 0)
    budget = _require_int(spec, "budget", 16, lo=1, hi=256)
    alpha = _require_alpha(spec)
    normalized = {
        "preset": preset, "defense": defense, "seed": seed,
        "budget": budget, "alpha": alpha,
    }
    # build_fuzz_tasks rejects an unknown preset or defense.
    return normalized, build_fuzz_tasks(
        preset=preset, defense=defense, budget=budget, seed=seed,
        alpha=alpha,
    )


#: Job kind -> its spec validator and task builder, in the order
#: :func:`job_kinds` lists them.
_KINDS = {
    "probe": _probe_tasks,
    "leakcheck": _leakcheck_tasks,
    "synth": _synth_tasks,
}


def build_job_tasks(
    kind: str, spec: dict[str, Any]
) -> tuple[dict[str, Any], list[CampaignTask]]:
    """Validate a job spec and expand it into campaign tasks.

    Returns ``(normalized_spec, tasks)``; raises :class:`ValueError` for
    anything malformed, which the server maps to HTTP 400.  Leakcheck
    and synth tasks come from the builders the CLI uses, so those jobs
    share the CLI's campaign-cache entries.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"job spec must be a JSON object, got {type(spec).__name__}")
    builder = _KINDS.get(kind) if isinstance(kind, str) else None
    if builder is None:
        raise ValueError(
            f"unknown job kind {kind!r}; choose from {job_kinds()}"
        )
    return builder(spec)


def job_kinds() -> list[str]:
    """Every job kind the service accepts."""
    return list(_KINDS)


# -- outcome summarisation -------------------------------------------------


def summarize_records(records: list[Any]) -> tuple[str, dict[str, Any], str]:
    """Fold task records into ``(job_state, result_summary, error)``.

    Severity order: any ``failed`` task fails the job, else any
    ``timeout`` times it out, else any cancelled/skipped task marks it
    cancelled (a drain checkpointed it mid-run), else it is done.

    A task's ``result`` entry is its payload encoding parsed as JSON.
    The text comes from the record when the campaign DB stored or served
    it; only a record without one (no DB, or an unresolvable ``fn``) is
    encoded here.
    """
    tasks: list[dict[str, Any]] = []
    errors: list[str] = []
    n_ok = n_cached = n_failed = n_timeout = n_skipped = 0
    for record in records:
        entry: dict[str, Any] = {
            "name": record.name,
            "status": record.status,
            "attempts": record.attempts,
            "elapsed": round(record.elapsed, 6),
            "cached": record.cached,
        }
        if record.error:
            entry["error"] = record.error
            errors.append(f"{record.name}: {record.error}")
        if record.status == STATUS_OK:
            n_ok += 1
            if record.cached:
                n_cached += 1
            try:
                entry["result"] = json.loads(
                    record.payload or encode_payload(record.result)
                )
            except PayloadError:
                entry["result"] = None
                entry["result_note"] = "result not serialisable"
        elif record.status == STATUS_TIMEOUT:
            n_timeout += 1
        elif record.status == STATUS_SKIPPED:
            n_skipped += 1
        else:
            n_failed += 1
        tasks.append(entry)
    if n_failed:
        state = FAILED
    elif n_timeout:
        state = TIMEOUT
    elif n_skipped:
        state = CANCELLED
    else:
        state = DONE
    summary = {
        "tasks": tasks,
        "ok": n_ok,
        "cached": n_cached,
        "failed": n_failed,
        "timeout": n_timeout,
        "cancelled": n_skipped,
    }
    return state, summary, "; ".join(errors)
