"""Task outcomes: the per-task record and the batch report.

A campaign turns every task into one :class:`TaskRecord`, whether it
ran, was served from the campaign DB, was skipped by fail-fast or was
cancelled by a drain; :class:`BatchReport` keeps them in submission
order and grades the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

# Record statuses a task can end in.  ``ok`` counts as success whether it
# ran now or was served from the campaign DB (the ``cached`` flag tells
# them apart); everything else is some flavour of not-done.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_SKIPPED = "skipped"


@dataclass
class TaskRecord:
    """Structured outcome of one task."""

    name: str
    status: str
    attempts: int = 0
    elapsed: float = 0.0
    error: str = ""
    detail: str = ""  # traceback tail for failures
    seed: int | None = None  # reseed used by the successful/last attempt
    cached: bool = False  # served from the campaign DB
    # Wall-clock lifecycle (epoch seconds; 0.0 = not recorded).  queue-wait
    # is started_at - queued_at; the span layer reads these rather than
    # re-deriving them from its own clocks.
    queued_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    result: Any = None
    #: ``result`` in the campaign-payload encoding, once the campaign DB
    #: has stored it (executed) or served it (cached); ``None`` otherwise.
    payload: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def queue_wait(self) -> float:
        """Seconds spent queued before the first attempt started."""
        if self.queued_at and self.started_at:
            return max(0.0, self.started_at - self.queued_at)
        return 0.0


@dataclass
class BatchReport:
    """Aggregate outcome of one batch."""

    records: list[TaskRecord] = field(default_factory=list)

    def record(self, name: str) -> TaskRecord:
        for record in self.records:
            if record.name == name:
                return record
        raise KeyError(f"no task named {name!r} in this batch")

    @property
    def ok(self) -> list[TaskRecord]:
        return [r for r in self.records if r.ok]

    @property
    def failed(self) -> list[TaskRecord]:
        return [r for r in self.records if r.status in (STATUS_FAILED, STATUS_TIMEOUT)]

    @property
    def skipped(self) -> list[TaskRecord]:
        return [r for r in self.records if r.status == STATUS_SKIPPED]

    @property
    def status(self) -> str:
        """``pass`` (everything ok), ``fail`` (nothing ok) or ``partial``."""
        if not self.records or all(r.ok for r in self.records):
            return "pass"
        if any(r.ok for r in self.records):
            return "partial"
        return "fail"

    def summary(self) -> str:
        lines = [
            f"batch {self.status}: {len(self.ok)}/{len(self.records)} ok, "
            f"{len(self.failed)} failed, {len(self.skipped)} skipped"
        ]
        for record in self.records:
            flags = " (cached)" if record.cached else ""
            tail = f" — {record.error}" if record.error else ""
            lines.append(
                f"  {record.name:<20} {record.status:<8} "
                f"attempts={record.attempts} {record.elapsed:.1f}s{flags}{tail}"
            )
        return "\n".join(lines)
