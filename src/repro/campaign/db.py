"""Persistent sqlite campaign DB: run provenance, payloads, job journal.

One ``runs`` row per *executed* task attempt-chain: config hash, seed,
git rev, terminal status, timing, and (for successes) the result payload
in the deterministic :mod:`repro.campaign.payload` encoding.  The cache
contract is strict — a row is served only when config hash *and* git
revision match and the stored payload decodes — so a code change, a
kwarg change, or a corrupted row all degrade to a cache miss, never to
a stale result.

The ``jobs`` table is the leakcheck service's **write-ahead job
journal** (:mod:`repro.service`): a job is journalled *before* the
server acknowledges it, every state transition is committed as it
happens, and on startup any row still ``queued``/``running`` is
re-queued — so an accepted job survives a ``kill -9`` of the server.

Within one process a DB is one connection, shared by every thread that
holds the :class:`CampaignDB`: the service's event loop writes journal
rows and spans on it while its job threads look up and record runs.  A
lock held from each public method's first statement to its commit keeps
any transaction from spanning two callers.  Other processes may open
the same file (a ``repro figures`` run beside a server, a restarted
server); WAL mode plus an explicit ``busy_timeout`` and a
retry-on-``SQLITE_BUSY`` wrapper keep those writers from ever surfacing
a transient lock as a crash.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.campaign.payload import PayloadError, encode_payload

SCHEMA_VERSION = 3

#: Seconds sqlite itself blocks on another connection's lock
#: (``PRAGMA busy_timeout``) before it reports SQLITE_BUSY.
_BUSY_TIMEOUT_S = 5.0

#: Transient-lock retry policy: attempts beyond the first, and the base
#: of the exponential sleep between them.  Combined with sqlite's own
#: ``busy_timeout`` (which blocks inside the C library first), a writer
#: only fails once a lock has been held for several full seconds.
_BUSY_RETRIES = 5
_BUSY_BACKOFF_S = 0.05

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    config_hash TEXT NOT NULL,
    git_rev TEXT NOT NULL,
    name TEXT NOT NULL,
    seed INTEGER,
    status TEXT NOT NULL,
    attempts INTEGER NOT NULL DEFAULT 0,
    elapsed REAL NOT NULL DEFAULT 0.0,
    error TEXT NOT NULL DEFAULT '',
    detail TEXT NOT NULL DEFAULT '',
    payload TEXT,
    created REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_runs_key ON runs (config_hash, git_rev, status);
CREATE TABLE IF NOT EXISTS jobs (
    id TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    spec TEXT NOT NULL,
    state TEXT NOT NULL,
    submitted REAL NOT NULL,
    updated REAL NOT NULL,
    attempts INTEGER NOT NULL DEFAULT 0,
    resumed INTEGER NOT NULL DEFAULT 0,
    error TEXT NOT NULL DEFAULT '',
    result TEXT,
    trace TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs (state);
CREATE TABLE IF NOT EXISTS spans (
    span_id TEXT PRIMARY KEY,
    trace_id TEXT NOT NULL,
    parent_id TEXT,
    name TEXT NOT NULL,
    kind TEXT NOT NULL,
    start REAL NOT NULL,
    end REAL NOT NULL,
    outcome TEXT NOT NULL,
    pid INTEGER NOT NULL DEFAULT 0,
    attrs TEXT NOT NULL DEFAULT '{}'
);
CREATE INDEX IF NOT EXISTS idx_spans_trace ON spans (trace_id, start);
"""


def _is_busy_error(error: sqlite3.OperationalError) -> bool:
    message = str(error).lower()
    return "locked" in message or "busy" in message


def _locked(method: Callable[..., Any]) -> Callable[..., Any]:
    """Run a :class:`CampaignDB` method under the DB's connection lock."""

    @functools.wraps(method)
    def call(self: "CampaignDB", *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            return method(self, *args, **kwargs)

    return call


def config_hash(name: str, fn: Callable[..., Any], kwargs: dict[str, Any]) -> str:
    """Stable identity of one task configuration.

    Hashes the task name, the function's import path, and the kwargs in
    the canonical payload encoding, so the key survives process restarts
    and is independent of shard assignment or execution order.  Kwarg
    values the payload codec cannot encode fall back to ``repr`` — still
    deterministic for the plain-Python values task specs carry.
    """
    parts = [name, f"{getattr(fn, '__module__', '?')}:{getattr(fn, '__qualname__', repr(fn))}"]
    for key in sorted(kwargs):
        try:
            encoded = encode_payload(kwargs[key])
        except PayloadError:
            encoded = repr(kwargs[key])
        parts.append(f"{key}={encoded}")
    digest = hashlib.blake2b("\x1f".join(parts).encode(), digest_size=16)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunRow:
    """One persisted campaign run."""

    config_hash: str
    git_rev: str
    name: str
    seed: int | None
    status: str
    attempts: int
    elapsed: float
    error: str
    detail: str
    payload: str | None
    created: float


@dataclass(frozen=True)
class JobRow:
    """One journalled service job (see :mod:`repro.service`)."""

    id: str
    kind: str
    spec: str
    state: str
    submitted: float
    updated: float
    attempts: int
    resumed: int
    error: str
    result: str | None
    trace: str = ""


_JOB_COLUMNS = (
    "id, kind, spec, state, submitted, updated, attempts, resumed,"
    " error, result, trace"
)


class CampaignDB:
    """Append-mostly store of campaign runs keyed by (config hash, git rev).

    Safe to share between threads: every public method holds the DB's
    lock (see the module docstring).  The owner closes it once no other
    thread will use it again.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            self.path, timeout=_BUSY_TIMEOUT_S, check_same_thread=False,
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        # Block inside sqlite itself while another connection commits;
        # the _execute/_commit retry loop backs this up for the (rare)
        # cases sqlite still surfaces SQLITE_BUSY, e.g. a competing
        # writer upgrading to an exclusive lock.
        self._conn.execute(f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_S * 1000)}")
        # WAL + NORMAL keeps commits durable across process crashes
        # (kill -9) while skipping the per-commit fsync; an OS-level
        # power loss may drop the last few commits, which the service
        # treats the same as jobs that never arrived.
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._migrate()
        self._execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            ("schema_version", str(SCHEMA_VERSION)),
        )
        self._commit()

    def _migrate(self) -> None:
        """Bring a pre-v3 DB up to date in place.

        v3 added ``jobs.trace`` (the fleet-tracing trace id a resumed
        job must keep) and the ``spans`` table; ``executescript`` above
        already created the latter via ``IF NOT EXISTS``.
        """
        columns = {
            row[1] for row in self._execute("PRAGMA table_info(jobs)")
        }
        if "trace" not in columns:
            self._execute(
                "ALTER TABLE jobs ADD COLUMN trace TEXT NOT NULL DEFAULT ''"
            )

    # -- busy-retry plumbing ----------------------------------------------

    def _execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        """``conn.execute`` that retries transient SQLITE_BUSY errors."""
        return self._with_busy_retry(lambda: self._conn.execute(sql, params))

    def _commit(self) -> None:
        self._with_busy_retry(self._conn.commit)

    def _with_busy_retry(self, op: Callable[[], Any]) -> Any:
        for attempt in range(_BUSY_RETRIES + 1):
            try:
                return op()
            except sqlite3.OperationalError as error:
                if not _is_busy_error(error) or attempt == _BUSY_RETRIES:
                    raise
                time.sleep(_BUSY_BACKOFF_S * (2 ** attempt))
        raise AssertionError("unreachable")  # pragma: no cover

    # -- writes ------------------------------------------------------------

    @_locked
    def record_run(
        self,
        *,
        config_hash: str,
        git_rev: str,
        name: str,
        seed: int | None,
        status: str,
        attempts: int,
        elapsed: float,
        error: str = "",
        detail: str = "",
        payload: str | None = None,
    ) -> None:
        """Persist one executed task's terminal outcome."""
        self._execute(
            "INSERT INTO runs (config_hash, git_rev, name, seed, status,"
            " attempts, elapsed, error, detail, payload, created)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                config_hash, git_rev, name, seed, status,
                attempts, elapsed, error, detail, payload, time.time(),
            ),
        )
        self._commit()

    # -- reads -------------------------------------------------------------

    @_locked
    def lookup(self, config_hash: str, git_rev: str) -> RunRow | None:
        """Latest successful run with a payload for this exact config + rev."""
        cur = self._execute(
            "SELECT config_hash, git_rev, name, seed, status, attempts,"
            " elapsed, error, detail, payload, created FROM runs"
            " WHERE config_hash = ? AND git_rev = ? AND status = 'ok'"
            " AND payload IS NOT NULL ORDER BY id DESC LIMIT 1",
            (config_hash, git_rev),
        )
        row = cur.fetchone()
        return RunRow(*row) if row is not None else None

    @_locked
    def runs(self, *, name_prefix: str = "") -> list[RunRow]:
        """Recorded runs whose task name starts with ``name_prefix``,
        oldest first (all runs by default)."""
        cur = self._execute(
            "SELECT config_hash, git_rev, name, seed, status, attempts,"
            " elapsed, error, detail, payload, created FROM runs"
            " WHERE substr(name, 1, ?) = ? ORDER BY id",
            (len(name_prefix), name_prefix),
        )
        return [RunRow(*row) for row in cur]

    @_locked
    def counts(self) -> dict[str, int]:
        """``{status: rows}`` across the whole DB."""
        return dict(
            self._execute("SELECT status, COUNT(*) FROM runs GROUP BY status")
        )

    @_locked
    def __len__(self) -> int:
        (count,) = self._execute("SELECT COUNT(*) FROM runs").fetchone()
        return count

    # -- job journal (write-ahead log for the leakcheck service) ----------

    @_locked
    def journal_put(
        self,
        *,
        job_id: str,
        kind: str,
        spec: str,
        state: str,
        result: str | None = None,
        trace: str = "",
    ) -> None:
        """Journal a newly accepted job *before* acknowledging it (never
        resumed, no error yet)."""
        now = time.time()
        self._execute(
            f"INSERT INTO jobs ({_JOB_COLUMNS})"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (job_id, kind, spec, state, now, now, 0, 0, "", result, trace),
        )
        self._commit()

    @_locked
    def journal_update(
        self,
        job_id: str,
        *,
        state: str,
        attempts: int | None = None,
        resumed: int | None = None,
        error: str | None = None,
        result: str | None = None,
        trace: str | None = None,
    ) -> None:
        """Commit one job state transition (and optional outcome fields)."""
        sets = ["state = ?", "updated = ?"]
        params: list[Any] = [state, time.time()]
        for column, value in (
            ("attempts", attempts), ("resumed", resumed),
            ("error", error), ("result", result), ("trace", trace),
        ):
            if value is not None:
                sets.append(f"{column} = ?")
                params.append(value)
        params.append(job_id)
        self._execute(
            f"UPDATE jobs SET {', '.join(sets)} WHERE id = ?", tuple(params)
        )
        self._commit()

    @_locked
    def journal_get(self, job_id: str) -> JobRow | None:
        cur = self._execute(
            f"SELECT {_JOB_COLUMNS} FROM jobs WHERE id = ?", (job_id,)
        )
        row = cur.fetchone()
        return JobRow(*row) if row is not None else None

    @_locked
    def journal_jobs(self, *, states: tuple[str, ...] | None = None) -> list[JobRow]:
        """Journalled jobs, oldest first (optionally filtered by state)."""
        query = f"SELECT {_JOB_COLUMNS} FROM jobs"
        params: tuple = ()
        if states:
            marks = ", ".join("?" for _ in states)
            query += f" WHERE state IN ({marks})"
            params = tuple(states)
        return [
            JobRow(*row)
            for row in self._execute(query + " ORDER BY submitted, id", params)
        ]

    def journal_pending(self) -> list[JobRow]:
        """Jobs a restarted service must re-queue: queued or running."""
        return self.journal_jobs(states=("queued", "running"))

    # -- span persistence (fleet tracing, schema v1 in repro.obs) ---------

    @_locked
    def span_put_many(self, spans: list[dict[str, Any]]) -> int:
        """Persist finished span dicts; idempotent on span id."""
        count = 0
        for span in spans:
            try:
                row = (
                    str(span["span"]), str(span["trace"]), span.get("parent"),
                    str(span["name"]), str(span.get("kind", span["name"])),
                    float(span["start"]), float(span["end"]),
                    str(span.get("outcome", "")), int(span.get("pid", 0)),
                    json.dumps(span.get("attrs") or {}, sort_keys=True),
                )
            except (KeyError, TypeError, ValueError):
                continue  # malformed span: skip, never poison the batch
            self._execute(
                "INSERT OR REPLACE INTO spans (span_id, trace_id, parent_id,"
                " name, kind, start, end, outcome, pid, attrs)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                row,
            )
            count += 1
        if count:
            self._commit()
        return count

    @_locked
    def spans(self, trace_id: str | None = None) -> list[dict[str, Any]]:
        """Stored spans as schema-v1 dicts, oldest first."""
        query = ("SELECT span_id, trace_id, parent_id, name, kind, start,"
                 " end, outcome, pid, attrs FROM spans")
        params: tuple = ()
        if trace_id is not None:
            query += " WHERE trace_id = ?"
            params = (trace_id,)
        query += " ORDER BY start, span_id"
        out = []
        for row in self._execute(query, params):
            try:
                attrs = json.loads(row[9]) if row[9] else {}
            except ValueError:
                attrs = {}
            out.append({
                "v": 1, "span": row[0], "trace": row[1], "parent": row[2],
                "name": row[3], "kind": row[4], "start": row[5],
                "end": row[6], "outcome": row[7], "pid": row[8],
                "attrs": attrs,
            })
        return out

    @_locked
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "CampaignDB":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
