"""The JSONL codec for trace events and span logs, and the Chrome builder.

One writer and one reader serve both kinds of JSONL record: the
machine's :class:`~repro.trace.events.TraceEvent` stream and the
schema-v1 span dicts of :mod:`repro.obs`.  Each record is one compact
JSON object per line, and reads back equal to what was written.

The Chrome form follows the ``trace_event`` JSON schema
(https://ui.perfetto.dev loads it directly): each component becomes a
named "process", each core a thread, events with a ``value`` become
complete ("X") slices whose duration is the value, and the rest become
instants — so a metadata-cache miss and its tree walk appear as nested
slices on the issuing core's track.  Spans have their own builder,
:func:`repro.obs.spans_to_chrome`, because they sit on a wall clock,
not on simulated cycles.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Callable, Iterable, Sequence

from repro.trace.events import TraceEvent


def write_jsonl(records: Iterable[Any], path: str | pathlib.Path) -> int:
    """Write one JSON object per record; returns the number written.

    A record is a trace event, written field by field, or a dict such as
    a span, written as it is.
    """
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            payload = record if isinstance(record, dict) else record.to_dict()
            handle.write(json.dumps(payload, separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(
    path: str | pathlib.Path,
    decode: Callable[[dict[str, Any]], Any] = TraceEvent.from_dict,
) -> list[Any]:
    """Read a JSONL file back, one record per non-blank line.

    ``decode`` builds each record from its line's JSON object: trace
    events by default (the inverse of :func:`write_jsonl`), and span
    logs pass ``dict``.  A line that is not JSON, is not an object, or
    that ``decode`` rejects raises ``ValueError`` naming ``path:line``.
    """
    records: list[Any] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: not a JSON line ({exc})"
                ) from exc
            if not isinstance(payload, dict):
                raise ValueError(
                    f"{path}:{line_number}: expected a JSON object, got "
                    f"{type(payload).__name__}"
                )
            try:
                records.append(decode(payload))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from exc
    return records


def to_chrome_trace(events: Sequence[TraceEvent]) -> dict[str, object]:
    """Convert events to a Chrome ``trace_event`` document (dict form)."""
    components = sorted({event.component for event in events})
    pids = {component: pid for pid, component in enumerate(components, start=1)}
    records: list[dict[str, object]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": pid,
            "tid": 0,
            "args": {"name": component},
        }
        for component, pid in pids.items()
    ]
    for event in events:
        record: dict[str, object] = {
            "name": event.kind,
            "cat": event.component,
            "pid": pids[event.component],
            "tid": event.core + 1,  # core -1 (unknown) maps to thread 0
            "ts": event.cycle,
            "args": {
                key: value
                for key, value in (
                    ("addr", event.addr),
                    ("set", event.set_index),
                    ("level", event.level),
                )
                if value is not None
            },
        }
        if event.value is not None:
            record["ph"] = "X"
            record["dur"] = max(0, int(event.value))
            record["args"]["value"] = event.value
        else:
            record["ph"] = "i"
            record["s"] = "t"
        records.append(record)
    return {"traceEvents": records, "displayTimeUnit": "ns"}


def write_chrome_trace(
    events: Sequence[TraceEvent], path: str | pathlib.Path
) -> int:
    """Write the Chrome trace JSON; returns the number of events exported."""
    document = to_chrome_trace(events)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return len(events)
