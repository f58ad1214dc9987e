"""Trace exporters: JSONL (lossless round-trip) and Chrome ``trace_event``.

The JSONL form is one event per line and reads back into identical
:class:`~repro.trace.events.TraceEvent` objects.  The Chrome form follows
the ``trace_event`` JSON schema (https://ui.perfetto.dev loads it
directly): each component becomes a named "process", each core a thread,
events with a ``value`` become complete ("X") slices whose duration is the
value, and the rest become instants — so a metadata-cache miss and its
tree walk appear as nested slices on the issuing core's track.
"""

from __future__ import annotations

import json
import pathlib
from typing import Iterable, Sequence

from repro.trace.events import TraceEvent


def write_jsonl(events: Iterable[TraceEvent], path: str | pathlib.Path) -> int:
    """Write one JSON object per event; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), separators=(",", ":")))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: str | pathlib.Path) -> list[TraceEvent]:
    """Read a JSONL trace back into event objects (inverse of write)."""
    events: list[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: not a JSON event line"
                ) from exc
            try:
                events.append(TraceEvent.from_dict(payload))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line_number}: {exc}") from exc
    return events


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
