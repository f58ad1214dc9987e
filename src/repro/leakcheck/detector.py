"""Automated metadata-leakage detection over paired traces.

The detector is a leakage-contract checker: run a victim twice under
paired secrets with identical public inputs, on identically configured
deterministic machines, and diff the two metadata event streams.  Any
per-event-kind difference — in event *count*, or in the distribution of
event values, addresses or inter-arrival times — is attributable to the
secret, because nothing else differed between the runs.

This rediscovers both MetaLeak channels from traces alone:

* MetaLeak-T signals show up as count/value differences in the
  ``mee``/``tree`` kinds (counter misses, tree-walk depths, node loads);
* MetaLeak-C signals show up in ``memctrl``/``dram`` kinds (write-queue
  enqueues, drains, bank addresses of serviced writes).

Determinism (zero timer jitter, which is the config default) means a
constant-time victim produces *identical* streams, so the clean verdict
is exact rather than statistical.

:func:`run_leakcheck` reports every statistic of every stream.  The fuzz
oracle needs only which streams are flagged, so :func:`leak_verdict`
applies the same flag rule (:func:`_reasons`) and stops at each
stream's first reason.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from operator import is_not, sub
from typing import Iterator

from repro import obs
from repro.config import SecureProcessorConfig
from repro.leakcheck.victims import VictimSpec, get_victim
from repro.proc.processor import SecureProcessor
from repro.trace.events import TraceRecord, Tracer
from repro.utils.stats import ks_pvalue, ks_statistic

# Below this many events per side, KS p-values are too coarse to trust;
# count mismatches still flag regardless of sample size.
_MIN_KS_SAMPLES = 8

#: The KS-tested sample dimensions of an event stream, in report order.
_DIMENSIONS = ("value", "addr", "interarrival")
_not_none = partial(is_not, None)


@dataclass
class KindFinding:
    """Divergence evidence for one (component, kind) event stream."""

    component: str
    kind: str
    count_a: int
    count_b: int
    flagged: bool = False
    reasons: list[str] = field(default_factory=list)
    # test name -> {"statistic": ..., "pvalue": ...}
    tests: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "component": self.component,
            "kind": self.kind,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "flagged": self.flagged,
            "reasons": list(self.reasons),
            "tests": {name: dict(res) for name, res in self.tests.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "KindFinding":
        return cls(
            component=str(data["component"]),
            kind=str(data["kind"]),
            count_a=int(data["count_a"]),
            count_b=int(data["count_b"]),
            flagged=bool(data["flagged"]),
            reasons=[str(r) for r in data.get("reasons", [])],
            tests={
                str(name): {str(k): float(v) for k, v in res.items()}
                for name, res in dict(data.get("tests", {})).items()
            },
        )


@dataclass
class LeakReport:
    """The detector's verdict for one victim/seed pair."""

    victim: str
    seed: int
    alpha: float
    events_a: int
    events_b: int
    dropped_a: int
    dropped_b: int
    findings: list[KindFinding] = field(default_factory=list)

    @property
    def leaky(self) -> bool:
        return any(finding.flagged for finding in self.findings)

    @property
    def flagged_findings(self) -> list[KindFinding]:
        return [finding for finding in self.findings if finding.flagged]

    def to_dict(self) -> dict[str, object]:
        return {
            "victim": self.victim,
            "seed": self.seed,
            "alpha": self.alpha,
            "events_a": self.events_a,
            "events_b": self.events_b,
            "dropped_a": self.dropped_a,
            "dropped_b": self.dropped_b,
            "leaky": self.leaky,
            "findings": [finding.to_dict() for finding in self.findings],
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "LeakReport":
        return cls(
            victim=str(data["victim"]),
            seed=int(data["seed"]),
            alpha=float(data["alpha"]),
            events_a=int(data["events_a"]),
            events_b=int(data["events_b"]),
            dropped_a=int(data["dropped_a"]),
            dropped_b=int(data["dropped_b"]),
            findings=[
                KindFinding.from_dict(item) for item in data.get("findings", [])
            ],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LeakReport":
        return cls.from_dict(json.loads(text))

    def summary_lines(self) -> list[str]:
        verdict = "LEAKY" if self.leaky else "clean"
        lines = [
            f"leakcheck: victim={self.victim} seed={self.seed} "
            f"alpha={self.alpha} -> {verdict}",
            f"  events: {self.events_a} vs {self.events_b} "
            f"(dropped {self.dropped_a}/{self.dropped_b})",
        ]
        for finding in self.flagged_findings:
            lines.append(
                f"  {finding.component}/{finding.kind}: "
                f"n={finding.count_a} vs {finding.count_b} "
                f"[{', '.join(finding.reasons)}]"
            )
        return lines


def _collect_trace(
    spec: VictimSpec,
    secret: object,
    *,
    config: SecureProcessorConfig,
    capacity: int,
) -> tuple[dict[tuple[str, str], list[TraceRecord]], int, int]:
    """One traced run: its per-kind streams, event count and drop count."""
    proc = SecureProcessor(config)
    tracer = Tracer(capacity=capacity)
    proc.attach(tracer)
    spec.run(proc, secret)
    return tracer.streams(), len(tracer), tracer.dropped


@contextmanager
def _traced_pair(
    spec: VictimSpec,
    seed: int,
    *,
    config: SecureProcessorConfig,
    capacity: int,
) -> Iterator[tuple[obs.Span, list[tuple], int, int]]:
    """Trace ``spec`` under both of its paired secrets inside one
    ``oracle.leakcheck`` span.

    Yields the span; (component, kind, first run's events, second run's
    events) for every stream either run emitted, in sorted order; and
    each run's event count.  The caller compares the streams inside the
    block and sets the span's ``leaky`` and ``events`` attributes.
    Raises ``ValueError`` on a truncated run (see :func:`run_leakcheck`).
    """
    with obs.start_span(
        "oracle.leakcheck", kind="oracle.leakcheck",
        attrs={"victim": spec.name, "seed": seed},
    ) as span:
        secret_a, secret_b = spec.secrets(seed)
        grouped_a, count_a, dropped_a = _collect_trace(
            spec, secret_a, config=config, capacity=capacity
        )
        grouped_b, count_b, dropped_b = _collect_trace(
            spec, secret_b, config=config, capacity=capacity
        )
        if dropped_a or dropped_b:
            raise ValueError(
                f"trace truncated: the capacity={capacity} ring dropped "
                f"{dropped_a} and {dropped_b} events of the paired runs of "
                f"{spec.name!r}; raise capacity to compare whole traces"
            )
        streams = [
            (*key, grouped_a.get(key, []), grouped_b.get(key, []))
            for key in sorted(grouped_a.keys() | grouped_b.keys())
        ]
        yield span, streams, count_a, count_b


def _stream_samples(events: list[TraceRecord]) -> tuple[list[float], ...]:
    """Sorted value, addr and interarrival samples of one event stream.

    Built column by column (``zip(*events)``) with C-level ``filter`` and
    ``map``, in :data:`_DIMENSIONS` order.
    """
    if not events:
        return [], [], []
    cycles, _, _, _, addrs, _, _, values = zip(*events)
    return (
        sorted(map(float, filter(_not_none, values))),
        sorted(map(float, filter(_not_none, addrs))),
        sorted(map(float, map(sub, cycles[1:], cycles))),
    )


def _identical_sample_sizes(events: list[TraceRecord]) -> tuple[int, ...]:
    """Per-dimension sample sizes :func:`_stream_samples` would produce."""
    count = len(events)
    # Positions 7 and 4 of a record are its value and addr.
    return (
        count - [event[7] for event in events].count(None),
        count - [event[4] for event in events].count(None),
        count - 1,
    )


def _ks_results(
    events_a: list[TraceRecord], events_b: list[TraceRecord]
) -> Iterator[tuple[str, float, float]]:
    """(dimension, KS statistic, p-value) for each dimension with enough
    samples on both sides, one dimension at a time."""
    if len(events_a) < _MIN_KS_SAMPLES or len(events_b) < _MIN_KS_SAMPLES:
        # No dimension has more samples than its stream has events.
        return
    if events_a == events_b:
        # Equal streams give equal samples, and the KS test of a sample
        # against itself is exactly statistic 0.0, p-value 1.0: nothing
        # needs building or sorting.
        for dimension, size in zip(
            _DIMENSIONS, _identical_sample_sizes(events_a)
        ):
            if size >= _MIN_KS_SAMPLES:
                yield dimension, 0.0, 1.0
        return
    for dimension, sample_a, sample_b in zip(
        _DIMENSIONS, _stream_samples(events_a), _stream_samples(events_b)
    ):
        if len(sample_a) < _MIN_KS_SAMPLES or len(sample_b) < _MIN_KS_SAMPLES:
            continue
        if sample_a == sample_b:
            # The same exact answer as above, per dimension.
            yield dimension, 0.0, 1.0
            continue
        statistic = ks_statistic(sample_a, sample_b)
        yield dimension, statistic, ks_pvalue(
            len(sample_a), len(sample_b), statistic
        )


def _reasons(
    events_a: list[TraceRecord],
    events_b: list[TraceRecord],
    alpha: float,
    tests: dict[str, dict[str, float]],
) -> Iterator[str]:
    """Why one (component, kind) stream is flagged, lazily, in report order.

    This is the detector's one flag rule: the two runs' event counts
    differ, or a KS test of a dimension has a p-value below ``alpha``.
    A KS test runs only when the sequence is consumed past every reason
    before it, and records its result in ``tests``.
    """
    if len(events_a) != len(events_b):
        yield f"count {len(events_a)} != {len(events_b)}"
    for dimension, statistic, pvalue in _ks_results(events_a, events_b):
        tests[dimension] = {"statistic": statistic, "pvalue": pvalue}
        if pvalue < alpha:
            yield f"{dimension} KS p={pvalue:.3g} < {alpha}"


def _compare_kind(
    component: str,
    kind: str,
    events_a: list[TraceRecord],
    events_b: list[TraceRecord],
    alpha: float,
) -> KindFinding:
    finding = KindFinding(
        component=component,
        kind=kind,
        count_a=len(events_a),
        count_b=len(events_b),
    )
    finding.reasons.extend(_reasons(events_a, events_b, alpha, finding.tests))
    finding.flagged = bool(finding.reasons)
    return finding


def run_leakcheck(
    victim: str | VictimSpec,
    *,
    seed: int = 0,
    alpha: float = 0.01,
    capacity: int = 1 << 18,
    config: SecureProcessorConfig | None = None,
) -> LeakReport:
    """Run the paired-secret experiment and diff the event streams.

    ``victim`` is a registry name (see ``repro.leakcheck.victims``) or a
    user-supplied :class:`VictimSpec`.  The machine defaults to the SCT
    preset with functional crypto off (timing/metadata behaviour is
    unchanged; the detector only reads event streams) and zero timer
    jitter, so the two runs are exactly reproducible.

    Raises ``ValueError`` when either run emits more than ``capacity``
    events: the ring keeps only each run's tail, and equal tails cannot
    certify that the whole runs were equal.
    """
    spec = victim if isinstance(victim, VictimSpec) else get_victim(victim)
    if config is None:
        config = SecureProcessorConfig.sct_default(functional_crypto=False)
    with _traced_pair(spec, seed, config=config, capacity=capacity) as (
        span, streams, count_a, count_b
    ):
        report = LeakReport(
            victim=spec.name,
            seed=seed,
            alpha=alpha,
            events_a=count_a,
            events_b=count_b,
            # _traced_pair raises rather than yield a truncated run.
            dropped_a=0,
            dropped_b=0,
            findings=[
                _compare_kind(component, kind, events_a, events_b, alpha)
                for component, kind, events_a, events_b in streams
            ],
        )
        span.set_many({"leaky": report.leaky, "events": count_a + count_b})
    return report


def leak_verdict(
    spec: VictimSpec,
    *,
    alpha: float,
    capacity: int,
    config: SecureProcessorConfig,
) -> tuple[tuple[tuple[str, str], ...], int]:
    """The flagged (component, kind) streams of :func:`run_leakcheck`'s
    report at seed 0, and both runs' event count added together, without
    the rest of the report.

    Each stream stops at its first reason: one whose counts differ runs
    no KS test, and one with equal counts stops at its first flagging
    dimension.
    """
    with _traced_pair(spec, 0, config=config, capacity=capacity) as (
        span, streams, count_a, count_b
    ):
        channels = tuple(
            (component, kind)
            for component, kind, events_a, events_b in streams
            if next(_reasons(events_a, events_b, alpha, {}), None) is not None
        )
        span.set_many({"leaky": bool(channels), "events": count_a + count_b})
    return channels, count_a + count_b


def build_leakcheck_tasks(
    victim: str, *, seed: int = 0, seeds: int = 1, alpha: float = 0.01
) -> list:
    """The campaign tasks of one leakcheck request, one per seed.

    ``repro leakcheck`` and the service's ``leakcheck`` jobs both build
    their tasks here, so equal requests share task names and kwargs —
    and therefore campaign-cache entries.
    """
    from repro.campaign.engine import CampaignTask

    return [
        CampaignTask(
            name=f"leakcheck_{victim}_s{seed + offset}",
            fn=run_leakcheck,
            kwargs={"victim": victim, "seed": seed + offset, "alpha": float(alpha)},
        )
        for offset in range(seeds)
    ]
