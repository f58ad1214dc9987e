"""Campaign-scale fuzz driver and the corpus it leaves in the campaign DB.

One fuzz batch is ``budget`` generated programs evaluated as campaign
tasks: crash-isolated across ``--jobs`` workers, retried with backoff,
cached by config hash (a re-run of the same seed range is served from
the campaign DB without executing).  The driver itself stays
deterministic — task identity is the generated program, and generation
is a pure function of the seed — so a serial batch and a sharded batch
discover the same programs.

The engine records every evaluated :class:`SynthResult` as the payload
of an ``ok`` run named :func:`task_name`, whether ``repro synth run`` or
a service ``synth`` job ran it.  The corpus is a read of those rows
(:func:`read_corpus`), not a second store: the leaking programs, one
per (program, preset, defense), smallest first.  Coverage, the
``synth corpus`` summary and the minimizer's pick all derive from it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.campaign.db import CampaignDB
from repro.campaign.engine import CampaignEngine, CampaignTask
from repro.campaign.payload import PayloadError, decode_payload
from repro.campaign.records import STATUS_OK
from repro.synth.gen import GenConfig, generate_batch
from repro.synth.ir import Program, program_to_json
from repro.synth.runner import (
    TARGETS,
    SynthResult,
    evaluate_program,
    synth_config,
    target_names,
)

#: Name prefix of every synth campaign task; the corpus read selects
#: the campaign DB's synth runs by it.
TASK_PREFIX = "synth_"


def task_name(preset: str, defense: str, gen_seed: int) -> str:
    """Campaign task name shared by the CLI and service callers."""
    return f"{TASK_PREFIX}{preset}_{defense}_g{gen_seed}"


def corpus_key(program: Program, preset: str, defense: str) -> str:
    """Stable identity of (program content, machine)."""
    material = "\x1f".join((program_to_json(program), preset, defense))
    return hashlib.blake2b(material.encode(), digest_size=16).hexdigest()


def build_fuzz_tasks(
    *,
    preset: str = "sct",
    defense: str = "none",
    budget: int = 32,
    seed: int = 0,
    alpha: float = 0.01,
    gen: GenConfig | None = None,
) -> list[CampaignTask]:
    """The campaign tasks of one fuzz batch (deterministic in ``seed``).

    Raises :class:`ValueError` naming the valid choices for an unknown
    preset or defense, before any task is built.
    """
    synth_config(preset, defense)
    return [
        CampaignTask(
            name=task_name(preset, defense, gen_seed),
            fn=evaluate_program,
            kwargs={
                "program": program,
                "preset": preset,
                "defense": defense,
                "alpha": alpha,
                "gen_seed": gen_seed,
            },
        )
        for gen_seed, program in generate_batch(seed, budget, gen)
    ]


@dataclass
class FuzzReport:
    """Outcome of one fuzz batch."""

    preset: str
    defense: str
    seed: int
    budget: int
    evaluated: int = 0
    failed: int = 0
    leaky: int = 0
    metadata_leaky: int = 0
    # Leaking (program, preset, defense) keys the campaign DB's corpus
    # did not hold before the batch; 0 without a DB.
    new_in_corpus: int = 0
    # "component/kind" -> leaking-program count, batch-local.
    coverage: dict[str, int] = field(default_factory=dict)
    results: list[SynthResult] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def target_hits(self, target: str) -> int:
        components = TARGETS[target]
        return sum(
            1 for result in self.results if result.hits(components)
        )

    def summary_lines(self) -> list[str]:
        lines = [
            f"synth: preset={self.preset} defense={self.defense} "
            f"seed={self.seed} budget={self.budget} -> "
            f"{self.leaky} leaky ({self.metadata_leaky} metadata) / "
            f"{self.evaluated} evaluated, {self.failed} failed, "
            f"{self.new_in_corpus} new in corpus"
        ]
        for name in target_names():
            if not TARGETS[name]:
                continue
            hits = self.target_hits(name)
            marker = "HIT " if hits else "miss"
            lines.append(f"  target {name:<12} {marker} ({hits} program(s))")
        for channel in sorted(self.coverage):
            lines.append(f"  channel {channel:<28} {self.coverage[channel]:>4}")
        return lines


def run_fuzz(
    *,
    preset: str = "sct",
    defense: str = "none",
    budget: int = 32,
    seed: int = 0,
    alpha: float = 0.01,
    gen: GenConfig | None = None,
    engine: CampaignEngine | None = None,
) -> FuzzReport:
    """Run one fuzz batch through the campaign engine and classify it.

    The engine records every result in its campaign DB, if it has one;
    ``new_in_corpus`` counts the batch's leaking programs that the DB's
    corpus did not hold before the batch.
    """
    if budget < 1:
        raise ValueError(f"fuzz budget must be positive, got {budget}")
    tasks = build_fuzz_tasks(
        preset=preset, defense=defense, budget=budget, seed=seed,
        alpha=alpha, gen=gen,
    )
    if engine is None:
        engine = CampaignEngine(jobs=1)
    known = (
        read_corpus(engine.db, preset=preset, defense=defense).entries
        if engine.db is not None else None
    )
    report = FuzzReport(
        preset=preset, defense=defense, seed=seed, budget=budget
    )
    batch = engine.run(tasks)
    for record in batch.records:
        if not record.ok or not isinstance(record.result, SynthResult):
            report.failed += 1
            report.errors.append(f"{record.name}: {record.status}: "
                                 f"{record.error}")
            continue
        result = record.result
        report.evaluated += 1
        report.results.append(result)
        if not result.leaky:
            continue
        report.leaky += 1
        if result.metadata_leaky:
            report.metadata_leaky += 1
        for component, kind in result.channels:
            key = f"{component}/{kind}"
            report.coverage[key] = report.coverage.get(key, 0) + 1
    if known is not None:
        found = {
            corpus_key(result.program, preset, defense)
            for result in report.results if result.leaky
        }
        report.new_in_corpus = len(found.difference(known))
    return report


@dataclass(frozen=True)
class CorpusReport:
    """The leaking programs among the synth results a campaign DB holds."""

    #: :func:`corpus_key` -> the latest leaking result recorded for it,
    #: smallest program first, ties broken by generator seed.
    entries: dict[str, SynthResult]
    #: Distinct task configurations among the ``ok`` synth runs read.
    evaluated: int

    def best_for(self, components: frozenset[str]) -> SynthResult | None:
        """Smallest program whose channels hit ``components``."""
        return next(
            (e for e in self.entries.values() if e.hits(components)), None
        )

    def coverage(self) -> dict[tuple[str, str], int]:
        """Programs per flagged (component, kind) channel."""
        tally: dict[tuple[str, str], int] = {}
        for entry in self.entries.values():
            for channel in entry.channels:
                tally[channel] = tally.get(channel, 0) + 1
        return tally

    def summary_lines(self, source: str) -> list[str]:
        lines = [
            f"corpus: {len(self.entries)} leaking program(s) from "
            f"{self.evaluated} evaluated ({source})"
        ]
        coverage = self.coverage()
        for (component, kind) in sorted(coverage):
            lines.append(
                f"  {component:<10} {kind:<18} {coverage[(component, kind)]:>4}"
            )
        return lines


def read_corpus(
    db: CampaignDB,
    *,
    preset: str | None = None,
    defense: str | None = None,
) -> CorpusReport:
    """The corpus of ``db``'s synth runs, optionally for one machine.

    Decodes each ``ok`` synth run once, and skips a run whose payload
    no longer decodes.
    """
    evaluated: set[str] = set()
    leaky: dict[str, SynthResult] = {}
    for row in db.runs(name_prefix=TASK_PREFIX):
        if row.status != STATUS_OK:
            continue
        try:
            result = decode_payload(row.payload or "")
        except PayloadError:
            continue
        if not isinstance(result, SynthResult):
            continue
        if preset is not None and result.preset != preset:
            continue
        if defense is not None and result.defense != defense:
            continue
        evaluated.add(row.config_hash)
        if result.leaky:
            key = corpus_key(result.program, result.preset, result.defense)
            leaky[key] = result
    entries = sorted(
        leaky.items(),
        key=lambda item: (len(item[1].program.ops), item[1].gen_seed),
    )
    return CorpusReport(entries=dict(entries), evaluated=len(evaluated))
