"""Campaign-scale fuzz driver: fan generated programs through the oracle.

One fuzz batch is ``budget`` generated programs evaluated as campaign
tasks: crash-isolated across ``--jobs`` workers, retried with backoff,
cached by config hash (a re-run of the same seed range is served from
the campaign DB without executing), and folded into the persistent
corpus as results land.  The driver itself stays deterministic — task
identity is the generated program, and generation is a pure function of
the seed — so a serial batch and a sharded batch discover the same
programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.campaign.engine import CampaignEngine, CampaignTask
from repro.campaign.records import TaskRecord
from repro.synth.corpus import Corpus
from repro.synth.gen import GenConfig, generate_batch
from repro.synth.ir import Program
from repro.synth.runner import (
    DEFENSES,
    TARGETS,
    SynthResult,
    evaluate_program,
    target_names,
)


def task_name(preset: str, defense: str, gen_seed: int) -> str:
    """Campaign task name shared by CLI, service, and bench callers."""
    return f"synth_{preset}_{defense}_g{gen_seed}"


def build_fuzz_tasks(
    *,
    preset: str = "sct",
    defense: str = "none",
    budget: int = 32,
    seed: int = 0,
    alpha: float = 0.01,
    gen: GenConfig | None = None,
) -> list[CampaignTask]:
    """The campaign tasks of one fuzz batch (deterministic in ``seed``)."""
    if defense not in DEFENSES:
        raise ValueError(
            f"unknown synth defense {defense!r}; choose from {list(DEFENSES)}"
        )
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
    corpus: Corpus | None = None,
    on_record: Callable[[TaskRecord], None] | None = None,
) -> FuzzReport:
    """Run one fuzz batch through the campaign engine and classify it."""
    if budget < 1:
        raise ValueError(f"fuzz budget must be positive, got {budget}")
    tasks = build_fuzz_tasks(
        preset=preset, defense=defense, budget=budget, seed=seed,
        alpha=alpha, gen=gen,
    )
    if engine is None:
        engine = CampaignEngine(jobs=1)
    report = FuzzReport(
        preset=preset, defense=defense, seed=seed, budget=budget
    )
    batch = engine.run(tasks, on_record=on_record)
    for record in batch.records:
        if not record.ok or not isinstance(record.result, SynthResult):
            report.failed += 1
            report.errors.append(f"{record.name}: {record.status}: "
                                 f"{record.error}")
            continue
        result = record.result
        report.evaluated += 1
        report.results.append(result)
        if corpus is not None:
            if corpus.add(result):
                report.new_in_corpus += 1
        if not result.leaky:
            continue
        report.leaky += 1
        if result.metadata_leaky:
            report.metadata_leaky += 1
        for component, kind in result.channels:
            key = f"{component}/{kind}"
            report.coverage[key] = report.coverage.get(key, 0) + 1
    return report
