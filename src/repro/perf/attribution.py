"""Cycle attribution: where every simulated access's latency went.

A :class:`CycleAttributor` attaches to a :class:`~repro.proc.processor.
SecureProcessor` via ``proc.attach(attributor)``.  While attached,
every software-visible operation (read, write, write-through, flush,
drain fence) reports a per-component latency breakdown built at the points
where the simulator composes latencies — the data-cache hierarchy, the MEE
read path and the memory controller — so the attribution is exact by
construction rather than reconstructed from trace timestamps.

**Conservation guarantee.** For every recorded access,
``sum(parts.values()) == latency`` (the access's pre-jitter end-to-end
latency).  The attributor enforces this at record time and raises
:class:`AttributionError` on violation, so the invariant is load-bearing:
a component model change that leaks or double-counts cycles fails loudly.

Overlapped work is handled explicitly: the MEE fetches data and metadata
concurrently and the slower side defines the critical path.  Only the
critical side's components are attributed; the hidden side's cycles are
tallied separately as *shadowed* so reports can still show them (they are
real DRAM work, just not visible in the end-to-end latency).

Component keys are dotted paths (``meta.tree.l2.fetch``, ``dram.queue``)
that double as flamegraph frames in the collapsed-stack export.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Mapping

from repro.proc.paths import AccessPath


class AttributionError(ValueError):
    """The conservation invariant was violated for one access."""


@dataclass
class PathProfile:
    """Aggregated attribution for one (operation, access-path) bucket."""

    op: str
    path: str | None
    count: int = 0
    cycles: int = 0
    parts: dict[str, int] = field(default_factory=dict)
    shadowed: dict[str, int] = field(default_factory=dict)

    @property
    def mean_latency(self) -> float:
        return self.cycles / self.count if self.count else 0.0

    def _absorb(self, latency: int, parts: Mapping[str, int],
                shadowed: Mapping[str, int]) -> None:
        self.count += 1
        self.cycles += latency
        for key, value in parts.items():
            self.parts[key] = self.parts.get(key, 0) + value
        for key, value in shadowed.items():
            self.shadowed[key] = self.shadowed.get(key, 0) + value


class CycleAttributor:
    """Aggregates per-access latency breakdowns with exact conservation.

    Only the per-(op, path) aggregates are kept.  A single access's
    breakdown is its own :attr:`AccessResult.breakdown
    <repro.proc.processor.AccessResult.breakdown>`.
    """

    #: Component-graph slot this instrument occupies (``repro.core``).
    instrument_slot = "profiler"

    def __init__(self) -> None:
        self.accesses = 0
        self.cycles = 0
        self._profiles: dict[tuple[str, str | None], PathProfile] = {}

    # -- recording (called by the processor) -------------------------------

    def on_access(
        self,
        *,
        op: str,
        path: AccessPath | None,
        core: int,
        addr: int | None,
        cycle: int,
        latency: int,
        parts: Mapping[str, int],
        shadowed: Mapping[str, int] | None = None,
    ) -> None:
        """Record one attributed access; enforces conservation."""
        attributed = sum(parts.values())
        if attributed != latency:
            raise AttributionError(
                f"{op} at cycle {cycle}: attributed {attributed} cycles "
                f"!= end-to-end {latency} (parts={dict(parts)})"
            )
        shadowed = shadowed or {}
        path_name = path.name if path is not None else None
        self.accesses += 1
        self.cycles += latency
        profile = self._profiles.get((op, path_name))
        if profile is None:
            profile = PathProfile(op=op, path=path_name)
            self._profiles[(op, path_name)] = profile
        profile._absorb(latency, parts, shadowed)

    # -- aggregate views ---------------------------------------------------

    def profiles(self) -> list[PathProfile]:
        """Per-(op, path) aggregates, busiest (most cycles) first."""
        return sorted(
            self._profiles.values(), key=lambda p: p.cycles, reverse=True
        )

    def component_totals(self) -> dict[str, int]:
        """Attributed cycles per component, summed over all accesses."""
        totals: dict[str, int] = {}
        for profile in self._profiles.values():
            for key, value in profile.parts.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def verify(self) -> None:
        """Re-check conservation over the aggregates; raises on violation."""
        for profile in self._profiles.values():
            attributed = sum(profile.parts.values())
            if attributed != profile.cycles:
                raise AttributionError(
                    f"profile ({profile.op}, {profile.path}): aggregated "
                    f"{attributed} != end-to-end {profile.cycles}"
                )
        if sum(p.cycles for p in self._profiles.values()) != self.cycles:
            raise AttributionError("profile cycle totals drifted from global")

    # -- reports -----------------------------------------------------------

    def report(self, *, min_share: float = 0.0) -> str:
        """Hierarchical text report: per path, a component tree with shares.

        ``min_share`` hides components below that fraction of the bucket's
        cycles (0 shows everything).
        """
        lines = [
            f"cycle attribution: {self.accesses} accesses, "
            f"{self.cycles} cycles (conserved)"
        ]
        for profile in self.profiles():
            label = profile.path or "-"
            if profile.path:
                label = f"{label} ({AccessPath[profile.path].paper_name})"
            lines.append(
                f"\n{profile.op} / {label}: count={profile.count} "
                f"mean={profile.mean_latency:.1f} total={profile.cycles}"
            )
            lines.extend(
                _render_tree(profile.parts, profile.cycles, min_share)
            )
            hidden = sum(profile.shadowed.values())
            if hidden:
                pieces = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(profile.shadowed.items())
                )
                lines.append(f"    [shadowed, off critical path: {pieces}]")
        return "\n".join(lines)

    # -- flamegraph export -------------------------------------------------

    def collapsed_stacks(self, *, include_shadowed: bool = False) -> list[str]:
        """Collapsed-stack lines (``frame;frame;... cycles``).

        The format is what ``flamegraph.pl`` / speedscope / inferno
        consume: one line per unique stack, semicolon-separated frames,
        trailing sample count (here: cycles).  Stacks are
        ``op;<path>;component...`` with dotted components split into
        frames, so a tree walk shows up as nested ``meta → tree → l2``
        frames whose widths are the attributed cycles.
        """
        stacks: dict[str, int] = {}
        for profile in self._profiles.values():
            base = profile.op if profile.path is None else (
                f"{profile.op};{profile.path}"
            )
            for key, value in profile.parts.items():
                frames = f"{base};" + ";".join(key.split("."))
                stacks[frames] = stacks.get(frames, 0) + value
            if include_shadowed:
                for key, value in profile.shadowed.items():
                    frames = f"{base};[shadowed];" + ";".join(key.split("."))
                    stacks[frames] = stacks.get(frames, 0) + value
        return [f"{frames} {value}" for frames, value in sorted(stacks.items())]

    def write_collapsed(self, path: str | pathlib.Path) -> int:
        """Write the collapsed-stack export; returns the number of lines."""
        lines = self.collapsed_stacks()
        pathlib.Path(path).write_text("\n".join(lines) + "\n")
        return len(lines)


def _render_tree(
    parts: Mapping[str, int], total: int, min_share: float
) -> list[str]:
    """Render dotted component keys as an indented tree with shares."""
    # Build the nested structure: every prefix accumulates its subtree sum.
    tree: dict[str, dict] = {}
    for key, value in parts.items():
        node = tree
        frames = key.split(".")
        for frame in frames:
            entry = node.setdefault(frame, {"cycles": 0, "children": {}})
            entry["cycles"] += value
            node = entry["children"]
    lines: list[str] = []

    def emit(node: dict[str, dict], depth: int) -> None:
        ordered = sorted(
            node.items(), key=lambda item: item[1]["cycles"], reverse=True
        )
        for frame, entry in ordered:
            share = entry["cycles"] / total if total else 0.0
            if share < min_share:
                continue
            lines.append(
                f"    {'  ' * depth}{frame:<{24 - 2 * depth}} "
                f"{entry['cycles']:>10}  {share:6.1%}"
            )
            emit(entry["children"], depth + 1)

    emit(tree, 0)
    return lines
