"""Reporting structures shared by the figure-regeneration harness."""

from __future__ import annotations

from dataclasses import dataclass, field

#: Claim scales, smallest first: a ``quick`` claim holds at the registry's
#: quick kwargs, a ``full`` claim only at the figure function's defaults.
QUICK = "quick"
FULL = "full"


@dataclass(frozen=True)
class Row:
    """One row/series point of a regenerated figure."""

    label: str
    measured: float | str
    paper: float | str | None = None
    unit: str = ""


@dataclass(frozen=True)
class Claim:
    """One shape claim a figure makes about its own rows.

    ``holds`` is what the claim evaluated to on this run; ``scale`` is the
    smallest scale (``QUICK`` or ``FULL``) at which it must hold.
    """

    name: str
    holds: bool
    scale: str = QUICK


@dataclass
class FigureResult:
    """A regenerated table/figure with paper-vs-measured rows and claims."""

    figure: str
    title: str
    rows: list[Row] = field(default_factory=list)
    notes: str = ""
    claims: list[Claim] = field(default_factory=list)

    def add(
        self,
        label: str,
        measured: float | str,
        paper: float | str | None = None,
        unit: str = "",
    ) -> None:
        self.rows.append(Row(label=label, measured=measured, paper=paper, unit=unit))

    def claim(self, name: str, holds: object, scale: str = QUICK) -> None:
        """Record a shape claim; ``holds`` is stored as a plain ``bool``
        (a numpy bool would not round-trip through the campaign DB)."""
        self.claims.append(Claim(name=name, holds=bool(holds), scale=scale))

    def broken_claims(self, scale: str) -> list[Claim]:
        """Claims that must hold at ``scale`` but did not on this run."""
        gated = (QUICK,) if scale == QUICK else (QUICK, FULL)
        return [c for c in self.claims if c.scale in gated and not c.holds]

    def row(self, label: str) -> Row:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(f"no row labelled {label!r} in {self.figure}")


def _fmt(value: float | str | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_result(result: FigureResult) -> str:
    """Render a FigureResult as an aligned paper-vs-measured table,
    followed by one line per claim."""
    header = f"== {result.figure}: {result.title} =="
    label_width = max([len(r.label) for r in result.rows] + [5])
    lines = [header, f"{'series':<{label_width}}  {'measured':>14}  {'paper':>14}  unit"]
    for row in result.rows:
        lines.append(
            f"{row.label:<{label_width}}  {_fmt(row.measured):>14}  "
            f"{_fmt(row.paper):>14}  {row.unit}"
        )
    if result.notes:
        lines.append(f"note: {result.notes}")
    for claim in result.claims:
        verdict = "ok" if claim.holds else "FAIL"
        lines.append(f"claim {verdict:<4} [{claim.scale}] {claim.name}")
    return "\n".join(lines)
