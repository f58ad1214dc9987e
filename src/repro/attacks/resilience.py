"""Calibration quality scoring and per-observation confidence.

A threshold that silently stops separating the fast and slow reload
bands makes every attack above it emit confident garbage.  This module
gives every monitor two things:

* :func:`score_calibration` — a threshold at the midpoint of the two
  calibration bands, and a quality score over them.  Degenerate
  calibrations (inverted bands) score 0 instead of producing a
  meaningless threshold, and every reload scored against such a
  calibration reports zero confidence;
* :class:`Calibration.confidence` — per-observation confidence from the
  latency's margin to the threshold, scaled by the calibration quality,
  so downstream decoders can carry honest per-bit confidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

#: Calibrations scoring below this are considered unusable (degraded).
MIN_CALIBRATION_QUALITY = 0.25


@dataclass(frozen=True)
class BandStats:
    """Mean/spread summary of one calibration latency band."""

    mean: float
    spread: float  # population standard deviation
    count: int

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "BandStats":
        if not samples:
            raise ValueError("cannot summarise an empty calibration band")
        values = [float(v) for v in samples]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        return cls(mean=mean, spread=variance**0.5, count=len(values))


@dataclass(frozen=True)
class Calibration:
    """A scored threshold between a fast and a slow latency band."""

    threshold: float
    fast: BandStats
    slow: BandStats
    quality: float  # 0 (degenerate) .. 1 (clean separation)

    @property
    def separation(self) -> float:
        return self.slow.mean - self.fast.mean

    @property
    def ok(self) -> bool:
        return self.quality >= MIN_CALIBRATION_QUALITY

    def confidence(self, latency: float) -> float:
        """Confidence in classifying one reload latency, in [0, 1].

        Margin to the threshold in units of half the band separation,
        scaled by the calibration quality: a perfectly separated pair of
        bands yields confidence ~1 for on-band observations, while a
        degenerate calibration yields 0 no matter how decisive the
        latency looks — certainty against a broken ruler is fabricated.
        """
        if self.quality <= 0.0:
            return 0.0
        scale = max(1.0, self.separation / 2)
        margin = min(1.0, abs(float(latency) - self.threshold) / scale)
        return margin * min(1.0, self.quality)


def score_calibration(
    fast_samples: Sequence[float], slow_samples: Sequence[float]
) -> Calibration:
    """Score a (fast, slow) calibration sample pair.

    The threshold is the midpoint of the band means (the symmetric-margin
    choice the monitors make).  Quality components:

    * ordering — the slow band must actually be slower, with the
      threshold strictly between the band means;
    * separation — band distance relative to the within-band spreads;
    * leakage — calibration samples already falling on the wrong side of
      the threshold are evidence of overlap and discount the score.
    """
    fast = BandStats.from_samples(fast_samples)
    slow = BandStats.from_samples(slow_samples)
    threshold = (fast.mean + slow.mean) / 2

    if not fast.mean < threshold < slow.mean:
        return Calibration(threshold=threshold, fast=fast, slow=slow, quality=0.0)

    separation = slow.mean - fast.mean
    spread = fast.spread + slow.spread
    separation_quality = separation / (separation + 2 * spread + 1e-9)
    misclassified = sum(1 for v in fast_samples if float(v) >= threshold) + sum(
        1 for v in slow_samples if float(v) < threshold
    )
    leak_rate = misclassified / (fast.count + slow.count)
    quality = separation_quality * max(0.0, 1.0 - 2.0 * leak_rate)
    return Calibration(threshold=threshold, fast=fast, slow=slow, quality=quality)


def mean_confidence(confidences: Iterable[float]) -> float:
    """Mean of a confidence sequence; 0.0 for an empty one."""
    values = list(confidences)
    if not values:
        return 0.0
    return sum(values) / len(values)
