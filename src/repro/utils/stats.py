"""Statistics helpers for latency traces and attack-accuracy reporting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-style summary of a latency sample."""

    count: int
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float
    mean: float

    def __str__(self) -> str:
        return (
            f"n={self.count} min={self.minimum:.0f} p25={self.p25:.0f} "
            f"med={self.median:.0f} p75={self.p75:.0f} max={self.maximum:.0f} "
            f"mean={self.mean:.1f}"
        )


def _percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile over an already-sorted sample."""
    if not sorted_values:
        raise ValueError("cannot take percentile of an empty sample")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = fraction * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return float(sorted_values[low] * (1 - weight) + sorted_values[high] * weight)


def summarize(values: Iterable[float]) -> DistributionSummary:
    """Summarize a sample of latencies (or any scalar observations)."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cannot summarize an empty sample")
    return DistributionSummary(
        count=len(data),
        minimum=data[0],
        p25=_percentile(data, 0.25),
        median=_percentile(data, 0.50),
        p75=_percentile(data, 0.75),
        maximum=data[-1],
        mean=sum(data) / len(data),
    )


def accuracy(predicted: Sequence[object], actual: Sequence[object]) -> float:
    """Fraction of positions where ``predicted`` matches ``actual``.

    The sequences are compared positionally over the shorter length;
    missing trailing predictions count as errors, matching how the paper
    scores truncated covert-channel receptions.
    """
    if not actual:
        raise ValueError(
            "accuracy over an empty reference sequence is undefined: "
            "nothing was sent, so there is nothing to score against"
        )
    matched = sum(1 for p, a in zip(predicted, actual) if p == a)
    return matched / len(actual)


def edit_distance(a: Sequence[object], b: Sequence[object]) -> int:
    """Levenshtein distance (insert/delete/substitute each cost 1)."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, item_a in enumerate(a, start=1):
        current = [i]
        for j, item_b in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (item_a != item_b),
                )
            )
        previous = current
    return previous[-1]


def aligned_accuracy(predicted: Sequence[object], actual: Sequence[object]) -> float:
    """Alignment-tolerant accuracy: 1 - edit_distance / len(actual).

    The right score for recovered secret streams (exponent bits, operation
    sequences) where one misclassification inserts or deletes a symbol: a
    single local error should cost one symbol, not desynchronise the whole
    positional comparison.
    """
    if not actual:
        raise ValueError("actual sequence must be non-empty")
    distance = edit_distance(predicted, actual)
    return max(0.0, 1.0 - distance / len(actual))


def ks_statistic(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Supremum distance between the empirical CDFs of two non-empty
    samples, each already sorted ascending.

    A merge over both samples: after each step ``i/n - j/m`` is the CDF
    gap just past the values consumed so far.  A tied value steps both
    CDFs past every copy before comparing, otherwise ties would
    manufacture a spurious gap.
    """
    n, m = len(xs), len(ys)
    i = j = 0
    d = 0.0
    while i < n and j < m:
        x = xs[i]
        y = ys[j]
        if x < y:
            i += 1
        elif y < x:
            j += 1
        else:
            i += 1
            j += 1
            while i < n and xs[i] == x:
                i += 1
            while j < m and ys[j] == x:
                j += 1
        gap = abs(i / n - j / m)
        if gap > d:
            d = gap
    return d


def ks_pvalue(n: int, m: int, d: float) -> float:
    """Asymptotic Kolmogorov p-value of KS statistic ``d`` for sample
    sizes ``n`` and ``m``."""
    en = math.sqrt(n * m / (n + m))
    lam = (en + 0.12 + 0.11 / en) * d
    if lam <= 0:
        return 1.0
    # Alternating series; terms decay like exp(-2 k^2 lam^2).
    total = 0.0
    sign = 1.0
    for k in range(1, 101):
        term = sign * 2.0 * math.exp(-2.0 * (k * lam) ** 2)
        total += term
        if abs(term) < 1e-10:
            break
        sign = -sign
    return min(1.0, max(0.0, total))
