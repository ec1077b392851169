"""Summary means: harmonic (the paper's HM bars) and geometric."""

from __future__ import annotations

from typing import Iterable


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean, the paper's summary statistic (HM bars in Figs. 2/11).

    Returns 0.0 for an empty input; raises on non-positive entries since a
    harmonic mean of speedups is only defined for positive values.
    """
    vals = list(values)
    if not vals:
        return 0.0
    for v in vals:
        if v <= 0:
            raise ValueError(f"harmonic mean requires positive values, got {v}")
    return len(vals) / sum(1.0 / v for v in vals)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; used in sensitivity summaries."""
    vals = list(values)
    if not vals:
        return 0.0
    prod = 1.0
    for v in vals:
        if v <= 0:
            raise ValueError(f"geometric mean requires positive values, got {v}")
        prod *= v
    return prod ** (1.0 / len(vals))
