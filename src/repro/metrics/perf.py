"""Performance summary metrics used by the experiment drivers."""

from __future__ import annotations

import math
from typing import Sequence

from repro.sim.stats import geometric_mean


def system_throughput(multi_ipcs: Sequence[float],
                      alone_ipcs: Sequence[float]) -> float:
    """STP for multi-program runs (Eyerman & Eeckhout [52], Figure 15):
    ``STP = sum_i IPC_i(together) / IPC_i(alone)``."""
    if len(multi_ipcs) != len(alone_ipcs) or not multi_ipcs:
        raise ValueError("need matching, non-empty IPC vectors")
    stp = 0.0
    for together, alone in zip(multi_ipcs, alone_ipcs):
        if alone <= 0:
            raise ValueError("alone IPC must be positive")
        stp += together / alone
    return stp


def geomean_speedup(speedups: Sequence[float]) -> float:
    """Geometric-mean summary of per-point speedups.

    Drops non-finite entries first — NaN (drivers stash NaN in summary-row
    slots) *and* ±inf (a zero-IPC baseline produces an infinite ratio that
    would otherwise poison the whole geomean) — so trend checks can feed
    whole row columns without pre-filtering.

    Args:
        speedups: per-benchmark or per-config speedup ratios.

    Returns:
        The geometric mean of the finite entries.

    Raises:
        ValueError: if no finite entries remain.
    """
    finite = [s for s in speedups if math.isfinite(s)]
    if not finite:
        raise ValueError("geomean_speedup needs at least one finite value")
    return geometric_mean(finite)
