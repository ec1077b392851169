"""Seeded, deterministic tenant arrival processes.

An arrival process turns ``(n_tenants, seed)`` into a nondecreasing list of
admission times in GPU core cycles, the first always 0.0 (an empty machine
admits its first tenant immediately; the deadlock detector in
:meth:`~repro.gpu.system.GPUSystem.run` also relies on work existing at
time zero).  The runner schedules one admission event per later tenant, so
the same spec + seed reproduces the same simulation byte for byte.

Processes are registered in :data:`ARRIVALS`, one instance of the
component registry LLC policies use (:mod:`repro.analysis.registry`), so
they share its :class:`~repro.analysis.registry.Param` schema and
``NAME[:k=v,...]`` spec grammar:

* ``closed`` — everyone present at time zero (the legacy co-run shape);
* ``poisson`` — memoryless inter-arrival gaps of mean ``gap`` cycles;
* ``diurnal`` — Poisson arrivals whose rate swings sinusoidally with
  period ``period`` and peak-to-trough ratio ``peak``;
* ``bursty`` — tenants land in simultaneous groups of ``burst``,
  groups separated by jittered gaps around ``gap``.

Randomness comes from one :class:`random.Random` seeded per run — Python
pins those algorithms, so the streams are stable across platforms.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional

from repro.analysis.registry import Component, Param, Registry


class ArrivalProcess(Component):
    """Base class for registered arrival processes."""

    KIND = "arrival process"

    def _float(self, key: str) -> float:
        value = self.params[key]
        assert isinstance(value, (int, float))
        return float(value)

    def _int(self, key: str) -> int:
        value = self.params[key]
        assert isinstance(value, int)
        return value

    def times(self, n_tenants: int, rng: random.Random) -> List[float]:
        """Admission time per tenant (nondecreasing, ``times[0] == 0.0``)."""
        raise NotImplementedError


#: Every registered arrival process; an empty spec means ``closed``.
ARRIVALS: Registry[ArrivalProcess] = Registry(ArrivalProcess,
                                              default="closed")
available_arrivals = ARRIVALS.available
create_arrivals = ARRIVALS.from_spec
canonical_arrivals_spec = ARRIVALS.canonical_spec


@ARRIVALS.register
class ClosedArrivals(ArrivalProcess):
    """Everyone present at time zero — the legacy closed-system co-run."""

    NAME = "closed"
    DESCRIPTION = "all tenants admitted at time zero (legacy co-run shape)"

    def times(self, n_tenants: int, rng: random.Random) -> List[float]:
        return [0.0] * n_tenants


@ARRIVALS.register
class PoissonArrivals(ArrivalProcess):
    """Memoryless open-system arrivals with mean inter-arrival ``gap``."""

    NAME = "poisson"
    PARAMS = (
        Param("gap", float, 4000.0,
              "mean inter-arrival gap in core cycles"),
    )
    DESCRIPTION = "exponential inter-arrival gaps of mean `gap` cycles"

    def __init__(self, **params: object) -> None:
        super().__init__(**params)
        gap = self._float("gap")
        if gap <= 0:
            raise ValueError(f"poisson gap must be > 0, got {gap}")

    def times(self, n_tenants: int, rng: random.Random) -> List[float]:
        gap = self._float("gap")
        out = [0.0]
        for _ in range(1, n_tenants):
            out.append(out[-1] + rng.expovariate(1.0 / gap))
        return out


@ARRIVALS.register
class DiurnalArrivals(ArrivalProcess):
    """Poisson arrivals under a sinusoidally swinging rate.

    The instantaneous mean gap at time ``t`` is ``gap / intensity(t)``
    where ``intensity`` swings between ``1`` and ``peak`` with period
    ``period`` — a toy diurnal load curve.
    """

    NAME = "diurnal"
    PARAMS = (
        Param("gap", float, 4000.0,
              "off-peak mean inter-arrival gap in core cycles"),
        Param("period", float, 20000.0,
              "cycles per load-curve period"),
        Param("peak", float, 4.0,
              "peak-to-trough arrival-rate ratio (>= 1)",
              bounds=(1.0, None)),
    )
    DESCRIPTION = "Poisson arrivals whose rate follows a sinusoidal day"

    def __init__(self, **params: object) -> None:
        super().__init__(**params)
        if self._float("gap") <= 0 or self._float("period") <= 0:
            raise ValueError("diurnal gap and period must be > 0")

    def times(self, n_tenants: int, rng: random.Random) -> List[float]:
        gap = self._float("gap")
        period = self._float("period")
        peak = self._float("peak")
        out = [0.0]
        for _ in range(1, n_tenants):
            t = out[-1]
            swing = 0.5 + 0.5 * math.sin(2.0 * math.pi * t / period)
            intensity = 1.0 + (peak - 1.0) * swing
            out.append(t + rng.expovariate(intensity / gap))
        return out


@ARRIVALS.register
class BurstyArrivals(ArrivalProcess):
    """Simultaneous groups of ``burst`` tenants, gaps jittered on ``gap``."""

    NAME = "bursty"
    PARAMS = (
        Param("burst", int, 2, "tenants admitted per burst",
              bounds=(1, None)),
        Param("gap", float, 8000.0,
              "mean cycles between bursts (jittered +/- 50%)"),
    )
    DESCRIPTION = "tenants arrive in simultaneous bursts"

    def __init__(self, **params: object) -> None:
        super().__init__(**params)
        gap = self._float("gap")
        if gap <= 0:
            raise ValueError(f"bursty gap must be > 0, got {gap}")

    def times(self, n_tenants: int, rng: random.Random) -> List[float]:
        burst = self._int("burst")
        gap = self._float("gap")
        out: List[float] = []
        when = 0.0
        while len(out) < n_tenants:
            take = min(burst, n_tenants - len(out))
            out.extend([when] * take)
            when += gap * (0.5 + rng.random())
        return out


def arrival_times(spec: Optional[str], n_tenants: int,
                  seed: int) -> List[float]:
    """Admission times for ``n_tenants`` under ``spec``, seeded.

    The first tenant is always admitted at 0.0 and times are validated
    finite and nondecreasing — the contract
    :class:`~repro.gpu.system.GPUSystem` assumes when scheduling admission
    events.
    """
    process = ARRIVALS.from_spec(spec)
    out = process.times(n_tenants, random.Random(seed))
    if len(out) != n_tenants:
        raise ValueError(
            f"arrival process {process.NAME!r} produced {len(out)} times "
            f"for {n_tenants} tenants")
    if out and out[0] != 0.0:
        raise ValueError("first admission must be at time 0.0")
    if not all(math.isfinite(t) for t in out):
        raise ValueError(f"arrival process {process.NAME!r} produced "
                         f"non-finite admission times")
    if any(b < a for a, b in zip(out, out[1:])):
        raise ValueError("admission times must be nondecreasing")
    return out
