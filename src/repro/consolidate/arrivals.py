"""Seeded, deterministic tenant arrival processes.

An arrival process turns ``(n_tenants, seed)`` into a nondecreasing list of
admission times in GPU core cycles, the first always 0.0 (an empty machine
admits its first tenant immediately; the deadlock detector in
:meth:`~repro.gpu.system.GPUSystem.run` also relies on work existing at
time zero).  The runner schedules one admission event per later tenant, so
the same spec + seed reproduces the same simulation byte for byte.

Processes share the LLC policies' ``NAME[:k=v,...]`` spec grammar:

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
from typing import Dict, List, Optional, Type

from repro.config import PolicyConfig
from repro.policy.base import PolicyParam


class ArrivalProcess:
    """Base class for registered arrival processes."""

    #: Canonical registered name.
    NAME: str = ""
    #: Alternate names that resolve to this process.
    ALIASES: tuple[str, ...] = ()
    #: One-line description for listings.
    DESCRIPTION: str = ""
    #: Declared parameter schema.
    PARAMS: tuple[PolicyParam, ...] = ()

    def __init__(self, **params: object) -> None:
        schema = {p.name: p for p in self.PARAMS}
        unknown = set(params) - set(schema)
        if unknown:
            raise ValueError(
                f"arrival process {self.NAME!r} has no parameters "
                f"{sorted(unknown)} (available: {sorted(schema) or 'none'})")
        self.params: Dict[str, object] = {
            name: schema[name].coerce(value)
            for name, value in params.items()}
        for name, spec in schema.items():
            self.params.setdefault(name, spec.default)

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

    def spec(self) -> str:
        """Canonical ``NAME[:k=v,...]`` rendering, defaults elided."""
        schema = {p.name: p for p in self.PARAMS}
        explicit = {k: v for k, v in self.params.items()
                    if schema[k].default != v}
        return PolicyConfig.of(self.NAME, explicit).spec()


class ClosedArrivals(ArrivalProcess):
    """Everyone present at time zero — the legacy closed-system co-run."""

    NAME = "closed"
    DESCRIPTION = "all tenants admitted at time zero (legacy co-run shape)"

    def times(self, n_tenants: int, rng: random.Random) -> List[float]:
        return [0.0] * n_tenants


class PoissonArrivals(ArrivalProcess):
    """Memoryless open-system arrivals with mean inter-arrival ``gap``."""

    NAME = "poisson"
    PARAMS = (
        PolicyParam("gap", float, 4000.0,
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


class DiurnalArrivals(ArrivalProcess):
    """Poisson arrivals under a sinusoidally swinging rate.

    The instantaneous mean gap at time ``t`` is ``gap / intensity(t)``
    where ``intensity`` swings between ``1`` and ``peak`` with period
    ``period`` — a toy diurnal load curve.
    """

    NAME = "diurnal"
    PARAMS = (
        PolicyParam("gap", float, 4000.0,
                    "off-peak mean inter-arrival gap in core cycles"),
        PolicyParam("period", float, 20000.0,
                    "cycles per load-curve period"),
        PolicyParam("peak", float, 4.0,
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


class BurstyArrivals(ArrivalProcess):
    """Simultaneous groups of ``burst`` tenants, gaps jittered on ``gap``."""

    NAME = "bursty"
    PARAMS = (
        PolicyParam("burst", int, 2, "tenants admitted per burst",
                    bounds=(1, None)),
        PolicyParam("gap", float, 8000.0,
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


_REGISTRY: Dict[str, Type[ArrivalProcess]] = {}

DEFAULT_ARRIVALS = ClosedArrivals.NAME


def register_arrivals(cls: Type[ArrivalProcess]) -> Type[ArrivalProcess]:
    """Register an arrival-process class under its NAME and ALIASES."""
    for name in (cls.NAME, *cls.ALIASES):
        existing = _REGISTRY.get(name)
        if existing is not None and existing is not cls:
            raise ValueError(f"arrival process name {name!r} already "
                             f"registered by {existing.NAME!r}")
        _REGISTRY[name] = cls
    return cls


for _cls in (ClosedArrivals, PoissonArrivals, DiurnalArrivals,
             BurstyArrivals):
    register_arrivals(_cls)


def available_arrivals() -> Dict[str, Type[ArrivalProcess]]:
    """Canonical name → class for every registered arrival process."""
    return {cls.NAME: cls for cls in _REGISTRY.values()}


def create_arrivals(spec: Optional[str]) -> ArrivalProcess:
    """Instantiate an arrival process from ``NAME[:k=v,...]`` spec text
    (``None``/empty means ``closed``).

    Raises:
        ValueError: unknown name, a parameter outside the schema, or a
        parameter value outside the process's range.
    """
    if not spec:
        spec = DEFAULT_ARRIVALS
    config = PolicyConfig.from_spec(spec)
    cls = _REGISTRY.get(config.name)
    if cls is None:
        raise ValueError(
            f"unknown arrival process {config.name!r} "
            f"(available: {sorted(available_arrivals())})")
    return cls(**config.params_dict())


def canonical_arrivals_spec(spec: Optional[str]) -> Optional[str]:
    """Canonical spec text, or ``None`` for a default-parameter ``closed``
    process (which is exactly the legacy scenario path and must key
    identically to it)."""
    if not spec:
        return None
    rendered = create_arrivals(spec).spec()
    if rendered == DEFAULT_ARRIVALS:
        return None
    return rendered


def arrival_times(spec: Optional[str], n_tenants: int,
                  seed: int) -> List[float]:
    """Admission times for ``n_tenants`` under ``spec``, seeded.

    The first tenant is always admitted at 0.0 and times are validated
    nondecreasing — the contract :class:`~repro.gpu.system.GPUSystem`
    assumes when scheduling admission events.
    """
    process = create_arrivals(spec)
    out = process.times(n_tenants, random.Random(seed))
    if len(out) != n_tenants:
        raise ValueError(
            f"arrival process {process.NAME!r} produced {len(out)} times "
            f"for {n_tenants} tenants")
    if out and out[0] != 0.0:
        raise ValueError("first admission must be at time 0.0")
    if any(b < a for a, b in zip(out, out[1:])):
        raise ValueError("admission times must be nondecreasing")
    return out
