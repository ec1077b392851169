"""Consolidation subsystem: N-tenant runs as open-system experiments.

The paper's multi-program story (Section 6.3, Figures 9/15) stops at two
co-runners with one fixed placement.  This package generalizes it into the
consolidation study the paper never ran:

* :mod:`~repro.consolidate.placement` — pluggable SM-placement policies
  (``cluster-split`` reproduces the Figure 9 rule; ``striped``,
  ``dedicated-cluster`` and ``fill-first`` explore alternatives);
* :mod:`~repro.consolidate.arrivals` — seeded, deterministic arrival
  processes (``closed``, ``poisson``, ``diurnal``, ``bursty``) under which
  tenants are admitted mid-run;
* :mod:`~repro.consolidate.mixgen` — seeded Monte Carlo mix sampling over
  the full workload catalog, stratified by category;
* :mod:`~repro.consolidate.metrics` — per-tenant request-latency
  percentiles, slowdown vs a cached solo run, weighted speedup and Jain's
  fairness index.

Placements and arrival processes are two instances (:data:`PLACEMENTS`,
:data:`ARRIVALS`) of the component registry LLC policies use
(:mod:`repro.analysis.registry`): the same
:class:`~repro.analysis.registry.Param` schema, ``NAME[:k=v,...]`` spec
grammar and lookup.  Their canonical specs drop default parameters, and
the default spec canonicalizes to ``None``.

Everything here is pure (no simulator imports): the runner layer feeds the
derived arrival times and placement instance into
:class:`~repro.scenario.Scenario`, which :class:`~repro.gpu.system.
GPUSystem` consumes.
"""

from repro.consolidate.arrivals import (ARRIVALS, ArrivalProcess,
                                        arrival_times, available_arrivals,
                                        canonical_arrivals_spec,
                                        create_arrivals)
from repro.consolidate.metrics import (jains_fairness, latency_percentiles,
                                       slowdown, weighted_speedup)
from repro.consolidate.mixgen import sample_mix
from repro.consolidate.placement import (PLACEMENTS, Placement,
                                         available_placements,
                                         canonical_placement_spec,
                                         create_placement)

__all__ = [
    "ARRIVALS",
    "ArrivalProcess",
    "PLACEMENTS",
    "Placement",
    "arrival_times",
    "available_arrivals",
    "available_placements",
    "canonical_arrivals_spec",
    "canonical_placement_spec",
    "create_placement",
    "create_arrivals",
    "jains_fairness",
    "latency_percentiles",
    "sample_mix",
    "slowdown",
    "weighted_speedup",
]
